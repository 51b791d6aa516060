"""Smith normal form and block homology checks, with brute-force oracles."""

from fractions import Fraction
import itertools
import random
import re
import weakref

import pytest

from linkhom.corpus import DIAGRAMS, corpus_diagrams
from linkhom import homcore
from linkhom.graphhom import (
    Multigraph,
    Pn_homology,
    Qn_homology,
    enhanced_homology,
)
from linkhom.homcore import (
    CubeSpec,
    GradedComplex,
    HomologyTable,
    SparseIntMatrix,
    cube_blocks,
    cube_homology,
    euler_characteristic,
    poincare_polynomial,
    smith_normal_form,
    strand_homology,
)
from linkhom.khovanov import (
    _KHOVANOV,
    _states,
    build_khovanov_complex,
    torus_diagram,
)
from linkhom.linkdiag import braid_closure, parse_braid
from linkhom.polyalg import LaurentPoly

from complexes import cube_complex, cube_khovanov, homology, pn_complex, qn_complex, strands


def mat(rows, cols, data):
    return SparseIntMatrix(rows, cols, {k: v for k, v in data.items()})


def dense(m):
    return [[m.entries.get((r, c), 0) for c in range(m.cols)] for r in range(m.rows)]


def permuted(m, row_perm, col_perm):
    # the same entries under renumbered rows and columns
    return mat(m.rows, m.cols, {(row_perm[r], col_perm[c]): v for (r, c), v in m.entries.items()})


def det(a):
    # Bareiss fraction-free determinant for the minor oracle
    n = len(a)
    if n == 0:
        return 1
    a = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def snf_via_minors(m):
    """Oracle: d_1...d_k = gcd of all k x k minors."""
    from math import gcd

    d = dense(m)
    rows, cols = m.rows, m.cols
    prods = []
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsel in itertools.combinations(range(rows), k):
            for csel in itertools.combinations(range(cols), k):
                sub = [[d[r][c] for c in csel] for r in rsel]
                g = gcd(g, abs(det(sub)))
        if g == 0:
            break
        prods.append(g)
    factors = []
    prev = 1
    for p in prods:
        factors.append(p // prev)
        prev = p
    return tuple(factors), len(factors)


def test_identity_snf():
    m = mat(3, 3, {(i, i): 1 for i in range(3)})
    assert smith_normal_form(m) == ((1, 1, 1), 3)


def test_snf_2x2_example():
    m = mat(2, 2, {(0, 0): 2, (0, 1): 4, (1, 0): 6, (1, 1): 8})
    # oracle: d1 = gcd of entries = 2, d1*d2 = |det| = 8
    assert smith_normal_form(m) == ((2, 4), 2)


def test_zero_matrix_snf():
    assert smith_normal_form(SparseIntMatrix(2, 3)) == ((), 0)


@pytest.mark.parametrize("value", [2.5, 0.5, Fraction(1, 2), "3"], ids=["2.5", "0.5", "half", "str"])
def test_exact_values_take_integers_only(value):
    # int() would round 2.5 to 2, store 0.5 as an explicit 0 and parse "3"
    msg = re.escape(f"{value!r} is not an integer")
    with pytest.raises(ValueError, match=msg):
        SparseIntMatrix(2, 2, {(0, 0): value, (1, 1): 3})
    with pytest.raises(ValueError, match=msg):
        LaurentPoly.from_terms(("q",), {0: value, 1: 2})
    with pytest.raises(ValueError, match=msg):
        LaurentPoly.constant(("q",), value)
    with pytest.raises(ValueError, match=msg):
        LaurentPoly.monomial(("q",), 1, value)
    m = SparseIntMatrix(2, 2, {(0, 0): True, (0, 1): False, (1, 1): 3})
    assert m.data == {0: {0: 1}, 1: {1: 3}} and smith_normal_form(m) == ((1, 3), 2)
    assert LaurentPoly.monomial(("q",), 1, True) == LaurentPoly.from_terms(("q",), {1: 1, 0: False})


def test_snf_against_minor_oracle_random():
    rng = random.Random(19)
    for _ in range(120):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        density = rng.random()
        data = {}
        for r in range(rows):
            for c in range(cols):
                if rng.random() < density:
                    data[(r, c)] = rng.randint(-6, 6)
        m = mat(rows, cols, data)
        assert smith_normal_form(m) == snf_via_minors(m)


def test_snf_invariant_under_permutation():
    rng = random.Random(5)
    for _ in range(30):
        rows, cols = rng.randint(2, 6), rng.randint(2, 6)
        data = {(r, c): rng.randint(-4, 4) for r in range(rows) for c in range(cols) if rng.random() < 0.6}
        m = mat(rows, cols, data)
        rp = list(range(rows))
        cp = list(range(cols))
        rng.shuffle(rp)
        rng.shuffle(cp)
        assert smith_normal_form(m) == smith_normal_form(permuted(m, rp, cp))


def unimodular_transform(rng, a, steps):
    """Apply random elementary row operations (swap, negate, add a small
    multiple of another row) to the dense matrix ``a`` in place."""
    n = len(a)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        op = rng.random()
        if op < 0.1:
            a[i], a[j] = a[j], a[i]
        elif op < 0.2:
            a[i] = [-x for x in a[i]]
        else:
            k = rng.choice([-2, -1, 1, 2])
            a[i] = [x + k * y for x, y in zip(a[i], a[j])]


def transpose(a):
    return [list(col) for col in zip(*a)]


def test_snf_medium_matrices_known_answer():
    # M = U D V with U, V unimodular, so M's invariant factors are D's
    rng = random.Random(2006)
    for _ in range(12):
        rows, cols = rng.randint(20, 80), rng.randint(20, 80)
        rank = min(rows, cols) - rng.randint(1, 6)
        factors = [1] * (rank - 6) + [2, 2, 4, 4, 12, 12]
        a = [[0] * cols for _ in range(rows)]
        for k, f in enumerate(factors):
            a[k][k] = f
        unimodular_transform(rng, a, 2 * rows)
        a = transpose(a)
        unimodular_transform(rng, a, 2 * cols)
        a = transpose(a)
        m = mat(rows, cols, {(r, c): v for r, row in enumerate(a) for c, v in enumerate(row) if v})
        assert smith_normal_form(m) == (tuple(factors), rank)


def rank_mod_p(m, p):
    """Rank over GF(p) by sparse row echelon form, independent of the SNF."""
    rows: dict[int, dict[int, int]] = {}
    for (r, c), v in m.entries.items():
        if v % p:
            rows.setdefault(r, {})[c] = v % p
    pivots: dict[int, dict[int, int]] = {}  # leading column -> row with leading 1
    for row in sorted(rows.values(), key=len):
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(row[lead], -1, p)
                pivots[lead] = {c: v * inv % p for c, v in row.items()}
                break
            f = row[lead]
            for c, v in piv.items():
                nv = (row.get(c, 0) - f * v) % p
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
    return len(pivots)


PRISM = Multigraph(6, ((1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4), (1, 4), (2, 5), (3, 6)))
THETA = Multigraph(6, ((1, 3), (3, 2), (1, 4), (4, 2), (1, 5), (5, 6), (6, 2)))


def test_snf_torsion_matches_mod_p_ranks():
    # universal coefficients: rank over GF(p) counts the factors p does not divide
    complexes = [(b.text(), build_khovanov_complex(braid_closure(b))) for b in corpus_diagrams(max_crossings=7)]
    complexes += [
        ((g, n, variant), pn_complex(g, n, variant))
        for g in (PRISM, THETA)
        for n in (1, 2)
        for variant in ("zero", "xn")
    ]
    seen = {2: 0, 3: 0}
    for label, cplx in complexes:
        for blk in cplx.diff.values():
            if not blk.nnz:
                continue
            factors, _ = smith_normal_form(blk)
            for p in (2, 3):
                assert rank_mod_p(blk, p) == sum(1 for f in factors if f % p), label
                seen[p] += sum(1 for f in factors if f % p == 0)
    assert seen[2] and seen[3]  # both primes meet torsion


def two_term_complex(entry):
    c = GradedComplex()
    c.dims[(0, 0)] = 1
    c.dims[(1, 0)] = 1
    m = SparseIntMatrix(1, 1, {(0, 0): entry} if entry else {})
    c.diff[(0, 0)] = m
    return c


def test_zero_differential_homology():
    t = homology(two_term_complex(0))
    assert t.group(0, 0) == (1, ())
    assert t.group(1, 0) == (1, ())


def test_multiplication_by_two():
    t = homology(two_term_complex(2))
    assert t.rank(0, 0) == 0
    assert t.group(1, 0) == (0, (2,))


def test_euler_characteristic_chain_vs_homology():
    c = two_term_complex(2)
    chain = euler_characteristic(c)
    hom = euler_characteristic(homology(c))
    assert chain == hom == LaurentPoly.zero(("q",))


def test_single_generator_euler():
    c = GradedComplex(dims={(0, 0): 1})
    assert euler_characteristic(c) == LaurentPoly.one(("q",))


def test_shift_applied_to_outputs():
    c = two_term_complex(0)
    c.shift = (-1, 3)
    t = homology(c)
    assert t.group(-1, 3) == (1, ())
    assert t.group(0, 3) == (1, ())
    assert euler_characteristic(c) == LaurentPoly.zero(("q",))


def test_d_squared_violation_reported():
    c = GradedComplex()
    c.dims[(0, 0)] = 1
    c.dims[(1, 0)] = 1
    c.dims[(2, 0)] = 1
    c.diff[(0, 0)] = mat(1, 1, {(0, 0): 1})
    c.diff[(1, 0)] = mat(1, 1, {(0, 0): 1})
    with pytest.raises(ValueError, match=r"\(0, 0\)"):
        homology(c)


def test_d_squared_violations_in_two_strands():
    # strand j=1 fails at (1, 1), strand j=4 at (0, 4); strand j=2 is a
    # chain complex, and (2, 1) -> (3, 1) has nothing after it
    c = GradedComplex()
    for key in ((0, 1), (1, 1), (2, 1), (3, 1), (0, 2), (1, 2), (2, 2), (0, 4), (1, 4), (2, 4)):
        c.dims[key] = 2
    c.diff[(0, 1)] = mat(2, 2, {(0, 0): 1})
    c.diff[(1, 1)] = mat(2, 2, {(0, 1): 2})
    c.diff[(2, 1)] = mat(2, 2, {(1, 0): 3, (1, 1): 1})
    c.diff[(0, 2)] = mat(2, 2, {(0, 0): 1, (1, 0): 1})
    c.diff[(1, 2)] = mat(2, 2, {(0, 0): 1, (0, 1): -1})
    c.diff[(0, 4)] = mat(2, 2, {(0, 0): 1, (1, 1): 1})
    c.diff[(1, 4)] = mat(2, 2, {(0, 1): 5})
    with pytest.raises(ValueError, match=r"\[\(0, 4\), \(1, 1\)\]"):
        homology(c)


def test_homology_invariant_under_basis_permutation():
    rng = random.Random(23)
    for _ in range(15):
        dims = [rng.randint(1, 5) for _ in range(3)]
        # build a random two-step complex d1: C0 -> C1, d2: C1 -> C2 with d2 d1 = 0
        # by using d1 = A, d2 = B with B A = 0 constructed from a factorization
        a = mat(dims[1], dims[0], {(rng.randrange(dims[1]), c): rng.choice([1, -1, 2]) for c in range(dims[0])})
        # d2 kills the image: choose zero map for simplicity of the invariant
        cplx = GradedComplex()
        cplx.dims[(0, 0)] = dims[0]
        cplx.dims[(1, 0)] = dims[1]
        cplx.dims[(2, 0)] = dims[2]
        cplx.diff[(0, 0)] = a
        base = homology(cplx)
        rp = list(range(dims[1]))
        cp = list(range(dims[0]))
        rng.shuffle(rp)
        rng.shuffle(cp)
        cplx2 = GradedComplex()
        cplx2.dims = dict(cplx.dims)
        cplx2.diff[(0, 0)] = permuted(a, rp, cp)
        assert homology(cplx2) == base


def test_poincare_polynomial():
    t = HomologyTable({(0, 1): (1, ()), (0, -1): (1, ()), (2, 5): (1, (2,))})
    p = poincare_polynomial(t)
    assert p == LaurentPoly.from_terms(("t", "q"), {(0, 1): 1, (0, -1): 1, (2, 5): 1})
    assert poincare_polynomial(HomologyTable()) == LaurentPoly.zero(("t", "q"))


def test_table_serialization_sorted():
    t = HomologyTable({(1, 3): (0, (2,)), (0, 1): (2, ())})
    assert t.to_json() == '[{"i":0,"j":1,"rank":2,"torsion":[]},{"i":1,"j":3,"rank":0,"torsion":[2]}]'
    assert t.to_csv().splitlines()[1] == "0,1,2,"


def test_torsion_chain_large_entries():
    # diag(2, 3) has invariant factors (1, 6)
    m = mat(2, 2, {(0, 0): 2, (1, 1): 3})
    assert smith_normal_form(m) == ((1, 6), 2)


def factors_by_primes(values):
    """Oracle: the invariant factors of a diagonal with nonzero ``values``.
    Per prime, the exponents of the values sorted increasingly; the k-th
    factor is the product of every prime to its k-th exponent."""
    exponents: dict[int, list[int]] = {}
    for k, v in enumerate(values):
        v, p = abs(v), 2
        while v > 1:
            while v % p == 0:
                exponents.setdefault(p, [0] * len(values))[k] += 1
                v //= p
            p += 1
    factors = [1] * len(values)
    for p, exps in exponents.items():
        for k, e in enumerate(sorted(exps)):
            factors[k] *= p**e
    return tuple(factors)


@pytest.mark.parametrize(
    "values",
    [(4, 6, 10, 15, 9), (9, 15, 10, 6, 4), (12, 18, 8, 27), (2, 3, 5, 7), (-4, 6, 1, -1, 35, 14), (30, 1, 30)],
)
def test_snf_chain_of_diagonals_against_prime_oracle(values):
    # the gcd/lcm swaps meet several primes at once: on diag(4, 6, 10, 15, 9)
    # the 2s, 3s and 5s each end in a different place
    m = mat(len(values), len(values), {(k, k): v for k, v in enumerate(values)})
    assert smith_normal_form(m) == (factors_by_primes(values), len(values))


def test_snf_chain_of_seeded_monomial_matrices():
    # one nonzero per row and column, at a random place and with a random sign
    rng = random.Random(18)
    pool = [1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 18, 20, 25, 27, 30, 36, 45, 49, 60, 90]
    for _ in range(300):
        values = [rng.choice(pool) * rng.choice((1, -1)) for _ in range(rng.randint(1, 8))]
        cols = rng.sample(range(len(values) + 2), len(values))
        m = mat(len(values), len(values) + 2, {(k, c): v for k, (c, v) in enumerate(zip(cols, values))})
        assert smith_normal_form(m) == (factors_by_primes(values), len(values)), values


def test_rank_only_helper():
    m = mat(2, 3, {(0, 0): 2, (1, 2): 5})
    assert smith_normal_form(m)[1] == 2


def per_block_homology(c):
    """Oracle: a Smith form of every block on its own."""
    snf = {k: smith_normal_form(b) for k, b in c.diff.items()}
    s, l = c.shift
    out = {}
    for (i, j) in set(c.dims) | set(c.diff):
        dim = c.dims.get((i, j), 0)
        if dim:
            factors_in, rank_in = snf.get((i - 1, j), ((), 0))
            free = dim - snf.get((i, j), ((), 0))[1] - rank_in
            torsion = tuple(f for f in factors_in if f > 1)
            if free or torsion:
                out[(i + s, j + l)] = (free, torsion)
    return out


def assert_unit_free_residue(cplx, expected):
    # every block the strand pass hands to the Smith form has had its ±1
    # entries cancelled, keeps its own shape, has lost the rows that the
    # block after it cancelled, and gives the same homology
    shapes = {(blk.rows, blk.cols) for blk in cplx.diff.values()}
    handed = []
    snf = homcore.smith_normal_form
    work = homcore._Elimination
    made, sweep, cancel = work.__init__, work.sweep, work.cancel_unit
    strand = []  # the strand's working forms, in the order they were made
    cancelled: dict[int, set[int]] = {}  # by id of a working form, the columns it cancelled
    in_snf = False

    def making(st, rows):
        made(st, rows)
        if not in_snf:
            strand.append(st)

    def sweeping(st):
        pivots = sweep(st)
        assert all(r not in st.rows and c not in st.cols for r, c in pivots)
        if not in_snf:
            cancelled.setdefault(id(st), set()).update(c for _, c in pivots)
        return pivots

    def cancelling(st, r, c):
        cancel(st, r, c)
        if not in_snf:
            cancelled.setdefault(id(st), set()).add(c)

    def watched(m):
        nonlocal in_snf
        handed.append(m)
        assert (m.rows, m.cols) in shapes
        assert all(abs(v) != 1 for v in m.entries.values())
        # a block is settled in place once the next block of its strand
        # is cancelled, and that block's working form is made after it
        (k,) = [k for k, st in enumerate(strand) if st.rows is m.data]
        if k + 1 < len(strand):
            assert not cancelled.get(id(strand[k + 1]), set()) & set(m.data), "a row cancelled one step on"
        in_snf = True
        try:
            return snf(m)
        finally:
            in_snf = False

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homcore, "smith_normal_form", watched)
        mp.setattr(work, "__init__", making)
        mp.setattr(work, "sweep", sweeping)
        mp.setattr(work, "cancel_unit", cancelling)
        assert homology(cplx).entries == expected
    assert len(handed) <= len(cplx.diff)


def test_homology_matches_per_block_oracle_on_cube_complexes():
    # (a label, the collected complex, the same homology streamed from the
    # cube engine, the cube degrees i that the streamed table keeps)
    cases = []
    for b in corpus_diagrams(max_crossings=8):
        d = braid_closure(b)
        cases.append((b.text(), build_khovanov_complex(d), cube_homology(_KHOVANOV, _states(d)), None))
        cases.append((b.text(), build_khovanov_complex(d, normalized=True), cube_khovanov(d), None))
    # windowed complexes straight from the engine, whose columns and
    # window are cube indices; the homology functions take the table's
    b = corpus_diagrams(max_crossings=8)[-1]
    d = braid_closure(b)
    shift = (-d.n_minus, d.n_plus - 2 * d.n_minus)
    for columns, window, moved, streamed, irange in (
        ((0, 4), None, (0, 0), cube_homology(_KHOVANOV, _states(d), irange=(1, 3)), (1, 3)),
        (None, (-1, 3), shift, cube_khovanov(d, jwindow=(shift[1] - 1, shift[1] + 3)), None),
    ):
        dims, blocks = cube_blocks(_KHOVANOV, _states(d), columns, window)
        cases.append((b.text(), GradedComplex(dims, dict(blocks()), moved), streamed, irange))
    for g in (PRISM, THETA):
        for n in (1, 2):
            for variant in ("zero", "xn"):
                cases.append(((g, n, variant), pn_complex(g, n, variant), Pn_homology(g, n, variant), None))
        cases.append(((g, 1), qn_complex(g, 1, (0, 1)), Qn_homology(g, 1, (0, 1)), None))
        cases.append(((g, 2), qn_complex(g, 2, (2, 3)), enhanced_homology(g, (2, 3)), None))
    torsion = 0
    for label, cplx, streamed, irange in cases:
        expected = per_block_homology(cplx)
        assert homology(cplx).entries == expected, label
        kept = {k: v for k, v in expected.items() if irange is None or irange[0] <= k[0] <= irange[1]}
        assert streamed.entries == kept, label
        assert_unit_free_residue(cplx, expected)
        torsion += sum(len(t) for _, t in expected.values())
    assert torsion


# Delta(1) = 1X alone keeps the degree but breaks d^2 = 0
BROKEN_DELTA = CubeSpec(
    top=1,
    grading=(1, 1, 2),
    merge=lambda x, y: (x + y,) if x + y <= 1 else (),
    split=lambda x: ((1, 1),) if x else ((0, 1),),
)


def test_d_squared_violations_streamed_from_a_broken_cube():
    # the streamed check must name every block whose composite with the
    # next is not 0
    d = torus_diagram(3, 4)
    c = cube_complex(BROKEN_DELTA, _states(d))
    bad = sorted(
        (i, j) for (i, j), blk in c.diff.items()
        if (i + 1, j) in c.diff and not homcore._composite_is_zero((i, j), blk, c.diff[i + 1, j])
    )
    assert len({j for _, j in bad}) > 1
    dims, blocks = cube_blocks(BROKEN_DELTA, _states(d))
    with pytest.raises(ValueError, match=re.escape(f"d^2 != 0 at blocks {bad}") + "$"):
        strand_homology(dims, blocks())


def test_blocks_out_of_strand_order_refused():
    # the d^2 check reads only blocks that come back to back, so the broken
    # complex in (i, j) order must be refused, not given a table without it
    c = cube_complex(BROKEN_DELTA, _states(torus_diagram(3, 4)))
    keys = sorted(c.diff)
    prev, key = next((a, b) for a, b in zip(keys, keys[1:]) if b[::-1] < a[::-1])
    msg = f"block {key} comes after block {prev}, out of strand order (j, then i)"
    with pytest.raises(ValueError, match=re.escape(msg)):
        strand_homology(c.dims, ((k, c.diff[k]) for k in keys))
    with pytest.raises(ValueError, match=re.escape(f"block {keys[0]} comes after block {keys[0]},")):
        strand_homology(c.dims, ((k, c.diff[k]) for k in keys[:1] * 2))


def cancelled_rows(cplx):
    """Per block of ``cplx``, the rows that its unit cancellation takes in
    the strand pass: the columns the block after it drops before its
    d^2 check."""
    work = homcore._Elimination
    made, cancel = work.__init__, work.cancel_unit
    copies = {}  # id of a block's copy -> (key, the copy), kept alive
    forms = {}  # id of a block's working form -> (key, rows it cancelled, the form)

    def making(st, rows):
        made(st, rows)
        if id(rows) in copies:
            forms[id(st)] = (copies[id(rows)][0], {r for r, _ in st.swept}, st)

    def cancelling(st, r, c):
        cancel(st, r, c)
        if id(st) in forms:
            forms[id(st)][1].add(r)

    def tagged():
        for key, blk in strands(cplx):
            copies[id(blk.data)] = (key, blk)
            yield key, blk

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(work, "__init__", making)
        mp.setattr(work, "cancel_unit", cancelling)
        strand_homology(cplx.dims, tagged())
    return {key: rows for key, rows, _ in forms.values()}


def put(blk, r, c, v):
    # set entry (r, c) of a stored block, leaving no empty row
    row = blk.data.setdefault(r, {})
    if v:
        row[c] = v
    else:
        row.pop(c, None)
        if not row:
            del blk.data[r]


def test_d_squared_check_on_reduced_blocks_names_the_raw_violations():
    # one entry of a stored complex changed at a time, in turn: in a column
    # that the block before cancels (so the pass would drop it before the
    # check), in another column of a block whose predecessor was
    # cancelled, and anywhere; the ValueError must name exactly the blocks
    # whose raw composite with the next is not 0
    words = ("3: 1 2 1 2 1 2 1 2", "4: 1 2 3 1 2 3", "3: 1 -2 1 -2")
    assert set(words) <= set(DIAGRAMS)
    complexes = [(w, build_khovanov_complex(braid_closure(parse_braid(w)), normalized=True)) for w in words]
    complexes.append(((THETA, 2, "zero"), pn_complex(THETA, 2, "zero")))
    rng = random.Random(5)
    cases = 0
    for label, cplx in complexes:
        before = snapshot(cplx)
        dropped = cancelled_rows(cplx)
        after = [(i, j) for (i, j) in cplx.diff if dropped.get((i - 1, j))]
        for kind in ("dropped column", "kept column", "anywhere") * 3:
            for _ in range(200):
                key = rng.choice(sorted(after if kind != "anywhere" else cplx.diff))
                blk = cplx.diff[key]
                cut = dropped.get((key[0] - 1, key[1]), set())
                cols = sorted(cut) if kind == "dropped column" else [c for c in range(blk.cols) if c not in cut]
                r, c = rng.randrange(blk.rows), rng.choice(cols)
                old = blk.data.get(r, {}).get(c, 0)
                put(blk, r, c, old + rng.choice((-2, -1, 1, 2)))
                bad = sorted(
                    (i, j) for (i, j), b in cplx.diff.items()
                    if (i + 1, j) in cplx.diff and not homcore._composite_is_zero((i, j), b, cplx.diff[i + 1, j])
                )
                if bad:
                    with pytest.raises(ValueError, match=re.escape(f"d^2 != 0 at blocks {bad}") + "$"):
                        homology(cplx)
                    cases += 1
                put(blk, r, c, old)
                if bad:
                    break
            else:
                raise AssertionError(f"no entry of {label} breaks d^2 = 0 ({kind})")
        assert snapshot(cplx) == before
    assert cases == 36


def test_elimination_row_ops_pinned(monkeypatch):
    # the row operations of the serial strand pass (the sweep of lone ±1
    # rows makes none), pinned so that a change to the order of the
    # cancellation shows
    monkeypatch.setattr(homcore, "_FORK_MIN", float("inf"))
    row_op, counts = homcore._Elimination.row_op, []

    def counting(st, r2, r1, q):
        counts.append(r2)
        row_op(st, r2, r1, q)

    monkeypatch.setattr(homcore._Elimination, "row_op", counting)
    cube_khovanov(torus_diagram(3, 5))
    assert len(counts) == 8716
    counts.clear()
    Pn_homology(THETA, 2, "zero")
    assert len(counts) == 1081


def test_streaming_frees_blocks(monkeypatch):
    # every block the engine yields is dropped once the next one is
    # checked against it, so at most the held block and the arriving one
    # are alive; T(3,5) has 8,418 generators, so the threshold is raised
    # to keep it on the serial path
    monkeypatch.setattr(homcore, "_FORK_MIN", float("inf"))
    d = torus_diagram(3, 5)
    expected = homology(build_khovanov_complex(d, normalized=True))
    seen = []
    engine = homcore.cube_blocks

    def watched(*args):
        dims, blocks = engine(*args)

        def stream(js=None):
            for key, blk in blocks(js):
                seen.append((key, weakref.ref(blk)))
                alive = [k for k, ref in seen if ref() is not None]
                assert alive == [k for k, _ in seen[-2:]] or alive == [key], alive
                yield key, blk

        return dims, stream

    monkeypatch.setattr(homcore, "cube_blocks", watched)
    assert cube_khovanov(d) == expected
    assert len(seen) > 20
    assert all(ref() is None for _, ref in seen)


def snapshot(cplx):
    return dict(cplx.dims), {key: (blk.rows, blk.cols, blk.entries) for key, blk in cplx.diff.items()}


def change_basis(rng, diff, dims, key):
    """A random unimodular change of basis of the chain group at ``key``:
    the block into it takes the row operation, the block out of it the
    inverse column operation."""
    i, j = key
    into, out = diff.get((i - 1, j)), diff.get((i, j))
    a, b = rng.sample(range(dims[key]), 2)
    op = rng.random()
    if op < 0.1:  # swap generators a and b
        if into is not None:
            into[a], into[b] = into[b], into[a]
        if out is not None:
            for row in out:
                row[a], row[b] = row[b], row[a]
    elif op < 0.2:  # negate generator a
        if into is not None:
            into[a] = [-x for x in into[a]]
        if out is not None:
            for row in out:
                row[a] = -row[a]
    else:  # a += k b
        k = rng.choice([-2, -1, 1, 2])
        if into is not None:
            into[a] = [x + k * y for x, y in zip(into[a], into[b])]
        if out is not None:
            for row in out:
                row[b] -= k * row[a]


def invariant_factors(orders):
    # the k-th largest power of each prime goes into the k-th largest factor
    out = [1] * len(orders)
    powers: dict[int, list[int]] = {}
    for n in orders:
        p = 2
        while n > 1:
            q = 1
            while n % p == 0:
                n, q = n // p, q * p
            if q > 1:
                powers.setdefault(p, []).append(q)
            p += 1
    for qs in powers.values():
        for k, q in enumerate(sorted(qs, reverse=True)):
            out[-1 - k] *= q
    return tuple(f for f in out if f > 1)


def test_homology_known_answer_random_complexes():
    # direct sums of Z, Z --1--> Z and Z --n--> Z, then a change of basis
    rng = random.Random(4)
    for trial in range(30):
        degrees = list(range(rng.choice([4, 5])))
        if trial % 3 == 0:
            degrees.remove(rng.choice(degrees[1:-1]))  # a gap in i
        expected = {}
        gens = {}  # (i, j) -> number of generators so far
        arrows = []  # (i, j, source generator, target generator, n)
        for j in (0, 2):
            for i in degrees:
                for _ in range(rng.randint(0, 2)):
                    gens[(i, j)] = gens.get((i, j), 0) + 1
                    free, tors = expected.get((i, j), (0, []))
                    expected[(i, j)] = (free + 1, tors)
                if i + 1 not in degrees:
                    continue
                orders = [1] * rng.randint(0, 4) + [rng.choice([2, 3, 4, 6, 12]) for _ in range(rng.randint(0, 2))]
                for n in orders:
                    src, dst = gens.get((i, j), 0), gens.get((i + 1, j), 0)
                    gens[(i, j)], gens[(i + 1, j)] = src + 1, dst + 1
                    arrows.append((i, j, src, dst, n))
                    if n > 1:
                        free, tors = expected.get((i + 1, j), (0, []))
                        expected[(i + 1, j)] = (free, tors + [n])
        diff = {}
        for i, j, src, dst, n in arrows:
            blk = diff.setdefault((i, j), [[0] * gens[(i, j)] for _ in range(gens[(i + 1, j)])])
            blk[dst][src] = n
        for _ in range(3 * len(gens)):
            key = rng.choice(sorted(k for k, n in gens.items() if n > 1))
            change_basis(rng, diff, gens, key)
        cplx = GradedComplex(dims=dict(gens))
        for key, blk in diff.items():
            data = {(r, c): v for r, row in enumerate(blk) for c, v in enumerate(row) if v}
            cplx.diff[key] = mat(len(blk), len(blk[0]), data)
        want = {k: (f, invariant_factors(t)) for k, (f, t) in expected.items() if f or t}
        assert homology(cplx).entries == want
        assert per_block_homology(cplx) == want
        assert_unit_free_residue(cplx, want)
