"""Bracket, Jones, and Khovanov homology checks against hand-computed values."""

import hashlib
import os
import random
import subprocess
import sys
import time
from math import comb

import pytest

import linkhom
from linkhom.corpus import corpus_diagrams, random_words
from linkhom import khovanov
from linkhom.homcore import CubeSpec, HomologyTable, SparseIntMatrix, euler_characteristic, poincare_polynomial
from linkhom.khovanov import (
    _cone_structure_ok,
    _differences_below,
    _states,
    build_khovanov_complex,
    jones_normalized,
    jones_unnormalized,
    kauffman_bracket,
    kauffman_bracket_recursive,
    khovanov_homology,
    les_check,
    stable_poincare,
    stability_check,
    torus_diagram,
    unnormalized_homology,
    width_report,
)
from linkhom.linkdiag import (
    BraidWord,
    Diagram,
    InputError,
    braid_closure,
    conjugate,
    mirror,
    parse_braid,
    parse_pd,
    resolve_crossing,
    stabilize,
)
from linkhom.polyalg import LaurentPoly

from complexes import homology

Q = ("q",)
TREFOIL_PD = "X 1 4 2 5\nX 3 6 4 1\nX 5 2 6 3"  # the left-handed trefoil


def qp(mapping):
    return LaurentPoly.from_terms(Q, mapping)


def closure(text):
    return braid_closure(parse_braid(text))


def random_word(rng, max_strands=4, max_len=8, positive=False):
    strands = rng.randint(2, max_strands)
    length = rng.randint(1, max_len)
    letters = []
    for _ in range(length):
        k = rng.randint(1, strands - 1)
        letters.append(k if positive else rng.choice([k, -k]))
    return BraidWord(strands, tuple(letters))


def test_bracket_disjoint_circles():
    circle = qp({1: 1, -1: 1})
    for k in range(1, 6):
        d = braid_closure(BraidWord(k, ()))
        assert kauffman_bracket(d) == circle ** k


def test_bracket_hopf_hand_enumeration():
    assert kauffman_bracket(closure("2: 1 1")) == qp({-2: 1, 0: 1, 2: 1, 4: 1})


def state_sum_bracket(d):
    """The 2^n state sum that the scan replaced, kept as an oracle: the sum
    over resolutions of (-1)^|e| q^|e| (q+q^-1)^c, circles by the cube
    engine's state table."""
    st = _states(d)
    acc = {}
    for mask in range(1 << d.n_crossings):
        i = mask.bit_count()
        c = st.state(mask)[0]
        for k in range(c + 1):
            acc[i + c - 2 * k] = acc.get(i + c - 2 * k, 0) + (-1) ** i * comb(c, k)
    return qp(acc)


def test_bracket_recursive_agrees_with_state_sum():
    # the scan against the recursive skein bracket and the state sum, on
    # diagrams as given and with their crossings in a shuffled order
    rng = random.Random(2)
    diagrams = [braid_closure(b) for b in corpus_diagrams()]
    diagrams += [braid_closure(random_word(rng, max_len=8)) for _ in range(200)]
    diagrams += [parse_pd(TREFOIL_PD), parse_pd("X 1 5 2 4\nX 3 1 4 6\nX 5 3 6 2")]
    diagrams += [parse_pd("X 1 1 2 2"), parse_pd("X 2 1 1 2")]  # kinks: a label twice at one crossing
    diagrams.append(parse_pd("X 3 2 4 1\nX 4 2 3 1"))  # the component {1, 2} is over at both crossings
    diagrams += [braid_closure(BraidWord(k, ())) for k in range(1, 5)]  # k circles
    diagrams.append(closure("4: 1 1 -1"))  # crossings and two loops
    for d in [closure("3: 1 -2 1 -2"), closure("2: 1 1 1 1"), parse_pd("X 2 1 1 2")]:
        diagrams += [resolve_crossing(d, c, bit) for c in range(d.n_crossings) for bit in (0, 1)]
    for d in diagrams:
        shuffled = list(d.crossings)
        rng.shuffle(shuffled)
        want = state_sum_bracket(d)
        assert want == kauffman_bracket_recursive(d), d
        assert kauffman_bracket(d) == want, d
        assert kauffman_bracket(Diagram(tuple(shuffled), d.loops)) == want, d


def torus_knot_jones(p, q):
    """Jones' closed form for the torus knot T(p, q) in linkhom's normalized
    q convention (t = q^2): t^((p-1)(q-1)/2) (1 - t^(p+1) - t^(q+1) +
    t^(p+q)) / (1 - t^2)."""
    num = qp({0: 1, 2 * (p + 1): -1, 2 * (q + 1): -1, 2 * (p + q): 1})
    return num.divide_exact(qp({0: 1, 4: -1})).shift((p - 1) * (q - 1))


@pytest.mark.parametrize("p, q", [(2, 3), (3, 4), (4, 7), (5, 9)])
def test_bracket_scan_reaches_torus_knots_beyond_the_state_sum(p, q):
    # T(4, 7) has 21 crossings and T(5, 9) 36: 2^36 states are out of reach
    d = torus_diagram(p, q)
    start = time.perf_counter()
    jones = jones_normalized(d)
    assert time.perf_counter() - start < 1.0
    assert jones == torus_knot_jones(p, q)


def test_jones_values():
    assert jones_unnormalized(closure("1:")) == qp({1: 1, -1: 1})
    assert jones_unnormalized(closure("2: 1")) == qp({1: 1, -1: 1})
    assert jones_unnormalized(closure("2: -1")) == qp({1: 1, -1: 1})
    assert jones_unnormalized(closure("2: 1 1")) == qp({0: 1, 2: 1, 4: 1, 6: 1})
    assert jones_unnormalized(closure("2: 1 1 1")) == qp({1: 1, 3: 1, 5: 1, 9: -1})


def test_jones_mirror_inverts_variable():
    d = closure("2: 1 1 1")
    j = jones_unnormalized(d)
    jm = jones_unnormalized(mirror(d))
    assert jm == j.substitute("q", LaurentPoly.monomial(Q, -1))


def test_skein_triples():
    def skein_holds(l_plus, l_minus, l_zero):
        # q^-2 J(L+) - q^2 J(L-) = (q^-1 - q) J(L0), exactly
        jp, jm, j0 = (jones_unnormalized(x) for x in (l_plus, l_minus, l_zero))
        return jp.shift(-2) - jm.shift(2) == qp({-1: 1, 1: -1}) * j0

    trefoil = closure("2: 1 1 1")
    switched = closure("2: -1 1 1")
    hopf = closure("2: 1 1")
    assert skein_holds(trefoil, switched, hopf)
    assert skein_holds(closure("2: 1"), closure("2: -1"), braid_closure(BraidWord(2, ())))
    # corrupted triple: counts are consistent but L0 is the wrong link
    assert not skein_holds(trefoil, switched, closure("3: 1 2"))


def test_single_crossing_complex_shape():
    d = closure("2: 1")
    c = build_khovanov_complex(d)
    assert c.dims == {(0, 2): 1, (0, 0): 2, (0, -2): 1, (1, 2): 1, (1, 0): 1}
    homology(c)  # raises where d^2 != 0


def test_unknot_calibration_both_signs():
    expected = {(0, -1): (1, ()), (0, 1): (1, ())}
    for text in ("2: 1", "2: -1"):
        t = khovanov_homology(closure(text))
        assert t.entries == expected


def test_trefoil_table_and_poincare():
    t = khovanov_homology(closure("2: 1 1 1"))
    assert t.entries == {
        (0, 1): (1, ()),
        (0, 3): (1, ()),
        (2, 5): (1, ()),
        (3, 7): (0, (2,)),
        (3, 9): (1, ()),
    }
    assert poincare_polynomial(t) == LaurentPoly.from_terms(
        ("t", "q"), {(0, 1): 1, (0, 3): 1, (2, 5): 1, (3, 9): 1}
    )


def test_euler_characteristic_equals_jones():
    rng = random.Random(3)
    for _ in range(10):
        d = braid_closure(random_word(rng, max_len=7))
        c = build_khovanov_complex(d, normalized=True)
        assert euler_characteristic(c) == jones_unnormalized(d)
        homology(c)  # raises where d^2 != 0


def test_unnormalized_euler_characteristic_equals_bracket():
    rng = random.Random(8)
    for _ in range(20):
        d = braid_closure(random_word(rng, max_len=10))
        c = build_khovanov_complex(d)
        assert euler_characteristic(c) == kauffman_bracket(d)


def test_chain_and_homology_euler_agree():
    for text in ("2: 1 1 1", "3: 1 -2 1 -2", "3: 1 2 1 2"):
        c = build_khovanov_complex(closure(text), normalized=True)
        assert euler_characteristic(c) == euler_characteristic(homology(c))


def test_every_link_table_spans_at_least_two_diagonals():
    rng = random.Random(21)
    for _ in range(8):
        d = braid_closure(random_word(rng, max_len=7))
        assert width_report(khovanov_homology(d)).width >= 2


def test_pd_engine_agrees_with_braid_engine():
    pd_trefoil = parse_pd(TREFOIL_PD)
    t_pd = khovanov_homology(pd_trefoil)
    # this PD code is the left-handed trefoil, the mirror of 2: 1 1 1
    t_braid = khovanov_homology(closure("2: -1 -1 -1"))
    assert t_pd == t_braid
    assert jones_unnormalized(pd_trefoil) == jones_unnormalized(closure("2: -1 -1 -1"))


def test_markov_invariance_small():
    base = parse_braid("2: 1 1 1")
    reference = khovanov_homology(braid_closure(base))
    for b in (conjugate(base, 1), stabilize(base, 1), stabilize(base, -1), parse_braid("3: 1 2 1 2")):
        assert khovanov_homology(braid_closure(b)) == reference


def test_positive_closure_vanishing_below_zero():
    rng = random.Random(5)
    for _ in range(6):
        d = braid_closure(random_word(rng, max_len=6, positive=True))
        t = khovanov_homology(d)
        assert all(i >= 0 for (i, _) in t.entries)


def test_width_reports():
    assert width_report(khovanov_homology(closure("2: 1 1 1"))).width == 2
    assert width_report(khovanov_homology(closure("2: 1 1 1"))).thin
    un = khovanov_homology(closure("2: 1"))
    w = width_report(un)
    assert w.width == 2 and w.diagonals == (-1, 1)
    with pytest.raises(ValueError):
        width_report(khovanov_homology(closure("2: 1")).restrict_i(5, 6))


def test_thin_knots_carry_only_z2_torsion():
    # Shumakovitch, "Torsion of the Khovanov homology" (math/0405474)
    knots = [b for b in corpus_diagrams(max_crossings=12) if b.is_knot()]
    thin = [t for t in (khovanov_homology(braid_closure(b)) for b in knots) if width_report(t).thin]
    factors = [f for t in thin for _, torsion in t.entries.values() for f in torsion]
    assert (len(knots), len(thin), len(factors)) == (15, 13, 14)
    assert set(factors) == {2}


def z2_ranks(t):
    """Ranks over Z/2 by universal coefficients: the free rank and the even
    torsion factors at (i, j), plus the even torsion factors at (i + 1, j)."""
    ranks = {}
    for (i, j), (rank, torsion) in t.entries.items():
        even = sum(f % 2 == 0 for f in torsion)
        ranks[i, j] = ranks.get((i, j), 0) + rank + even
        ranks[i - 1, j] = ranks.get((i - 1, j), 0) + even
    return ranks


def q_plus_q_inverse_divides(column):
    """Whether sum_j column[j] q^j is (q + q^-1) times a polynomial with
    nonnegative coefficients, read off from the lowest degree up."""
    column = {j: c for j, c in column.items() if c}
    while column:
        j = min(column)
        c = column.pop(j)  # the quotient's coefficient of q^(j+1)
        if c < 0:
            return False
        column[j + 2] = column.get(j + 2, 0) - c
        if not column[j + 2]:
            del column[j + 2]
    return True


def test_z2_homology_is_a_multiple_of_q_plus_q_inverse():
    # Shumakovitch, "Torsion of the Khovanov homology" (math/0405474):
    # Kh(L; Z/2) is the reduced Z/2 homology tensored with q + q^-1
    words = corpus_diagrams(max_crossings=12) + random_words(2006, 60, max_strands=4, max_crossings=9)
    with_torsion = 0
    for b in words:
        t = khovanov_homology(braid_closure(b))
        with_torsion += any(torsion for _, torsion in t.entries.values())
        columns = {}
        for (i, j), rank in z2_ranks(t).items():
            columns.setdefault(i, {})[j] = rank
        assert all(q_plus_q_inverse_divides(c) for c in columns.values()), b
    assert (len(words), with_torsion) == (94, 35)


def test_j_parity_matches_component_count():
    rng = random.Random(7)
    for _ in range(8):
        b = random_word(rng, max_len=6)
        t = khovanov_homology(braid_closure(b))
        parity = b.component_count() & 1
        assert all(j % 2 == parity for (_, j) in t.entries)


def test_torus_diagram_basics():
    assert torus_diagram(2, 3).n_crossings == 3
    assert khovanov_homology(torus_diagram(1, 5)).entries == {(0, -1): (1, ()), (0, 1): (1, ())}
    assert khovanov_homology(torus_diagram(3, 2)) == khovanov_homology(torus_diagram(2, 3))


def test_les_smallest_case():
    rep = les_check(closure("2: 1"), 0)
    assert rep.ok, rep.violations


def test_les_trefoil_last_crossing():
    d = closure("2: 1 1 1")
    rep = les_check(d, 2)
    assert rep.ok, rep.violations
    for crossing in (d.n_crossings, -1):
        with pytest.raises(ValueError, match=f"unknown crossing {crossing}"):
            les_check(d, crossing)


def test_les_check_runs_the_d_squared_check(monkeypatch):
    # Delta(1) = 1X alone keeps the degree but breaks d^2 = 0: the strand
    # pass that takes the three complexes' blocks over must still see it
    broken = CubeSpec(
        top=1,
        grading=(1, 1, 2),
        merge=lambda x, y: (x + y,) if x + y <= 1 else (),
        split=lambda x: ((1, 1),) if x else ((0, 1),),
    )
    monkeypatch.setattr(khovanov, "_KHOVANOV", broken)
    with pytest.raises(ValueError, match=r"d\^2 != 0 at blocks \[.+\]$"):
        les_check(torus_diagram(3, 4), 0)


def test_les_check_reports_a_bracket_that_does_not_add_up(monkeypatch):
    # the bracket of d is read first, then those of its two resolutions
    real, calls = khovanov.kauffman_bracket, []

    def doubled_first(d):
        calls.append(d)
        return real(d) + real(d) if len(calls) == 1 else real(d)

    monkeypatch.setattr(khovanov, "kauffman_bracket", doubled_first)
    rep = les_check(closure("2: 1"), 0)
    assert (rep.ok, rep.bracket_ok, rep.rank_ok, rep.cone_ok) == (False, False, True, True)
    assert rep.violations == ["bracket additivity failed"]


def test_les_check_reports_a_rank_above_the_bound(monkeypatch):
    # the homology of d is read first: with its resolutions' tables empty,
    # each free rank of d is above the bound
    real, calls = khovanov.strand_homology, []

    def resolutions_empty(*args):
        calls.append(args)
        return real(*args) if len(calls) == 1 else HomologyTable()

    monkeypatch.setattr(khovanov, "strand_homology", resolutions_empty)
    rep = les_check(closure("2: 1"), 0)
    assert (rep.ok, rep.bracket_ok, rep.rank_ok, rep.cone_ok) == (False, True, False, True)
    assert rep.violations == ["rank bound violated at (0,-2)", "rank bound violated at (0,0)"]


def test_les_random_pairs():
    rng = random.Random(11)
    for _ in range(6):
        d = braid_closure(random_word(rng, max_len=6))
        if d.n_crossings == 0:
            continue
        c = rng.randrange(d.n_crossings)
        rep = les_check(d, c)
        assert rep.ok, rep.violations


def masks_by_position(d):
    # block (i, j) lists the states of degree i by increasing mask, each
    # with comb(k, t) generators, t = (i + k - j) / 2 the number of X
    out = {}
    st = _states(d)
    for mask in sorted(range(1 << d.n_crossings), key=int.bit_count):
        i, k = mask.bit_count(), st.state(mask)[0]
        for t in range(k + 1):
            out.setdefault((i, i + k - 2 * t), []).extend([mask] * comb(k, t))
    return out


@pytest.mark.parametrize("text,nu", [("2: 1 1 1", 1), ("3: 1 -2 1 -2", 2), ("3: 1 2 1 2", 0)])
def test_cone_check_catches_one_flipped_cone_map_entry(text, nu):
    d = closure(text)
    complexes = [build_khovanov_complex(x) for x in (d, resolve_crossing(d, nu, 0), resolve_crossing(d, nu, 1))]
    assert _cone_structure_ok(d, complexes, nu, [])
    where = masks_by_position(d)
    flipped = 0
    for (i, j), blk in complexes[0].diff.items():
        for r, row in blk.data.items():
            for c in row:
                if (where[(i, j)][c] >> nu) & 1 or not (where[(i + 1, j)][r] >> nu) & 1:
                    continue  # not an entry of the cone map
                row[c] = -row[c]
                violations = []
                assert not _cone_structure_ok(d, complexes, nu, violations), (i, j, r, c)
                assert violations == [f"block ({i}, {j}) is not the cone at crossing {nu}"]
                row[c] = -row[c]
                flipped += 1
    assert flipped


def mutants(c, rng):
    """Flip, double and drop one random entry of complex c, then add one
    where it has none; c is changed in place for each yield and restored
    after it."""
    found = sorted((key, rc) for key, blk in c.diff.items() for rc in blk.entries)
    changes = []
    if found:
        key, rc = rng.choice(found)
        v = c.diff[key].entries[rc]
        changes += [(key, rc, -v), (key, rc, 2 * v), (key, rc, 0)]
    keys = sorted(k for k in c.dims if (k[0] + 1, k[1]) in c.dims)
    if keys:
        key = rng.choice(keys)
        taken = c.diff[key].entries if key in c.diff else {}
        empty = [(r, col) for r in range(c.dims[(key[0] + 1, key[1])]) for col in range(c.dims[key])
                 if (r, col) not in taken]
        if empty:
            changes.append((key, rng.choice(empty), 1))
    for key, rc, v in changes:
        old = c.diff.get(key)
        entries = old.entries if old else {}
        entries[rc] = v
        c.diff[key] = SparseIntMatrix(c.dims[(key[0] + 1, key[1])], c.dims[key], entries)
        yield key, rc, v
        if old:
            c.diff[key] = old
        else:
            del c.diff[key]


def test_cone_check_catches_every_one_entry_change():
    # one entry of cx, c0 or c1 flipped, doubled, dropped or added, at
    # every crossing of the corpus diagrams up to 6 crossings
    rng = random.Random(29)
    caught = 0
    for b in corpus_diagrams(max_crossings=6):
        d = braid_closure(b)
        for nu in range(d.n_crossings):
            complexes = [build_khovanov_complex(x) for x in (d, resolve_crossing(d, nu, 0), resolve_crossing(d, nu, 1))]
            assert _cone_structure_ok(d, complexes, nu, [])
            for which, c in enumerate(complexes):
                for change in mutants(c, rng):
                    assert not _cone_structure_ok(d, complexes, nu, []), (b.text(), nu, which, change)
                    caught += 1
    assert caught > 1000


# Under the labels fault below, the engine's edge tables raise KeyError on
# the edges into states of two circles; these diagrams have such states
# only at degree 0, so their complexes build
LABELS_FAULT_CASES = ("2: 1", "4: 1", "4: 2", "4: -3", "4: -3 3", "4: 3 -3", "4: -3 -3", "4: 2 -2 -2")


def test_cone_check_catches_a_dropped_labeling(monkeypatch):
    # the check enumerates labelings itself, so a labeling the engine
    # drops (1X of two circles) shows in every complex built from it
    labels = CubeSpec.labels

    def dropped(self, k, t):
        out = labels(self, k, t)
        return [lab for lab in out if lab != (1, 0)] if (k, t) == (2, 1) else out

    khovanov._KHOVANOV._labelings.clear()
    khovanov._KHOVANOV._edges.clear()
    monkeypatch.setattr(CubeSpec, "labels", dropped)
    try:
        pairs = 0
        for text in LABELS_FAULT_CASES:
            d = closure(text)
            for nu in range(d.n_crossings):
                complexes = [build_khovanov_complex(x) for x in (d, resolve_crossing(d, nu, 0), resolve_crossing(d, nu, 1))]
                assert not _cone_structure_ok(d, complexes, nu, []), (text, nu)
                pairs += 1
        assert pairs == 13
    finally:
        monkeypatch.undo()
        khovanov._KHOVANOV._labelings.clear()
        khovanov._KHOVANOV._edges.clear()


def test_les_check_after_homology_of_its_complexes():
    # les_check's cone check reads cx, c0 and c1 before the strand pass
    # takes their blocks over
    for b in corpus_diagrams(max_crossings=6):
        d = braid_closure(b)
        for crossing in range(d.n_crossings):
            rep = les_check(d, crossing)
            assert rep.ok, (b.text(), crossing, rep.violations)


def test_mirror_duality_of_integral_homology():
    # Kh(mirror D): free (i, j) -> (-i, -j), torsion (i, j) -> (1 - i, -j)
    torsion = 0
    diagrams = corpus_diagrams(max_crossings=8)
    for b in diagrams:
        d = braid_closure(b)
        want = {}
        for (i, j), (free, tors) in khovanov_homology(d).entries.items():
            if free:
                want[(-i, -j)] = (free, want.get((-i, -j), (0, ()))[1])
            if tors:
                want[(1 - i, -j)] = (want.get((1 - i, -j), (0, ()))[0], tors)
        torsion += any(tors for _, tors in want.values())
        assert khovanov_homology(mirror(d)).entries == want, b.text()
    assert len(diagrams) >= 30 and torsion >= 20


def table_sha256(p, q, irange=None):
    t = khovanov_homology(torus_diagram(p, q), irange=irange)
    return hashlib.sha256((t.to_json() + t.pretty()).encode()).hexdigest()


@pytest.mark.parametrize(
    "p,q,digest",
    [
        pytest.param(3, 6, "657a276840d2f1af720f04765a333d7df269c8d3f5fa7bfc7c57c3f6830de6a4", id="T(3,6)"),
        pytest.param(4, 4, "8ff63e7259e596a602fde2a26b8c022a2be46c1fae9fa9dce464bbc2dfcff5cc", id="T(4,4)"),
        pytest.param(3, 7, "3909488254349cde5b002e17f5ee45e1008c9086deb263377f4b4f9d78f83af8", id="T(3,7)",
                     marks=pytest.mark.slow),
        # taken from the cube path, which took 11 s, 87 s and 104 s for them
        # (2 cores, Python 3.11); the scan takes 0.04-0.3 s
        pytest.param(3, 8, "3bbeca6e849133d3e414b7796f17fc74881d628ea296465833dc135165d91443", id="T(3,8)"),
        pytest.param(3, 9, "b36fa55648e532423cf486a68741a38878c44761b6a74c1b1c4daf215ae8314a", id="T(3,9)"),
        pytest.param(4, 6, "4e523aa011d168e436ddd0ccfa4690448a178e54c300a4e7e6a7ea1a40351a09", id="T(4,6)"),
    ],
)
def test_torus_table_hash(p, q, digest):
    # sha256 of to_json() + pretty() of the whole normalized table
    assert table_sha256(p, q) == digest


def test_torus_4_7_low_degrees_equal_the_cube():
    # T(4,7), 21 crossings: the cube path's table for i in 0..6 (61 s and
    # 0.9 GB, 2 cores) against the same cut of the scan's whole table
    assert table_sha256(4, 7, (0, 6)) == "7f5f3abab4e582204ca033f2e95477ba9a458ada1692d3f9f1d0f38936508eaf"


@pytest.mark.slow
def test_torus_3_8_table_and_peak_memory():
    # the cube path, which forks a strand worker: a fresh process, so that
    # ru_maxrss is this computation's own peak; the strand worker's peak is
    # that of the process's children, and the two peaks together bound what
    # was resident at once
    code = (
        "import hashlib, resource\n"
        "from linkhom.homcore import cube_homology\n"
        "from linkhom.khovanov import _KHOVANOV, _states, torus_diagram\n"
        "t = cube_homology(_KHOVANOV, _states(torus_diagram(3, 8)), shift=(0, 16))\n"
        "print(hashlib.sha256((t.to_json() + t.pretty()).encode()).hexdigest())\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(linkhom.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    digest, own, children = out.split()
    assert digest.startswith("3bbeca6e849133d3")
    unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is in bytes there, KiB on Linux
    assert (int(own) + int(children)) * unit <= 400 * 2**20


def windows(lo, hi):
    # windows on the span lo..hi: cut inside it, touching one end or both,
    # and wholly outside it
    mid = (lo + hi) // 2
    cases = [(lo + 1, hi - 1), (mid, mid), (mid, mid + 1), (lo, lo), (hi, hi), (lo - 2, lo + 1),
             (hi - 1, hi + 2), (lo, hi), (lo - 3, lo - 1), (hi + 1, hi + 4)]
    return [(a, b) for a, b in cases if a <= b]


def test_irange_matches_full_computation():
    # the i-shift -n_minus is nonzero on the corpus diagrams with negative
    # crossings; irange is in the table's i, normalized or not
    diagrams = [braid_closure(b) for b in corpus_diagrams(max_crossings=8)]
    assert sum(1 for d in diagrams if d.n_minus and d.n_plus) >= 10
    cut = 0
    for d in diagrams:
        for homology, s in ((khovanov_homology, -d.n_minus), (unnormalized_homology, 0)):
            full = homology(d)
            for irange in windows(s, s + d.n_crossings):
                part = homology(d, irange=irange)
                assert part == full.restrict_i(*irange), (d, homology.__name__, irange)
                cut += not part.is_empty() and part != full
    assert cut


def test_jwindow_matches_full_computation():
    diagrams = [braid_closure(b) for b in corpus_diagrams(max_crossings=8)]
    cut = 0
    for d in diagrams:
        full = khovanov_homology(d)
        js = [j for _, j in full.entries]
        for jwindow in windows(min(js), max(js)):
            part = khovanov_homology(d, jwindow=jwindow)
            assert part.entries == {k: v for k, v in full.entries.items() if jwindow[0] <= k[1] <= jwindow[1]}
            cut += not part.is_empty() and part != full
        # both windows at once, each cutting inside
        i_mid, j_mid = -d.n_minus + d.n_crossings // 2, (min(js) + max(js)) // 2
        both = khovanov_homology(d, jwindow=(j_mid - 2, j_mid + 2), irange=(i_mid - 1, i_mid + 1))
        assert both.entries == {
            (i, j): v for (i, j), v in full.entries.items() if abs(i - i_mid) <= 1 and abs(j - j_mid) <= 2
        }, d
    assert cut


def test_stability_small():
    rep = stability_check(2, [3, 4])
    assert rep.ok, rep.mismatches
    with pytest.raises(InputError, match=r"repeated twist value in \[3, 3\]"):
        stability_check(2, [3, 3])


def test_stability_check_computes_each_diagram_once(monkeypatch):
    # T(3,3) is read by a twist comparison and by the strand reduction
    calls = []
    real = khovanov.unnormalized_homology

    def counted(d, irange=None):
        calls.append((d.crossings, d.loops))
        return real(d, irange)

    monkeypatch.setattr(khovanov, "unnormalized_homology", counted)
    rep = stability_check(3, [4, 5, 6], i_max=4)
    assert rep.ok, rep.mismatches
    assert len(calls) == len(set(calls)) == 5


def test_differences_below_sees_torsion():
    a = HomologyTable({(0, 1): (1, ()), (2, 5): (0, (2,)), (3, 7): (1, (2,))})
    b = HomologyTable({(0, 1): (1, ()), (3, 7): (1, (4,))})
    assert poincare_polynomial(a) == poincare_polynomial(b)  # the free ranks agree
    assert _differences_below(a, b, 4) == ["(2,5) (0, (2,)) != (0, ())", "(3,7) (1, (2,)) != (1, (4,))"]
    assert _differences_below(a, b, 3) == ["(2,5) (0, (2,)) != (0, ())"]
    assert _differences_below(a, b, 2) == []
    moved = HomologyTable({(i, j + 2): g for (i, j), g in a.entries.items()})
    assert _differences_below(a, moved, 4, 2) == [] and _differences_below(a, moved, 4)


def test_stable_poincare_m2():
    polys, agreements = stable_poincare(2, [3, 4, 5])
    assert all(ok for (_, _, _, ok) in agreements)
    # the unnormalized table is the normalized one shifted by -(m-1)n in j
    assert polys == [(n, poincare_polynomial(khovanov_homology(torus_diagram(2, n))).shift((0, -n))) for n in (3, 4, 5)]
    with pytest.raises(ValueError):
        stable_poincare(1, [2, 3])
