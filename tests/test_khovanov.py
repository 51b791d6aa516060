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
from linkhom.corpus import corpus_diagrams
from linkhom.homcore import euler_characteristic, graded_homology, poincare_polynomial
from linkhom.khovanov import (
    _cone_structure_ok,
    _states,
    build_khovanov_complex,
    jones_normalized,
    jones_skein_check,
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
    braid_closure,
    conjugate,
    mirror,
    parse_braid,
    parse_pd,
    resolve_crossing,
    stabilize,
)
from linkhom.polyalg import LaurentPoly

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
        assert kauffman_bracket(Diagram(tuple(shuffled), d.loops, d.provenance)) == want, d


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
    trefoil = closure("2: 1 1 1")
    switched = closure("2: -1 1 1")
    hopf = closure("2: 1 1")
    assert jones_skein_check(trefoil, switched, hopf)
    assert jones_skein_check(closure("2: 1"), closure("2: -1"), braid_closure(BraidWord(2, ())))
    with pytest.raises(ValueError):
        jones_skein_check(trefoil, trefoil, hopf)
    # corrupted triple: counts are consistent but L0 is the wrong link
    assert not jones_skein_check(trefoil, switched, closure("3: 1 2"))


def test_single_crossing_complex_shape():
    d = closure("2: 1")
    c = build_khovanov_complex(d)
    assert c.dim(0, 2) == 1 and c.dim(0, 0) == 2 and c.dim(0, -2) == 1
    assert c.dim(1, 2) == 1 and c.dim(1, 0) == 1
    assert c.verify_d_squared() == []


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
        assert c.verify_d_squared() == []


def test_unnormalized_euler_characteristic_equals_bracket():
    rng = random.Random(8)
    for _ in range(20):
        d = braid_closure(random_word(rng, max_len=10))
        c = build_khovanov_complex(d)
        assert euler_characteristic(c) == kauffman_bracket(d)


def test_chain_and_homology_euler_agree():
    for text in ("2: 1 1 1", "3: 1 -2 1 -2", "3: 1 2 1 2"):
        c = build_khovanov_complex(closure(text), normalized=True)
        assert euler_characteristic(c) == euler_characteristic(graded_homology(c))


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
    rep = les_check(closure("2: 1 1 1"), 2)
    assert rep.ok, rep.violations


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
                assert violations == [f"cone map differs at ({i},{j})"]
                row[c] = -row[c]
                flipped += 1
    assert flipped


def test_les_check_after_homology_of_its_complexes():
    # les_check runs graded_homology on cx, c0 and c1 before the cone check
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


def table_sha256(p, q):
    t = khovanov_homology(torus_diagram(p, q))
    return hashlib.sha256((t.to_json() + t.pretty()).encode()).hexdigest()


@pytest.mark.parametrize(
    "p,q,digest",
    [
        pytest.param(3, 6, "657a276840d2f1af720f04765a333d7df269c8d3f5fa7bfc7c57c3f6830de6a4", id="T(3,6)"),
        pytest.param(4, 4, "8ff63e7259e596a602fde2a26b8c022a2be46c1fae9fa9dce464bbc2dfcff5cc", id="T(4,4)"),
        pytest.param(3, 7, "3909488254349cde5b002e17f5ee45e1008c9086deb263377f4b4f9d78f83af8", id="T(3,7)",
                     marks=pytest.mark.slow),
    ],
)
def test_torus_table_hash(p, q, digest):
    # sha256 of to_json() + pretty() of the whole normalized table
    assert table_sha256(p, q) == digest


@pytest.mark.slow
def test_torus_3_8_table_and_peak_memory():
    # a fresh process, so that ru_maxrss is this computation's own peak;
    # the strand worker's peak is that of the process's children, and the
    # two peaks together bound what was resident at once
    code = (
        "import hashlib, resource\n"
        "from linkhom.khovanov import khovanov_homology, torus_diagram\n"
        "t = khovanov_homology(torus_diagram(3, 8))\n"
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


def test_irange_matches_full_computation():
    d = torus_diagram(3, 3)
    full = unnormalized_homology(d)
    part = unnormalized_homology(d, irange=(0, 2))
    assert part == full.restrict_i(0, 2)


def test_jwindow_matches_full_computation():
    d = closure("2: 1 1 1")
    full = khovanov_homology(d)
    part = khovanov_homology(d, jwindow=(5, 9))
    assert part.entries == {k: v for k, v in full.entries.items() if 5 <= k[1] <= 9}


def test_stability_small():
    rep = stability_check(2, [3, 4])
    assert rep.ok, rep.mismatches


def test_stable_poincare_m2():
    polys, agreements = stable_poincare(2, [3, 4, 5])
    assert all(ok for (_, _, _, ok) in agreements)
    with pytest.raises(ValueError):
        stable_poincare(1, [2, 3])
