"""Acceptance suite: every release criterion, one test each, exact values.

Each test prints one PASS line (visible with pytest -s or -v) and asserts
both the mathematical content and the runtime budget.  The slow tier
(torus diagrams beyond 12 crossings) is opt-in via `pytest -m slow`.
"""

import random
import time

import pytest

from linkhom import corpus
from linkhom.graphhom import (
    Multigraph,
    Pn_homology,
    Qn_homology,
    cycle_graph,
    polygon_reference,
    specialize_Pn,
    specialize_Qn,
)
from linkhom.homcore import euler_characteristic
from linkhom.khovanov import khovanov_homology, stability_check
from linkhom.linkdiag import braid_closure, parse_braid
from linkhom.verify import (
    suite_appendix_a,
    suite_appendix_b,
    suite_homfly_axioms,
    suite_jones_euler,
    suite_kauffman,
    suite_khovanov_basic,
    suite_stability,
    suite_theorem18,
    suite_theorem20,
    suite_theorem23,
    suite_theorem24,
    suite_theorem8,
)


def report(number: int, started: float, limit: float, description: str):
    elapsed = time.time() - started
    print(f"ACCEPTANCE {number} PASS: {description} [{elapsed:.1f}s < {limit:.0f}s]")
    assert elapsed < limit, f"runtime budget exceeded: {elapsed:.1f}s >= {limit}s"


def assert_ok(rep):
    assert rep.ok, [(c.name, c.detail) for c in rep.checks if not c.ok]


def test_acceptance_01_kauffman_jones_base():
    t0 = time.time()
    assert_ok(suite_kauffman())
    report(1, t0, 5, "bracket axioms and unknot values")


def test_acceptance_02_euler_equals_jones():
    t0 = time.time()
    count = len(corpus.corpus_diagrams(max_crossings=12))
    assert count >= 30
    assert_ok(suite_jones_euler())
    report(2, t0, 120, f"graded Euler characteristic equals Jones on {count} diagrams")


def test_acceptance_03_markov_invariance():
    t0 = time.time()
    for name, family in corpus.MARKOV_FAMILIES.items():
        assert len(family) >= 5
        tables = [khovanov_homology(braid_closure(parse_braid(t))) for t in family]
        for t in tables[1:]:
            assert t == tables[0], name
    report(3, t0, 60, "identical tables across Markov-related presentations")


def test_acceptance_04_theorem24_low_degrees():
    t0 = time.time()
    assert_ok(suite_theorem24(3, 4))
    report(4, t0, 10, "exact low-degree table of T(3,4), torsion included")


def test_acceptance_04_theorem24_beyond_3_4():
    t0 = time.time()
    for p, q in ((3, 5), (3, 7), (4, 5), (4, 6)):
        assert_ok(suite_theorem24(p, q))
    report(4, t0, 3, "exact low-degree tables of T(3,5), T(3,7), T(4,5) and T(4,6)")


def test_acceptance_05_theorem20_and_widths():
    t0 = time.time()
    assert_ok(suite_theorem20())
    report(5, t0, 60, "fourth-homology ranks and widths of torus knots")


def test_acceptance_06_first_homology_of_positive_braids():
    t0 = time.time()
    assert_ok(suite_theorem18())
    report(6, t0, 180, "trivial first homology for positive braid knots")


def test_acceptance_07_twist_stability():
    t0 = time.time()
    rep = suite_theorem23()
    assert_ok(rep)
    names = [c.name for c in rep.checks]
    # (6.6) instance (p,q)=(3,5) at i <= 4 is part of the one-fewer-twist checks
    assert any(n.startswith("one fewer twist: (3,5) vs (3,4) ") for n in names)
    # (6.7) window across (3,4), (3,5), (3,6) at i <= 4
    windows = [n.split(" below")[0] for n in names if n.startswith("stable window:")]
    assert windows == ["stable window: (3,4) vs (3,5)", "stable window: (3,5) vs (3,6)"]
    # (6.8) strand reduction at i < 3
    assert "strand reduction: (3,3) vs (2,3) shifted, below i=3" in names
    report(7, t0, 300, "twist stability of unnormalized torus homology")


@pytest.mark.slow
def test_acceptance_07_twist_stability_slow_tier():
    t0 = time.time()
    out = stability_check(4, [5], i_max=5)
    assert out.ok, out.mismatches
    report(7, t0, 900, "slow tier: (4,4) and (4,5) twist stability")


def test_acceptance_08_stable_series_agreement():
    t0 = time.time()
    rep = suite_stability()
    assert_ok(rep)
    assert [c.name for c in rep.checks] == [
        "normalized series m=2: n=3 vs n=4 agree below t^2",
        "normalized series m=2: n=4 vs n=5 agree below t^3",
        "normalized series m=2: n=5 vs n=6 agree below t^4",
        "normalized series m=3: n=4 vs n=5 agree below t^4",
    ]
    report(8, t0, 300, "normalized series stabilize in the stated windows")


def test_acceptance_09_les_random_pairs():
    t0 = time.time()
    # the suite's own draws: 50 words from seed 2024, one crossing each
    words = corpus.random_words(2024, 50, max_strands=4, max_crossings=10)
    checked = sum(1 for b in words if braid_closure(b).n_crossings)
    assert checked >= 45
    assert_ok(suite_khovanov_basic())
    report(9, t0, 180, f"bracket, rank bound, and cone structure on {checked} pairs")


def test_acceptance_10_graph_polynomials():
    t0 = time.time()
    assert_ok(suite_theorem8())
    report(10, t0, 60, "graph polynomials against deletion-contraction oracles")


def test_acceptance_11_polygon_homology():
    t0 = time.time()
    for (k, n) in ((3, 1), (3, 2), (4, 1), (4, 2), (5, 1)):
        computed = Pn_homology(cycle_graph(k), n)
        assert computed == polygon_reference(k, n), (k, n)
        assert euler_characteristic(computed) == specialize_Pn(cycle_graph(k), n)
    report(11, t0, 120, "polygon homology equals the closed-form tables with torsion")


def test_acceptance_12_per_degree_euler():
    t0 = time.time()
    rng = random.Random(4242)
    for _ in range(10):
        nv = rng.randint(1, 4)
        m = rng.randint(0, 6)
        g = Multigraph(nv, tuple((rng.randint(1, nv), rng.randint(1, nv)) for _ in range(m)))
        window = (-4, max(4, g.n_edges + g.n_vertices))
        assert window[1] - window[0] + 1 >= 8
        for n in (2, 1):
            assert euler_characteristic(Qn_homology(g, n, window)) == specialize_Qn(g, n, window)
    report(12, t0, 180, "per-degree Euler characteristics match the series coefficients")


def test_acceptance_13_homfly_axioms():
    t0 = time.time()
    assert_ok(suite_homfly_axioms())
    assert_ok(suite_appendix_b())
    report(13, t0, 120, "trace axioms, wide-edge relations, fixed-model identities")


def test_acceptance_14_cross_theory():
    t0 = time.time()
    rep = suite_appendix_a()
    assert_ok(rep)
    orientation = {c.name: c.detail for c in rep.checks}["orientation fixed on the trefoil"]
    report(14, t0, 120, f"two-variable specialization matches Jones (orientation: {orientation})")
