"""Diagram combinatorics: parsing, closures, smoothings, cube edges."""

import itertools
import random

import pytest

from linkhom.linkdiag import (
    BraidWord,
    Diagram,
    braid_closure,
    conjugate,
    diagram_from_json,
    diagram_to_json,
    mirror,
    parse_braid,
    parse_pd,
    resolve_crossing,
    stabilize,
)
from linkhom.khovanov import _states, jones_unnormalized

TREFOIL_PD = """
X 1 4 2 5
X 3 6 4 1
X 5 2 6 3
"""


def circles(d: Diagram, eps) -> list[tuple[int, ...]]:
    """The circles of a resolution as label tuples, read off the cube engine."""
    count, part, _ = _states(d).state(sum(bit << pos for pos, bit in enumerate(eps)))
    labels = sorted(set(d.arc_labels()) | set(d.loops))
    return [tuple(x for x, p in zip(labels, part) if p == c) for c in range(count)]


def oracle_circles(d: Diagram, eps) -> list[tuple[int, ...]]:
    """The same circles by a separate union-find over arc labels."""
    parent = {a: a for a in d.arc_labels()}

    def find(a: int) -> int:
        while parent[a] != a:
            a = parent[a]
        return a

    for x, bit in zip(d.crossings, eps):
        for a, b in x.joins(bit):
            parent[find(a)] = find(b)
    groups = [tuple(a for a in parent if find(a) == r) for r in parent if find(r) == r]
    return sorted(groups + [(lp,) for lp in d.loops])


def test_parse_braid_basic():
    b = parse_braid("2: 1 1 1")
    assert b.strands == 2 and b.letters == (1, 1, 1)
    b = parse_braid("3: 1 -2 1")
    assert b.strands == 3 and b.letters == (1, -2, 1)


def test_parse_braid_out_of_range():
    with pytest.raises(ValueError):
        parse_braid("2: 2")
    with pytest.raises(ValueError):
        parse_braid("0:")
    with pytest.raises(ValueError):
        parse_braid("just text")


def test_trivial_closure_is_unknot():
    d = braid_closure(parse_braid("1:"))
    assert d.n_crossings == 0
    assert len(d.loops) == 1
    assert len(circles(d, ())) == 1


def test_closure_sign_bookkeeping():
    d = braid_closure(parse_braid("2: 1 1"))
    assert d.n_plus == 2 and d.n_minus == 0
    d = braid_closure(parse_braid("2: 1 -1"))
    assert d.n_plus == 1 and d.n_minus == 1


def test_single_crossing_resolutions():
    d = braid_closure(parse_braid("2: 1"))
    assert len(circles(d, (0,))) == 2
    assert len(circles(d, (1,))) == 1


def test_resolve_crossing_rejects_bad_input():
    d = braid_closure(parse_braid("2: 1"))
    for crossing, bit in ((1, 0), (-1, 0), (0, 2)):
        with pytest.raises(ValueError):
            resolve_crossing(d, crossing, bit)


def test_hopf_edge_events():
    # the edge (0,0) -> (1,0) merges two circles into one, the edge
    # (1,0) -> (1,1) splits one circle into two
    d = braid_closure(parse_braid("2: 1 1"))
    assert (len(circles(d, (0, 0))), len(circles(d, (1, 0)))) == (2, 1)
    assert (len(circles(d, (1, 0))), len(circles(d, (1, 1)))) == (1, 2)


def test_adjacent_states_differ_by_one_circle():
    rng = random.Random(1)
    for _ in range(20):
        strands = rng.randint(2, 4)
        word = tuple(rng.choice([1, -1]) * rng.randint(1, strands - 1) for _ in range(rng.randint(1, 7)))
        d = braid_closure(BraidWord(strands, word))
        n = d.n_crossings
        eps = tuple(rng.randint(0, 1) for _ in range(n))
        assert circles(d, eps) == oracle_circles(d, eps)
        for pos in range(n):
            if eps[pos] == 0:
                tgt = eps[:pos] + (1,) + eps[pos + 1:]
                assert abs(len(circles(d, eps)) - len(circles(d, tgt))) == 1


def test_resolve_crossing_deletes_a_letter():
    d = braid_closure(parse_braid("2: 1 1 1"))
    d0 = resolve_crossing(d, 2, 0)
    ref = braid_closure(parse_braid("2: 1 1"))
    # same circle counts on every state
    for eps in itertools.product((0, 1), repeat=2):
        assert len(circles(d0, eps)) == len(circles(ref, eps))


def test_resolve_crossing_creates_loop():
    d = braid_closure(parse_braid("2: 1"))
    out = resolve_crossing(d, 0, 1)
    assert out.n_crossings == 0
    assert len(out.loops) == 1
    with pytest.raises(ValueError):
        resolve_crossing(braid_closure(parse_braid("1:")), 0, 0)


def test_mirror_flips_signs():
    d = braid_closure(parse_braid("2: 1 1 1"))
    m = mirror(d)
    assert m.n_plus == 0 and m.n_minus == 3


def test_mirror_is_involution():
    for text in ("2: 1 1 1", "3: 1 -2 1 -2", "4: 1 2 3 -1"):
        d = braid_closure(parse_braid(text))
        assert mirror(mirror(d)) == d


def test_mirror_swaps_smoothings():
    d = braid_closure(parse_braid("2: 1"))
    m = mirror(d)
    assert len(circles(m, (0,))) == len(circles(d, (1,)))
    assert len(circles(m, (1,))) == len(circles(d, (0,)))


def test_conjugate_and_stabilize():
    b = parse_braid("2: 1 1 1")
    assert conjugate(b, 1).text() == "2: -1 1 1 1 1"
    assert stabilize(b, 1).text() == "3: 1 1 1 2"
    assert stabilize(b, -1).text() == "3: 1 1 1 -2"
    with pytest.raises(ValueError):
        conjugate(b, 2)


def test_perfect_matching_of_arc_ends():
    rng = random.Random(9)
    for _ in range(15):
        strands = rng.randint(2, 5)
        word = tuple(rng.choice([1, -1]) * rng.randint(1, strands - 1) for _ in range(rng.randint(1, 8)))
        d = braid_closure(BraidWord(strands, word))
        counts = {}
        for x in d.crossings:
            for a in x.arcs:
                counts[a] = counts.get(a, 0) + 1
        assert all(v == 2 for v in counts.values())
        # every state's circles partition the arcs
        eps = tuple(rng.randint(0, 1) for _ in range(d.n_crossings))
        st = circles(d, eps)
        seen = sorted(a for c in st for a in c)
        assert seen == sorted(set(d.arc_labels()) | set(d.loops))
        assert st == oracle_circles(d, eps)


def test_braid_closure_crossing_order_groups_by_type():
    # crossings are ordered by generator type first, then occurrence;
    # for "3: 2 1" the generator-1 crossing must come first even though
    # the generator-2 letter appears earlier in the word
    d = braid_closure(parse_braid("3: 2 1"))
    assert d.crossings[0].arcs == (3, 1, 0, 0)
    assert d.crossings[1].arcs == (2, 2, 3, 1)
    d = braid_closure(parse_braid("3: 2 1 2 1"))
    assert d.n_crossings == 4
    # serialization round-trips bit-exactly
    assert diagram_from_json(diagram_to_json(d)) == d


def test_parse_pd_trefoil():
    d = parse_pd(TREFOIL_PD)
    assert d.n_crossings == 3
    assert d.n_plus + d.n_minus == 3
    assert d.n_minus == 3  # this PD code is the left-handed trefoil


def test_parse_pd_positive_trefoil():
    # mirror PD: swap b and d slots
    text = "X 1 5 2 4\nX 3 1 4 6\nX 5 3 6 2"
    d = parse_pd(text)
    assert d.n_plus == 3


def test_parse_pd_validation():
    with pytest.raises(ValueError):
        parse_pd("X 1 2 3 4")  # labels used once
    with pytest.raises(ValueError):
        parse_pd("")
    with pytest.raises(ValueError):
        parse_pd("Y 1 2 2 1")


@pytest.mark.parametrize(
    "text, signs", [("X 3 2 4 1\nX 4 2 3 1", (1, -1)), ("X 3 1 4 2\nX 4 1 3 2", (-1, 1))], ids=["pd", "mirror"]
)
def test_parse_pd_all_over_component(text, signs):
    # a two-component unlink whose component {1, 2} is over at both
    # crossings: its orientation must carry from one crossing to the other
    d = parse_pd(text)
    assert tuple(x.sign for x in d.crossings) == signs
    assert jones_unnormalized(d) == jones_unnormalized(braid_closure(parse_braid("2: 1 -1")))


def test_hopf_pd_circle_counts():
    # positive Hopf link in PD notation
    text = "X 1 3 2 4\nX 3 1 4 2"
    d = parse_pd(text)
    assert d.n_crossings == 2
    counts = sorted(len(circles(d, eps)) for eps in itertools.product((0, 1), repeat=2))
    assert counts == [1, 1, 2, 2]


def test_appendix_circle_component_relation():
    # cycle graph C_k against the closure of the 2-strand braid on k letters:
    # k(eps) = (N - |eps| + c(eps)) / 2 with N = k, where graph components
    # come from union-find over chosen edges of the k-cycle.
    for k in range(2, 6):
        d = braid_closure(BraidWord(2, tuple([-1] * k)))
        for eps in itertools.product((0, 1), repeat=k):
            c = len(circles(d, eps))
            # component count of the spanning subgraph of C_k with edges where eps=1
            chosen = sum(eps)
            if chosen == k:
                k_comp = 1
            else:
                k_comp = k - chosen
            assert 2 * k_comp == k - sum(eps) + c


def test_diagram_immutable_and_validated():
    from linkhom.linkdiag import Crossing

    # loops may not collide with arc labels
    with pytest.raises(ValueError):
        Diagram((Crossing(1, (0, 1, 0, 1)),), (0,), provenance="pd-code")
    # every arc must fill exactly two slots
    with pytest.raises(ValueError):
        Diagram((Crossing(1, (0, 1, 2, 3)),), (), provenance="pd-code")
    d = braid_closure(parse_braid("2: 1"))
    with pytest.raises(AttributeError):
        d.loops = ()
