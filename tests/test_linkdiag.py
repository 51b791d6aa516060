"""Diagram combinatorics: parsing, closures, smoothings, cube edges."""

import hashlib
import itertools
import json
import random
import re

import pytest

from linkhom.linkdiag import (
    BraidWord,
    Crossing,
    Diagram,
    InputError,
    braid_closure,
    conjugate,
    markov_reduce,
    mirror,
    parse_braid,
    parse_pd,
    resolve_crossing,
    stabilize,
)
from linkhom import homcore, khovanov
from linkhom.homcore import HomologyTable
from linkhom.corpus import corpus_diagrams, random_words
from linkhom.graphhom import (
    Multigraph,
    Pn_homology,
    Qn_homology,
    cycle_graph,
    enhanced_homology,
    parse_graph,
    polygon_reference,
    specialize_Pn,
    specialize_Qn,
)
from linkhom.homflypt import HomflyValue, _normalize_G, homfly_F, homfly_G, specialize_Gn, wide_edge_expand
from linkhom.khovanov import (
    _states,
    jones_unnormalized,
    khovanov_homology,
    stability_check,
    stable_poincare,
    torus_diagram,
    unnormalized_homology,
    width_report,
)
from linkhom.polyalg import LaurentPoly
from linkhom.verify import apply_orientation, run_suite, suite_theorem24

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


@pytest.mark.parametrize("token", ["1_0", "\u0661", "\uff11", "\u00b9", "1.0", "+", "--1"],
                         ids=["underscore", "arabic-indic", "fullwidth", "superscript", "point", "sign", "two-signs"])
def test_numbers_are_ascii_decimal_only(token):
    # int() reads the first three (1_0 as 10); no reader of input may
    readers = [
        lambda: parse_braid(f"2: 1 {token}"),
        lambda: parse_braid(f"{token}: 1"),
        lambda: parse_pd(f"X 1 2 2 {token}"),
        lambda: parse_graph(f"v 2\ne 1 {token}"),
        lambda: parse_graph(f"v {token}\ne 1 1"),
        lambda: wide_edge_expand(2, [f"E{token}"]),
    ]
    for read in readers:
        with pytest.raises(InputError, match="malformed number"):
            read()
    assert parse_braid("+3: +1 -2 001") == BraidWord(3, (1, -2, 1))


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


def reduced(text: str) -> str:
    return markov_reduce(parse_braid(text)).text()


def test_markov_reduce_cancels_across_commuting_letters():
    assert reduced("4: 1 3 -1 2 2 3 1 1 2") == "4: 3 2 2 3 1 1 2"
    assert reduced("3: 1 1 2 -1 1 2 2") == "3: 1 1 2 2 2"


def test_markov_reduce_cancels_across_the_end_of_the_word():
    # the last letter and the first meet around the closure (a conjugation),
    # in the second with sigma_3, which commutes with sigma_1, between them
    assert reduced("3: 1 2 2 1 1 2 2 -1") == "3: 2 2 1 1 2 2"
    assert reduced("4: 3 -1 2 2 1 1 3 2 2 1 1") == "4: 3 2 2 1 1 3 2 2 1"


def test_markov_reduce_drops_the_top_strand():
    assert reduced("3: 1 1 1 2") == "2: 1 1 1"
    assert reduced("3: 1 1 -2 1") == "2: 1 1 1"


def test_markov_reduce_drops_the_bottom_strand():
    assert reduced("3: 1 2 2 2") == "2: 1 1 1"
    assert reduced("4: 2 -1 3 3 2 3") == "3: 1 2 2 1 2"


def test_markov_reduce_repeats_its_moves():
    # sigma_2 sigma_-2 cancel, then sigma_4 goes, which brings sigma_3 to
    # its inverse; the two strands left untouched stay
    assert reduced("5: 1 2 -2 1 1 3 4 -3") == "4: 1 1 1"
    assert reduced("3: 1 2 -1") == "2:"
    assert reduced("2: 1") == "1:"


def test_markov_reduce_keeps_a_pair_across_a_neighbouring_generator():
    # sigma_2 lies between 1 and -1 on both sides of the cycle
    assert reduced("3: 1 2 -1 2") == "3: 1 2 -1 2"
    assert reduced("4: 2 1 -2 3 3 1 2 3") == "4: 2 1 -2 3 3 1 2 3"


def test_markov_reduce_keeps_a_generator_used_twice():
    assert reduced("3: 1 1 2 2") == "3: 1 1 2 2"
    assert reduced("3: 1 2 -1 -2") == "3: 1 2 -1 -2"


def test_markov_reduce_keeps_an_untouched_strand():
    assert reduced("3: 1 1 1") == "3: 1 1 1"
    assert reduced("3: 2 2 2") == "3: 2 2 2"
    assert reduced("3: 1 1 1 2 -2") == "3: 1 1 1"
    assert reduced("2: 1 -1") == "2:"


def test_markov_reduce_keeps_every_invariant_of_the_link():
    # the normalized Khovanov table (torsion included), the unnormalized
    # Jones and G of the word and of its reduction agree
    words = random_words(34, 200, max_strands=5, max_crossings=8)
    crossings = [0, 0]
    for b in words:
        r = markov_reduce(b)
        d, dr = braid_closure(b), braid_closure(r)
        assert khovanov_homology(dr) == khovanov_homology(d), b.text()
        assert jones_unnormalized(dr) == jones_unnormalized(d), b.text()
        assert homfly_G(b) == _normalize_G(homfly_F(b), b), b.text()
        crossings[0] += len(b.letters)
        crossings[1] += len(r.letters)
    assert crossings[1] < crossings[0] / 2, crossings


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
    with pytest.raises(InputError, match="arc 1 appears 1 times"):
        parse_pd("X 1 2 3 4")  # labels used once
    with pytest.raises(InputError):
        parse_pd("")
    with pytest.raises(InputError):
        parse_pd("Y 1 2 2 1")
    with pytest.raises(InputError):
        parse_pd("X 1 2 2 1\n,")  # a line of separators only
    with pytest.raises(InputError, match="arc 1 enters crossing 1"):
        parse_pd("X 2 3 1 3\nX 2 4 1 4")  # both under-strands leave into arc 1


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
    # loops may not collide with arc labels or with each other
    with pytest.raises(InputError, match="loop label 0"):
        Diagram((Crossing(1, (0, 1, 0, 1)),), (0,))
    with pytest.raises(InputError, match="loop label 2"):
        Diagram((Crossing(1, (0, 1, 0, 1)),), (2, 2))
    # every arc must fill exactly two slots
    with pytest.raises(InputError, match="arc 0 occupies 1 slots"):
        Diagram((Crossing(1, (0, 1, 2, 3)),), ())
    d = braid_closure(parse_braid("2: 1"))
    with pytest.raises(AttributeError):
        d.loops = ()


@pytest.mark.parametrize(
    "sign, arcs",
    [(1, (1, 2, 3)), (1, (1, 2, 3, 4, 5)), (1, (1, 2, 3, 4.0)), (1, ("1", 2, 3, 4)), (1, [1, 2, 1, 2]),
     (0, (1, 2, 1, 2)), (True, (1, 2, 1, 2))],
    ids=["three-arcs", "five-arcs", "float-arc", "str-arc", "list", "sign-0", "sign-bool"],
)
def test_crossing_rejects_malformed_fields(sign, arcs):
    with pytest.raises(InputError, match="crossing"):
        Crossing(sign, arcs)


@pytest.mark.parametrize(
    "crossings, loops",
    [([Crossing(1, (0, 1, 1, 0))], ()), ((Crossing(1, (0, 1, 1, 0)),), [5]), ((5,), ()), (((0, 1, 1, 0),), ())],
    ids=["list-crossings", "list-loops", "int-crossing", "tuple-crossing"],
)
def test_diagram_rejects_malformed_fields(crossings, loops):
    # a list field leaves the frozen diagram unhashable
    with pytest.raises(InputError, match="diagram"):
        Diagram(crossings, loops)


@pytest.mark.parametrize(
    "strands, letters",
    [(3.0, (1, 2)), (True, ()), (3, (1.0, 2)), (3, (True, 2)), (3, ("1", 2)), (3, [1, 2]), (3, 5)],
    ids=["float-strands", "bool-strands", "float-letter", "bool-letter", "str-letter", "list-letters", "int-letters"],
)
def test_braid_word_rejects_non_int_fields(strands, letters):
    # a float or bool would pass the range checks, then fail deep inside
    # braid_closure or print as "3: True 2"; a list leaves it unhashable
    with pytest.raises(InputError, match="must be an int"):
        braid_closure(BraidWord(strands, letters))


def test_value_types_hash_and_rebuild_equal():
    # each built from its documented form; a value and its rebuilt twin are one set element
    trefoil = homfly_F(parse_braid("2: 1 1 1"))
    values = [
        BraidWord(3, (1, -2, 1)),
        Crossing(-1, (0, 1, 2, 3)),
        Diagram((Crossing(1, (0, 1, 1, 0)),), (2,)),
        Multigraph(3, ((1, 2), (2, 3), (3, 3))),
        HomflyValue(trefoil.value, 1),
    ]
    for v in values:
        twin = type(v)(*(getattr(v, f) for f in v.__dataclass_fields__))
        assert hash(v) == hash(twin) and len({v, twin}) == 1, v


def trefoil():
    return braid_closure(parse_braid("2: 1 1 1"))


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: conjugate(parse_braid("2: 1"), 2), id="conjugate"),
        pytest.param(lambda: stabilize(parse_braid("2: 1"), 0), id="stabilize"),
        pytest.param(lambda: resolve_crossing(braid_closure(parse_braid("2: 1")), 1, 0), id="resolve-crossing"),
        pytest.param(lambda: resolve_crossing(braid_closure(parse_braid("2: 1")), 0, 2), id="resolve-bit"),
        pytest.param(lambda: cycle_graph(0), id="cycle-graph"),
        pytest.param(lambda: polygon_reference(2, 1), id="polygon-k"),
        pytest.param(lambda: polygon_reference(3, 0), id="polygon-n"),
        pytest.param(lambda: wide_edge_expand(0, []), id="wide-edge-strands"),
        pytest.param(lambda: wide_edge_expand(2, [2]), id="wide-edge-index"),
        pytest.param(lambda: wide_edge_expand(2, [1.0]), id="wide-edge-type"),
        pytest.param(lambda: wide_edge_expand(2, ["F1"]), id="wide-edge-str"),
        pytest.param(lambda: HomflyValue(homfly_F(parse_braid("2: 1")).value, 2), id="homfly-value"),
        pytest.param(lambda: stability_check(1, [3]), id="stability-p"),
        # a scalar parameter is exactly an int: True and 2.0 are refused, not read as 1 and 2
        pytest.param(lambda: stabilize(parse_braid("2: 1"), True), id="stabilize-bool"),
        pytest.param(lambda: resolve_crossing(braid_closure(parse_braid("2: 1 1")), True, 0), id="resolve-crossing-bool"),
        pytest.param(lambda: resolve_crossing(braid_closure(parse_braid("2: 1 1")), 0, True), id="resolve-bit-bool"),
        pytest.param(lambda: cycle_graph(True), id="cycle-graph-bool"),
        pytest.param(lambda: polygon_reference(3.0, 1), id="polygon-k-float"),
        pytest.param(lambda: polygon_reference(3, True), id="polygon-n-bool"),
        pytest.param(lambda: Pn_homology(cycle_graph(3), True), id="pn-homology-bool"),
        pytest.param(lambda: Qn_homology(cycle_graph(3), True, (0, 2)), id="qn-homology-bool"),
        pytest.param(lambda: specialize_Pn(cycle_graph(3), True), id="specialize-pn-bool"),
        pytest.param(lambda: specialize_Qn(cycle_graph(3), True, (0, 2)), id="specialize-qn-bool"),
        pytest.param(lambda: wide_edge_expand(2.0, [1]), id="wide-edge-strands-float"),
        pytest.param(lambda: specialize_Gn(homfly_G(parse_braid("2: 1 1 1")), True), id="specialize-gn-bool"),
        pytest.param(lambda: HomflyValue(homfly_F(parse_braid("2: 1")).value, True), id="homfly-value-sqrt-alpha-bool"),
        pytest.param(lambda: HomflyValue("x", 0), id="homfly-value-str"),
        # a window is a tuple (lo, hi) of exact ints with lo <= hi, or None for every degree
        pytest.param(lambda: khovanov_homology(trefoil(), jwindow=(1.5, 9)), id="kh-jwindow-float"),
        pytest.param(lambda: khovanov_homology(trefoil(), jwindow=(9, 1)), id="kh-jwindow-reversed"),
        pytest.param(lambda: khovanov_homology(trefoil(), irange=(3, 1)), id="kh-irange-reversed"),
        pytest.param(lambda: khovanov_homology(trefoil(), irange=(True, 2)), id="kh-irange-bool"),
        pytest.param(lambda: khovanov_homology(trefoil(), jwindow=5), id="kh-jwindow-int"),
        pytest.param(lambda: khovanov_homology(trefoil(), jwindow=[1, 9]), id="kh-jwindow-list"),
        pytest.param(lambda: unnormalized_homology(trefoil(), irange=(0.5, 2)), id="unnormalized-irange-float"),
        pytest.param(lambda: Qn_homology(cycle_graph(3), 2, (0.5, 2)), id="qn-window-float"),
        pytest.param(lambda: Qn_homology(cycle_graph(3), 2, ("0", "2")), id="qn-window-str"),
        pytest.param(lambda: Qn_homology(cycle_graph(3), 2, None), id="qn-window-none"),
        pytest.param(lambda: specialize_Qn(cycle_graph(3), 2, ("0", "2")), id="specialize-qn-window-str"),
        pytest.param(lambda: specialize_Qn(cycle_graph(3), 2, (0, 2, 9)), id="specialize-qn-window-three"),
        pytest.param(lambda: enhanced_homology(cycle_graph(3), (0, 2, 3)), id="enhanced-window-three"),
        # a twist list is a non-empty list of distinct exact ints
        pytest.param(lambda: stable_poincare(2, [True]), id="stable-twist-bool"),
        pytest.param(lambda: stable_poincare(2, [3, True]), id="stable-twist-bool-beside-3"),
        pytest.param(lambda: stable_poincare(2, []), id="stable-twists-empty"),
        pytest.param(lambda: stable_poincare(2, 5), id="stable-twists-int"),
        pytest.param(lambda: stability_check(2, None), id="stability-twists-none"),
        pytest.param(lambda: stable_poincare(2.0, [3]), id="stable-m-float"),
        pytest.param(lambda: stability_check(3.0, [4]), id="stability-p-float"),
        pytest.param(lambda: stability_check(3, [4.0]), id="stability-twist-float"),
        pytest.param(lambda: stability_check(3, [4], i_max=1.5), id="stability-imax-float"),
        pytest.param(lambda: stability_check(3, [4], i_max=True), id="stability-imax-bool"),
        pytest.param(lambda: torus_diagram(2.0, 3), id="torus-p-float"),
        pytest.param(lambda: torus_diagram(2, -1), id="torus-q-negative"),
        pytest.param(lambda: stability_check(4, [4]), id="stability-p-above-min-twist"),
        pytest.param(lambda: Crossing(True, (1, 2, 3, 4)), id="crossing-sign-bool"),
        # a value the function cannot read: a table with no free rank, an orientation G_2 never takes
        pytest.param(lambda: width_report(HomologyTable({(3, 7): (0, (2,))})), id="width-report-torsion-only"),
        pytest.param(lambda: apply_orientation(LaurentPoly.one(("q",)), "inverse"), id="unknown-orientation"),
        pytest.param(lambda: suite_theorem24(3.0, 4), id="theorem24-p-float"),
        # run_suite refuses what the CLI refuses
        pytest.param(lambda: run_suite("nope"), id="run-suite-unknown"),
        pytest.param(lambda: run_suite("appendixB", 3), id="run-suite-p-without-theorem24"),
    ],
)
def test_parameter_refusals_are_input_errors(call, monkeypatch):
    # the CLI exits 2 on an InputError and 1 on any other ValueError; a
    # refusal comes before any cube is built or any diagram scanned
    def no_cube(*args, **kwargs):
        raise AssertionError("a complex was built before the refusal")

    monkeypatch.setattr(homcore, "cube_blocks", no_cube)
    monkeypatch.setattr(khovanov, "scan_homology", no_cube)
    with pytest.raises(InputError):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: wide_edge_expand(0, []), "need strand count >= 1", id="wide-edge-strands"),
        pytest.param(lambda: HomflyValue(homfly_F(parse_braid("2: 1")).value, 2), "need sqrt_alpha <= 1",
                     id="sqrt-alpha"),
        pytest.param(lambda: torus_diagram(0, 3), "need p >= 1", id="torus-p"),
        pytest.param(lambda: torus_diagram(2, -1), "need q >= 0", id="torus-q"),
        pytest.param(lambda: stability_check(1, [3]), "need p >= 2", id="stability-p-below"),
        pytest.param(lambda: stability_check(4, [4]), "need p <= 3", id="stability-p-above"),
        # no p at all: the twist list is at fault, not p
        pytest.param(lambda: stability_check(2, [2]), "twist values [2] leave no valid p: need 2 <= p < min(q) = 2",
                     id="stability-twists-leave-no-p"),
        pytest.param(lambda: resolve_crossing(trefoil(), 0, 2), "need smoothing bit <= 1", id="smoothing-bit"),
        pytest.param(lambda: Crossing(True, (1, 2, 3, 4)), "crossing sign must be an int, not True", id="crossing-sign"),
    ],
)
def test_range_refusals_take_the_rule_wording(call, message):
    # each check goes through linkdiag._int_in or _int_of, so the refusals read alike
    with pytest.raises(InputError) as caught:
        call()
    assert str(caught.value) == message


def pd_text(crossings) -> str:
    """PD lines "X a b c d": ``Crossing.arcs`` is already in slot order."""
    return "\n".join("X " + " ".join(map(str, x.arcs)) for x in crossings)


def relabel(crossings, labels) -> tuple:
    return tuple(Crossing(x.sign, tuple(labels[a] for a in x.arcs)) for x in crossings)


def in_slots(x: Crossing) -> tuple[int, int]:
    """The slots where the strands enter: a for the under-strand, d for
    the over-strand of a positive crossing and b for a negative one's."""
    return 0, 3 if x.sign > 0 else 1


def successors(crossings) -> dict[int, int]:
    """The arc that follows each arc along its component's orientation."""
    return {x.arcs[s]: x.arcs[s ^ 2] for x in crossings for s in in_slots(x)}


def consecutive(crossings) -> tuple:
    """The crossings with their arcs renumbered 1, 2, ... along each
    component, each starting at an arc that enters its first crossing, so
    the numbering never wraps at that crossing."""
    after, labels = successors(crossings), {}
    for x in crossings:
        for s in in_slots(x):
            arc = x.arcs[s]
            while arc not in labels:
                labels[arc] = len(labels) + 1
                arc = after[arc]
    return relabel(crossings, labels)


def has_all_over_component(crossings) -> bool:
    after, under = successors(crossings), {x.arcs[0] for x in crossings}
    for start in after:
        arc, comp = start, set()
        while arc not in comp:
            comp.add(arc)
            arc = after[arc]
        if not comp & under:
            return True
    return False


def round_trip_cases():
    """Every corpus closure and 200 seeded random ones, with their mirrors,
    each with PD texts and the crossings each must parse to: the diagram
    written as it is, with its lines shuffled and its labels permuted, and
    renumbered consecutively after the shuffle.  Where a link has an
    all-over component, only the consecutive text has a defined reading,
    and the others come with None.  Closures with crossing-free loops have
    no PD code and are left out."""
    rng = random.Random(16)
    for b in corpus_diagrams() + random_words(16, 200):
        d = braid_closure(b)
        if d.loops:
            continue
        for e in (d, mirror(d)):
            arcs = e.arc_labels()
            permuted = dict(zip(arcs, rng.sample(range(1, len(arcs) + 1), len(arcs))))
            shuffled = relabel(rng.sample(e.crossings, len(e.crossings)), permuted)
            readable = not has_all_over_component(e.crossings)
            texts = [(e.crossings, readable), (shuffled, readable), (consecutive(shuffled), True)]
            yield e, e is d, [(pd_text(xs), xs if ok else None) for xs, ok in texts]


def test_pd_round_trip():
    # parsing gives back the crossings and signs, and the text as written
    # gives back the diagram itself; on up to 8 crossings the shuffled and
    # renumbered diagram has the Jones polynomial of the closure it came
    # from, and the Khovanov table too where the closure is not a mirror
    # (a mirror's table is the dual one, and doubles the time)
    read = unread = 0
    for d, unmirrored, texts in round_trip_cases():
        written, expected = texts[0]
        if expected is not None:
            assert parse_pd(written) == d, written
        for text, expected in texts:
            if expected is None:
                unread += 1
                continue
            assert parse_pd(text).crossings == expected, text
            read += 1
        if d.n_crossings <= 8:
            text = texts[-1][0]  # shuffled and renumbered
            parsed = parse_pd(text)
            assert jones_unnormalized(parsed) == jones_unnormalized(d), text
            if unmirrored:
                assert khovanov_homology(parsed).entries == khovanov_homology(d).entries, text
    assert (read, unread) == (1136, 58)


def random_pd(rng: random.Random) -> str:
    """1-4 crossings whose labels 1..2n are each used twice, in random
    slots: most of these texts cannot be oriented."""
    n = rng.randint(1, 4)
    labels = [arc for arc in range(1, 2 * n + 1) for _ in range(2)]
    rng.shuffle(labels)
    return "\n".join("X " + " ".join(map(str, labels[k:k + 4])) for k in range(0, 4 * n, 4))


def test_parse_pd_matches_pinned_digest():
    # every round-trip text and 20,000 random quads; each records its
    # signed crossings or the refusal, whose message names an arc or a
    # crossing
    rng = random.Random(17)
    texts = [text for _, _, texts in round_trip_cases() for text, _ in texts]
    texts += [random_pd(rng) for _ in range(20000)]
    digest, refused = hashlib.sha256(), 0
    for text in texts:
        try:
            record = [(x.sign, x.arcs) for x in parse_pd(text).crossings]
        except InputError as exc:
            assert re.search(r"\b(arc|crossing) -?\d+", str(exc)), (text, str(exc))
            record, refused = "InputError", refused + 1
        digest.update(f"{text}\n{record}\n".encode())
    assert (len(texts), refused) == (21194, 11978)
    assert digest.hexdigest() == "29c0938ea89a11707bd06bf041044f6be921ff89da78993cbafb8535786facc4"


def test_braid_closure_matches_pinned_digest():
    # the corpus and 3,000 seeded words on up to 7 strands, with
    # crossing-free strands and loops among them, each closure hashed as
    # one JSON record with sorted keys and no spaces
    words = corpus_diagrams() + random_words(3, 3000, max_strands=7, max_crossings=16)
    digest, with_loops = hashlib.sha256(), 0
    for b in words:
        d = braid_closure(b)
        with_loops += bool(d.loops)
        record = {
            "crossings": [{"sign": x.sign, "arcs": list(x.arcs)} for x in d.crossings],
            "loops": list(d.loops),
            "provenance": "braid-closure",  # a constant key of the pinned record format
        }
        digest.update(f"{b.text()}\n{json.dumps(record, separators=(',', ':'), sort_keys=True)}\n".encode())
    assert (len(words), with_loops) == (3034, 802)
    assert digest.hexdigest() == "89c612b5d2cf8f1004d59bb6706cd36e7b56ec3fc33ce9e06fc98b166a38accd"
