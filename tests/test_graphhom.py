"""Graph polynomials, the cube complexes, and the polygon oracle."""

import io
import itertools
import random

import pytest

from linkhom import verify
from linkhom.cli import run
from linkhom.graphhom import (
    Multigraph,
    Pn_homology,
    Qn_homology,
    _graph_states,
    cycle_graph,
    dichromatic,
    dichromatic_DG,
    dichromatic_delete_contract,
    enhanced_homology,
    parse_graph,
    polygon_reference,
    specialize_Pn,
    specialize_Qn,
    tutte,
    tutte_recursive,
)
from linkhom.homcore import euler_characteristic
from linkhom.linkdiag import BraidWord, InputError
from linkhom.polyalg import LaurentPoly, RationalFn

from complexes import homology, pn_complex, qn_complex

QV = ("q", "v")
XY = ("x", "y")
Q = ("q",)

TRIANGLE = Multigraph(3, ((1, 2), (2, 3), (1, 3)))


def qv(mapping):
    return LaurentPoly.from_terms(QV, mapping)


def random_graph(rng, max_vertices=5, max_edges=6):
    n = rng.randint(1, max_vertices)
    m = rng.randint(0, max_edges)
    edges = tuple((rng.randint(1, n), rng.randint(1, n)) for _ in range(m))
    return Multigraph(n, edges)


def test_parse_graph():
    g = parse_graph("v 3\ne 1 2\ne 2 3\ne 1 3")
    assert g == TRIANGLE
    assert parse_graph("v 1\ne 1 1") == Multigraph(1, ((1, 1),))
    with pytest.raises(ValueError):
        parse_graph("e 1 2\nv 2")


def test_parse_graph_skips_blank_and_comment_lines():
    assert parse_graph("# a triangle\nv 3\n\ne 1 2\n  # and two more edges\ne 2 3\ne 1 3\n") == TRIANGLE


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("v 2\nv 2", "duplicate vertex-count line", id="repeated-v"),
        pytest.param("v 2 3", "malformed vertex line 'v 2 3'", id="malformed-v"),
        pytest.param("v 2\ne 1", "malformed edge line 'e 1'", id="malformed-e"),
        pytest.param("v 2\nx 1 2", "unrecognized line 'x 1 2'", id="unknown-line"),
        pytest.param("# no vertex count", "missing vertex-count line", id="missing-v"),
    ],
)
def test_parse_graph_refusals(text, message):
    with pytest.raises(InputError) as caught:
        parse_graph(text)
    assert str(caught.value) == message


def test_cycle_graph_of_length_one_is_a_loop():
    assert cycle_graph(1) == Multigraph(1, ((1, 1),))


def test_graph_state_components():
    # only edge 1-2 present: vertices 1, 2 (elements 0, 1) form part 0
    count, part, least = _graph_states(TRIANGLE).state(0b001)
    assert count == 2
    assert part == (0, 0, 1) and least == (0, 2)


def test_dichromatic_edgeless():
    for k in range(4):
        assert dichromatic(Multigraph(k, ())) == qv({(0, k): 1})


def test_dichromatic_single_edge():
    assert dichromatic(Multigraph(2, ((1, 2),))) == qv({(0, 2): 1, (1, 1): -1})


def test_dichromatic_triangle_brute_force():
    assert dichromatic(TRIANGLE) == qv({(0, 3): 1, (1, 2): -3, (2, 1): 3, (3, 1): -1})


def test_dichromatic_state_sum_vs_recursion():
    rng = random.Random(3)
    for _ in range(25):
        g = random_graph(rng)
        assert dichromatic(g) == dichromatic_delete_contract(g)


def test_tutte_base_cases():
    bridge = Multigraph(2, ((1, 2),))
    loop = Multigraph(1, ((1, 1),))
    assert tutte(bridge) == LaurentPoly.monomial(XY, (1, 0))
    assert tutte(loop) == LaurentPoly.monomial(XY, (0, 1))


def test_tutte_triangle():
    assert tutte(TRIANGLE) == LaurentPoly.from_terms(XY, {(2, 0): 1, (1, 0): 1, (0, 1): 1})


def test_tutte_state_sum_vs_recursion():
    rng = random.Random(5)
    for _ in range(25):
        g = random_graph(rng)
        assert tutte(g) == tutte_recursive(g)


def test_specialize_pn_values():
    # triangle, n = 1
    assert specialize_Pn(TRIANGLE, 1) == LaurentPoly.from_terms(Q, {0: 1, 4: -1})
    # N_2 for several n
    for n in (1, 2, 3):
        braces = LaurentPoly.from_terms(Q, {i: 1 for i in range(n + 1)})
        assert specialize_Pn(Multigraph(2, ()), n) == braces * braces
    # single loop
    for n in (1, 2):
        braces = LaurentPoly.from_terms(Q, {i: 1 for i in range(n + 1)})
        one_minus_qn = LaurentPoly.from_terms(Q, {0: 1, n: -1})
        assert specialize_Pn(Multigraph(1, ((1, 1),)), n) == braces * one_minus_qn


def test_specialize_qn_series():
    # N_1, n=2: q^2/(q-1) = q + 1 + q^-1 + ...
    out = specialize_Qn(Multigraph(1, ()), 2, (-3, 1))
    assert out == LaurentPoly.from_terms(Q, {1: 1, 0: 1, -1: 1, -2: 1, -3: 1})
    # single edge, n=2: series of q^3/(q-1)^2 = q + 2 + 3 q^-1 + 4 q^-2 + ...
    out = specialize_Qn(Multigraph(2, ((1, 2),)), 2, (-2, 1))
    assert out == LaurentPoly.from_terms(Q, {1: 1, 0: 2, -1: 3, -2: 4})
    with pytest.raises(ValueError):
        specialize_Qn(TRIANGLE, 3, (0, 1))


def test_pn_complex_edgeless():
    for n in (1, 2):
        c = pn_complex(Multigraph(1, ()), n)
        assert sum(c.dims.values()) == n + 1
        assert all(i == 0 for (i, _) in c.dims)
        braces = LaurentPoly.from_terms(Q, {i: 1 for i in range(n + 1)})
        assert euler_characteristic(c) == braces


def test_pn_complex_euler_matches_specialization():
    rng = random.Random(7)
    for _ in range(15):
        g = random_graph(rng, max_vertices=4, max_edges=5)
        for variant in ("zero", "xn"):
            c = pn_complex(g, 1, variant)
            homology(c)  # raises where d^2 != 0
            assert euler_characteristic(c) == specialize_Pn(g, 1)
        c2 = pn_complex(g, 2)
        assert euler_characteristic(c2) == specialize_Pn(g, 2)


def test_pn_homology_edgeless_rank():
    t = Pn_homology(Multigraph(2, ()), 1)
    assert sum(rank for rank, _ in t.entries.values()) == 4
    assert all(i == 0 for (i, _) in t.entries)


def test_polygon_reference_triangle_n1():
    t = polygon_reference(3, 1)
    assert t.entries == {
        (0, 0): (1, ()),
        (1, 2): (1, ()),
        (1, 1): (0, (2,)),
        (2, 2): (1, ()),
        (2, 3): (1, ()),
        (3, 3): (1, ()),
        (3, 4): (1, ()),
    }


def test_polygon_reference_euler_consistency():
    for k in (3, 4, 5):
        for n in (1, 2):
            ref = polygon_reference(k, n)
            assert euler_characteristic(ref) == specialize_Pn(cycle_graph(k), n)


def test_pn_homology_matches_polygon_reference():
    for (k, n) in ((3, 1), (3, 2), (4, 1)):
        computed = Pn_homology(cycle_graph(k), n)
        assert computed == polygon_reference(k, n), (k, n)


def test_pn_homology_invariant_under_relabeling():
    g = Multigraph(4, ((1, 2), (2, 3), (3, 4), (1, 4), (1, 3)))
    base = Pn_homology(g, 1)
    rng = random.Random(11)
    for _ in range(4):
        perm = list(range(1, 5))
        rng.shuffle(perm)
        edges = [(perm[u - 1], perm[v - 1]) for u, v in g.edges]
        rng.shuffle(edges)
        assert Pn_homology(Multigraph(4, tuple(edges)), 1) == base


def test_enhanced_single_vertex():
    for j in (1, 0, -1, -3):
        c = qn_complex(Multigraph(1, ()), 2, (j, j))
        assert c.dims == {(0, j): 1}
        assert not c.diff
        t = homology(c)
        assert t.entries == {(0, j): (1, ())}
    # j > 1 is empty: labels must be nonnegative
    assert qn_complex(Multigraph(1, ()), 2, (2, 2)).dims == {}


def test_enhanced_single_edge_j2():
    c = qn_complex(Multigraph(2, ((1, 2),)), 2, (2, 2))
    assert c.dims == {(0, 2): 1, (1, 2): 1}
    assert not homology(c).entries


def test_enhanced_euler_matches_jg_series():
    rng = random.Random(13)
    for _ in range(10):
        g = random_graph(rng, max_vertices=4, max_edges=5)
        window = (-4, g.n_edges + g.n_vertices)
        table_chi = euler_characteristic(qn_complex(g, 2, window))
        assert table_chi == specialize_Qn(g, 2, window)


def test_qn_complex_matches_enhanced_for_n2(monkeypatch):
    rng = random.Random(17)
    for _ in range(6):
        g = random_graph(rng, max_vertices=4, max_edges=4)
        window = (-3, g.n_edges + g.n_vertices)
        assert enhanced_homology(g, window) == Qn_homology(g, 2, window)
    # the enhanced homology is the n = 2 complex's: one engine call, argument for argument
    from linkhom import graphhom

    calls = []
    monkeypatch.setattr(graphhom, "cube_homology", lambda spec, states, *rest: calls.append((spec, states.joins, rest)))
    enhanced_homology(g, window)
    Qn_homology(g, 2, window)
    assert calls[0] == calls[1] and calls[0][2] == (window,)


def test_qn_euler_matches_series():
    rng = random.Random(19)
    for _ in range(10):
        g = random_graph(rng, max_vertices=4, max_edges=5)
        window = (-3, g.n_edges + g.n_vertices)
        for n in (2, 1):
            c = qn_complex(g, n, window)
            homology(c)  # raises where d^2 != 0
            assert euler_characteristic(c) == specialize_Qn(g, n, window)


def test_qn_homology_single_vertex():
    t = Qn_homology(Multigraph(1, ()), 2, (-2, 1))
    assert t.entries == {(0, j): (1, ()) for j in range(-2, 2)}


def test_qn_homology_invariance_single_edge():
    g = Multigraph(2, ((1, 2),))
    base = Qn_homology(g, 2, (-3, 2))
    flipped = Multigraph(2, ((2, 1),))
    assert Qn_homology(flipped, 2, (-3, 2)) == base


def test_pn_parameter_validation():
    with pytest.raises(InputError, match="need n >= 1"):
        Pn_homology(TRIANGLE, 0)
    with pytest.raises(InputError, match="variant must be"):
        Pn_homology(TRIANGLE, 1, "one")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: specialize_Pn(TRIANGLE, 0), "need n >= 1"),
        (lambda: Pn_homology(TRIANGLE, 0), "need n >= 1"),
        (lambda: polygon_reference(3, 0), "need n >= 1"),
        (lambda: polygon_reference(2, 1), "need k >= 3"),
        (lambda: specialize_Qn(TRIANGLE, 3, (0, 2)), "need n <= 2"),
        (lambda: Qn_homology(TRIANGLE, 3, (0, 2)), "need n <= 2"),
        (lambda: cycle_graph(0), "need cycle length >= 1"),
        (lambda: Multigraph(-1, ()), "need vertex count >= 0"),
    ],
    ids=["specialize-pn", "pn-homology", "polygon-n", "polygon-k", "specialize-qn", "qn-homology", "cycle", "vertices"],
)
def test_integer_ranges_share_one_rule(call, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize(
    "n_vertices, edges",
    [(2.0, ((1, 2),)), (True, ((1, 1),)), (2, ((1.0, 2),)), (2, ((1, True),)), (2, [(1, 2)]), (2, ((1, 2, 3),)),
     (2, ((1,),)), (2, (5,))],
    ids=["float-count", "bool-count", "float-end", "bool-end", "list-edges", "three-ends", "one-end", "int-edge"],
)
def test_multigraph_rejects_non_int_fields(n_vertices, edges):
    with pytest.raises(InputError, match="must be"):
        Pn_homology(Multigraph(n_vertices, edges), 1)


def test_qn_window_validation():
    with pytest.raises(ValueError):
        Qn_homology(TRIANGLE, 2, (3, 1))
    with pytest.raises(ValueError):
        Qn_homology(TRIANGLE, 3, (0, 1))


def test_dichromatic_dg_edgeless():
    TQ = ("t", "q")
    g = Multigraph(2, ())
    expected = RationalFn(
        LaurentPoly.from_terms(TQ, {(0, 0): 1, (-1, 1): 1}),
        LaurentPoly.from_terms(TQ, {(0, 0): 1, (0, 1): -1}),
    ) ** 2
    assert dichromatic_DG(g) == expected


def test_dichromatic_dg_round_trip():
    # substituting t^-1 = (v(1-q) - 1)/q sends (1 + t^-1 q) to v(1-q),
    # so D_G maps to (v(1-q))^m P_G(q, v)
    rng = random.Random(23)
    QV_ = ("q", "v")
    t_value = RationalFn(
        LaurentPoly.from_terms(QV_, {(1, 0): 1}),
        LaurentPoly.from_terms(QV_, {(0, 1): 1, (1, 1): -1, (0, 0): -1}),
    )
    vq = RationalFn.from_poly(
        LaurentPoly.from_terms(QV_, {(0, 1): 1, (1, 1): -1})
    )
    for _ in range(10):
        g = random_graph(rng, max_vertices=4, max_edges=4)
        dg = dichromatic_DG(g)
        subbed = dg.substitute("t", t_value)
        expected = RationalFn.from_poly(dichromatic(g)) * vq ** g.n_edges
        assert subbed == expected


def ref_dichromatic_DG(g):
    """The fold dichromatic_DG replaced: one reduced RationalFn per state,
    added one at a time, with components counted by a fresh union-find."""
    TQ = ("t", "q")
    m = g.n_edges
    one_plus = LaurentPoly.from_terms(TQ, {(0, 0): 1, (-1, 1): 1})
    one_minus_q = LaurentPoly.from_terms(TQ, {(0, 0): 1, (0, 1): -1})
    total = RationalFn.zero(TQ)
    for kept in itertools.product((0, 1), repeat=m):
        parent = list(range(g.n_vertices + 1))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for bit, (u, v) in zip(kept, g.edges):
            if bit:
                parent[find(u)] = find(v)
        k = len({find(x) for x in range(1, g.n_vertices + 1)})
        i = sum(kept)
        num = LaurentPoly.monomial(TQ, (0, i), -1 if i & 1 else 1) * one_plus ** (m + k)
        total = total + RationalFn(num, one_minus_q ** k)
    return total


def test_dichromatic_dg_matches_termwise_fold():
    rng = random.Random(2006)
    graphs = [random_graph(rng, max_vertices=5, max_edges=6) for _ in range(30)]
    graphs.append(Multigraph(2, ((1, 1), (1, 2), (1, 2), (2, 2))))
    assert any(u == v for g in graphs for u, v in g.edges)
    assert any(len(set(g.edges)) < len(g.edges) for g in graphs)
    for g in graphs:
        dg = dichromatic_DG(g)
        ref = ref_dichromatic_DG(g)
        assert dg == ref
        assert dg.render() == ref.render()


def test_spec_caches_are_bounded_and_keep_small_n_warm():
    from linkhom import graphhom

    graphhom._pn_spec.cache_clear()
    graphhom._qn_spec.cache_clear()
    # the graph-torsion sequence: Pn at n = 1, 2 in both variants, Qn at
    # n = 1, 2 and the enhanced complex, over several graphs
    for g in (cycle_graph(3), cycle_graph(4), TRIANGLE, Multigraph(2, ((1, 2), (1, 2)))):
        for n in (1, 2):
            for variant in ("zero", "xn"):
                Pn_homology(g, n, variant)
            Qn_homology(g, n, (0, 2))
        enhanced_homology(g, (0, 2))
    pn, qn = graphhom._pn_spec.cache_info(), graphhom._qn_spec.cache_info()
    assert (pn.misses, pn.hits) == (4, 12)
    assert (qn.misses, qn.hits) == (2, 10)
    # a sweep over n keeps only the latest specs and their edge tables
    for n in range(1, 13):
        Pn_homology(TRIANGLE, n)
        Qn_homology(TRIANGLE, 2 - n, (0, 2))
    pn, qn = graphhom._pn_spec.cache_info(), graphhom._qn_spec.cache_info()
    assert pn.currsize == qn.currsize == pn.maxsize == qn.maxsize == 8
    Pn_homology(TRIANGLE, 1)
    assert graphhom._pn_spec.cache_info().misses == pn.misses + 1


def test_dichromatic_dg_equals_the_general_reduction():
    # D_G divides 1 - q out of its numerator instead of running a gcd; the
    # general reduction of the same value over an extra (1 - q)^2 agrees
    one_minus_q = LaurentPoly.from_terms(("t", "q"), {(0, 0): 1, (0, 1): -1})
    rng = random.Random(29)
    cancelled = 0
    for _ in range(25):
        g = random_graph(rng)
        v = dichromatic_DG(g)
        ref = RationalFn(v.num * one_minus_q ** 2, v.den * one_minus_q ** 2)
        assert (v.num, v.den) == (ref.num, ref.den)
        top = max(k for _, k in dichromatic(g).terms)
        cancelled += v.den != one_minus_q ** top
    assert cancelled > 0


@pytest.mark.parametrize("n", [1, 2])
def test_qn_of_the_graph_with_no_vertices_is_one(n):
    out, err = io.StringIO(), io.StringIO()
    assert run(["graph", "poly", "v 0", "--qn", str(n), "--jwindow", "0..2"], out=out, err=err) == 0
    assert out.getvalue() == "1\n"
    empty, window = Multigraph(0, ()), (-1, 2)
    assert specialize_Qn(empty, n, window) == LaurentPoly.one(Q)
    assert euler_characteristic(Qn_homology(empty, n, window)) == LaurentPoly.one(Q)
    assert euler_characteristic(enhanced_homology(empty, window)) == LaurentPoly.one(Q)


def test_cycle_identity_reads_only_the_negative_closure(monkeypatch):
    # Q_(C_k,2) matches the bracket of the negative (2,k) closure; with that
    # closure given a crossing too many, and the positive one drawn as the
    # true negative closure, only the positive orientation would match, and
    # the identity must fail
    assert [verify.appendix_a_cycle_identity(k)[0] for k in range(2, 6)] == [True] * 4
    real = verify.braid_closure

    def broken(b):
        if all(x > 0 for x in b.letters):
            return real(BraidWord(b.strands, tuple(-x for x in b.letters)))
        return real(BraidWord(b.strands, b.letters + (-1,)))

    monkeypatch.setattr(verify, "braid_closure", broken)
    assert [verify.appendix_a_cycle_identity(k)[0] for k in range(2, 6)] == [False] * 4
