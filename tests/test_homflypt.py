"""Hecke trace axioms, wide-edge relations, and skein specializations."""

import io
import random

import pytest

import linkhom.polyalg
from linkhom import verify
from linkhom.cli import run
from linkhom.corpus import corpus_diagrams
from linkhom.graphhom import Multigraph, dichromatic_DG
from linkhom.homflypt import (
    HeckeElement,
    _loop_sum,
    _normalize_G,
    _over_q2_minus_1,
    HomflyValue,
    alpha_value,
    hecke_normal_form,
    homfly_F,
    homfly_G,
    homfly_skein_form,
    loop_value,
    markov_trace,
    specialize_Gn,
    wide_edge_expand,
)
from linkhom.khovanov import jones_normalized
from linkhom.linkdiag import BraidWord, InputError, braid_closure, conjugate, parse_braid, stabilize
from linkhom.polyalg import LaurentPoly, RationalFn, quantum_integer

TQ = ("t", "q")
QA = ("q", "a")


def tq(mapping):
    return LaurentPoly.from_terms(TQ, mapping)


def rf(num, den=None):
    return RationalFn(num, den if den is not None else LaurentPoly.one(TQ))


def F(text):
    return homfly_F(parse_braid(text))


def G(text):
    return homfly_G(parse_braid(text))


def G_unreduced(text):
    """G traced on the word as written; homfly_G would Markov-reduce it first."""
    b = parse_braid(text)
    return _normalize_G(homfly_F(b), b)


def random_word(rng, max_strands=4, max_len=8):
    strands = rng.randint(2, max_strands)
    letters = tuple(
        rng.choice([1, -1]) * rng.randint(1, strands - 1) for _ in range(rng.randint(0, max_len))
    )
    return BraidWord(strands, letters)


def test_identity_normal_form():
    h = hecke_normal_form(BraidWord(3, ()))
    assert h == HeckeElement.identity(3)


def test_quadratic_relation_on_two_strands():
    h = hecke_normal_form(parse_braid("2: 1 1"))
    assert h.coeffs == {(1, 2): tq({(0, 2): 1}), (2, 1): tq({(0, 0): 1, (0, 2): -1})}


def test_inverse_collapses():
    assert hecke_normal_form(parse_braid("2: 1 -1")) == HeckeElement.identity(2)
    assert hecke_normal_form(parse_braid("3: 2 1 -1 -2")) == HeckeElement.identity(3)


def test_braid_relations_in_algebra():
    assert hecke_normal_form(parse_braid("3: 1 2 1")) == hecke_normal_form(parse_braid("3: 2 1 2"))
    assert hecke_normal_form(parse_braid("4: 1 3")) == hecke_normal_form(parse_braid("4: 3 1"))


def test_trace_base_values():
    assert markov_trace(HeckeElement.identity(1)).value == RationalFn.one(TQ)
    assert markov_trace(HeckeElement.identity(2)).value == loop_value()
    assert F("2: -1").value == rf(tq({(-1, -1): -1}))


def test_trace_of_identity_powers():
    d = loop_value()
    for p in range(1, 5):
        assert markov_trace(HeckeElement.identity(p)).value == d ** (p - 1)


def test_unknot_values():
    assert F("1:").value == RationalFn.one(TQ)
    assert F("2: 1").value == RationalFn.one(TQ)  # positive stabilization
    assert G("1:").value == RationalFn.one(TQ)
    assert G("3: 1 2").value == RationalFn.one(TQ)
    assert G("3: 1 -2").value == RationalFn.one(TQ)


def test_conjugation_invariance():
    b = parse_braid("2: 1 1 1")
    assert F(b.text()).value == F(conjugate(b, 1).text()).value
    rng = random.Random(13)
    for _ in range(10):
        b = random_word(rng)
        k = rng.choice([i for i in range(1, b.strands)]) * rng.choice([1, -1])
        assert homfly_F(b).value == homfly_F(conjugate(b, k)).value


def test_stabilization_axioms():
    rng = random.Random(17)
    alpha = alpha_value()
    for _ in range(10):
        b = random_word(rng, max_len=6)
        up = stabilize(b, 1)
        down = stabilize(b, -1)
        assert homfly_F(up).value == homfly_F(b).value
        assert homfly_F(down).value == homfly_F(b).value * alpha


def test_skein_relation_on_random_words():
    rng = random.Random(19)
    qinv_minus_q = rf(tq({(0, -1): 1, (0, 1): -1}))
    qinv = rf(tq({(0, -1): 1}))
    q = rf(tq({(0, 1): 1}))
    for _ in range(12):
        b = random_word(rng, max_len=6)
        i = rng.randint(1, b.strands - 1)
        f = homfly_F(b).value
        f_plus = homfly_F(BraidWord(b.strands, b.letters + (i,))).value
        f_minus = homfly_F(BraidWord(b.strands, b.letters + (-i,))).value
        assert qinv * f_plus - q * f_minus == qinv_minus_q * f


def test_markov_invariance_of_G():
    # homfly_G reduces each of these words to 2: 1 1 1, so the words are
    # compared through the unreduced trace
    assert G_unreduced("2: 1 1 1").value == G_unreduced("3: 1 1 1 2").value
    assert G_unreduced("2: 1 1 1").value == G_unreduced("3: 1 1 1 -2").value
    b = parse_braid("2: 1 1 1")
    assert G_unreduced(b.text()).value == G_unreduced(conjugate(b, 1).text()).value


def test_homfly_G_traces_the_reduced_word(monkeypatch):
    import linkhom.homflypt as homflypt

    traced, trace = [], homflypt.markov_trace

    def recorded(h):
        traced.append(h.n)
        return trace(h)

    monkeypatch.setattr(homflypt, "markov_trace", recorded)
    # 5: 1 2 -2 1 1 3 4 -3 reduces to 4: 1 1 1, whose strands 3 and 4 no
    # letter touches; the unreduced path traces all 5 strands
    assert G("5: 1 2 -2 1 1 3 4 -3") == G_unreduced("5: 1 2 -2 1 1 3 4 -3")
    assert traced == [4, 5]


def test_G_distinguishes_mirror_trefoils():
    g = G("2: 1 1 1")
    gm = G("2: -1 -1 -1")
    assert g.value != gm.value
    # in the (q, a) form the mirror inverts both variables
    pa = homfly_skein_form(g)
    pam = homfly_skein_form(gm)
    expected = pa
    for var in ("q", "a"):
        expected = _invert_var(expected, var)
    assert pam == expected


def _invert_var(f: RationalFn, var: str) -> RationalFn:
    value = LaurentPoly.monomial(QA, (-1, 0) if var == "q" else (0, -1))
    return f.substitute(var, value)


def test_trefoil_skein_form_is_standard_homflypt():
    pa = homfly_skein_form(G("2: 1 1 1"))
    # -a^4 + a^2 z^2 + 2 a^2 with z = q - q^-1 equals a^2 q^2 + a^2 q^-2 - a^4
    expected = RationalFn.from_poly(
        LaurentPoly.from_terms(QA, {(2, 2): 1, (-2, 2): 1, (0, 4): -1})
    )
    assert pa == expected


def test_two_variable_skein_in_a_form():
    # a^-1 P(L+) - a P(L-) = (q^-1 - q) P(L0); the quoted two-variable
    # skein a P(L+) - a^-1 P(L-) = (q - q^-1) P(L0) is this identity with
    # both variables inverted.
    rng = random.Random(23)
    zinv = RationalFn.from_poly(LaurentPoly.from_terms(QA, {(-1, 0): 1, (1, 0): -1}))
    a = RationalFn.from_poly(LaurentPoly.monomial(QA, (0, 1)))
    for _ in range(8):
        b = random_word(rng, max_len=5)
        i = rng.randint(1, b.strands - 1)
        p0 = homfly_skein_form(homfly_G(b))
        pp = homfly_skein_form(homfly_G(BraidWord(b.strands, b.letters + (i,))))
        pm = homfly_skein_form(homfly_G(BraidWord(b.strands, b.letters + (-i,))))
        assert pp / a - a * pm == zinv * p0


def test_specialize_unknot():
    for n in (1, 2, 3, 5):
        assert specialize_Gn(G("1:"), n) == LaurentPoly.one(("q",))
        assert specialize_Gn(G("2: 1"), n) == LaurentPoly.one(("q",))


def test_specialize_G2_trefoil_is_jones(monkeypatch):
    g2 = specialize_Gn(G("2: 1 1 1"), 2)
    jones = jones_normalized(braid_closure(parse_braid("2: 1 1 1")))
    assert g2 == jones
    assert verify.fixed_jones_orientation() == "identity"
    assert verify.apply_orientation(jones, "identity") is jones
    with pytest.raises(ValueError, match="unknown Jones orientation 'inverse'"):
        verify.apply_orientation(jones, "inverse")
    # Jones under q -> q^-1: a change of convention is refused, not undone
    mirrored = jones.substitute("q", LaurentPoly.monomial(("q",), -1))
    monkeypatch.setattr(verify, "jones_normalized", lambda d: mirrored)
    with pytest.raises(AssertionError, match="G_2 of the trefoil is not its normalized Jones polynomial"):
        verify.fixed_jones_orientation()


def test_sl_n_skein_on_samples():
    rng = random.Random(29)
    for n in (2, 3):
        for _ in range(10):
            b = random_word(rng, max_len=5)
            i = rng.randint(1, b.strands - 1)
            g0 = specialize_Gn(homfly_G(b), n)
            bp = BraidWord(b.strands, b.letters + (i,))
            bm = BraidWord(b.strands, b.letters + (-i,))
            gp = specialize_Gn(homfly_G(bp), n)
            gm = specialize_Gn(homfly_G(bm), n)
            lhs = gp.shift(-n) - gm.shift(n)
            rhs = LaurentPoly.from_terms(("q",), {-1: 1, 1: -1}) * g0
            assert lhs == rhs


def test_disjoint_union_rule():
    # adding a trivial strand multiplies F by the circle value
    d = loop_value()
    for text in ("2: 1 1 1", "2: 1 1", "3: 1 2 1 2"):
        b = parse_braid(text)
        wide = BraidWord(b.strands + 1, b.letters)
        assert homfly_F(wide).value == homfly_F(b).value * d


def test_wide_edge_trace_single():
    h = wide_edge_expand(2, ["E1"])
    expected = RationalFn(
        tq({(0, 0): 1, (-1, 3): 1}),
        tq({(0, 0): 1, (0, 2): -1}),
    )
    assert markov_trace(h).value == expected
    with pytest.raises(ValueError, match="need strand count >= 1"):
        wide_edge_expand(0, [])


@pytest.mark.parametrize(
    "word, match",
    [([2], "generator index"), ([-2], "generator index"), (["E2"], "generator index"), ([1, 0], "generator index"),
     ([True], "bad token True"), ([1.0], "bad token 1.0"), ([None], "bad token None"),
     (["E"], "malformed number '' in token 'E'"), (["E1.5"], "malformed number '1.5' in token 'E1.5'"),
     (["Ex"], "malformed number 'X' in token 'Ex'"), (["E1_0"], "malformed number '1_0' in token 'E1_0'"),
     (["E\u0661"], "malformed number '\u0661' in token 'E\u0661'")],
    ids=["2", "-2", "E2", "0", "bool", "float", "none", "E", "E1.5", "Ex", "E1_0", "E-arabic-indic"],
)
def test_wide_edge_expand_refuses_bad_tokens(word, match):
    # a token is an int letter or an "Ei" string; True would read as sigma_1
    with pytest.raises(InputError, match=match):
        wide_edge_expand(2, word)


def test_wide_edge_square_absorbs():
    one_plus_q2 = rf(tq({(0, 0): 1, (0, 2): 1}))
    rng = random.Random(31)
    for _ in range(6):
        b = random_word(rng, max_strands=3, max_len=4)
        ctx = list(b.letters)
        sq = wide_edge_expand(b.strands, ctx + ["E1", "E1"])
        single = wide_edge_expand(b.strands, ctx + ["E1"])
        assert markov_trace(sq).value == one_plus_q2 * markov_trace(single).value


def test_wide_edge_triple_relation():
    q2 = rf(tq({(0, 2): 1}))
    rng = random.Random(37)
    for _ in range(5):
        ctx = list(random_word(rng, max_strands=3, max_len=4).letters)
        lhs = markov_trace(wide_edge_expand(3, ctx + ["E1", "E2", "E1"])).value + (
            q2 * markov_trace(wide_edge_expand(3, ctx + ["E2"])).value
        )
        rhs = markov_trace(wide_edge_expand(3, ctx + ["E2", "E1", "E2"])).value + (
            q2 * markov_trace(wide_edge_expand(3, ctx + ["E1"])).value
        )
        assert lhs == rhs


def test_f_denominators_divide_power_of_one_minus_q2():
    rng = random.Random(41)
    probe = tq({(0, 0): 1, (0, 2): -1})  # 1 - q^2
    for _ in range(10):
        b = random_word(rng, max_len=6)
        den = homfly_F(b).value.den
        # den must divide (1-q^2)^k for some k
        power = LaurentPoly.one(TQ)
        for _ in range(b.strands + 1):
            power = power * probe
        assert power.divide_exact(den) is not None


def test_appendix_identities_model_one():
    # U = [n], B = [n-1], b = -q^-1, d = q: U + bB = q^(2n-2) (U + b q^2 B)
    for n in range(2, 6):
        U = quantum_integer(n)
        B = quantum_integer(n - 1)
        b = LaurentPoly.monomial(("q",), -1, -1)
        q2 = LaurentPoly.monomial(("q",), 2)
        lhs = U + b * B
        rhs = LaurentPoly.monomial(("q",), 2 * n - 2) * (U + b * q2 * B)
        assert lhs == rhs
        # equivalent rearrangement: -q^-1 [n-1] U = [n] b B
        assert LaurentPoly.monomial(("q",), -1, -1) * quantum_integer(n - 1) * U == quantum_integer(n) * b * B


def test_appendix_identities_model_two():
    # U = 1+q^2+...+q^(2n-2), B = 1+...+q^(2n), b = -q^-2, d = -1:
    # U + bB = q^(-2n-2) (U + b q^2 B)
    for n in range(2, 6):
        U = LaurentPoly.from_terms(("q",), {2 * i: 1 for i in range(n)})
        B = LaurentPoly.from_terms(("q",), {2 * i: 1 for i in range(n + 1)})
        b = LaurentPoly.monomial(("q",), -2, -1)
        q2 = LaurentPoly.monomial(("q",), 2)
        lhs = U + b * B
        rhs = LaurentPoly.monomial(("q",), -2 * n - 2) * (U + b * q2 * B)
        assert lhs == rhs


def test_specialization_bad_n():
    with pytest.raises(ValueError):
        specialize_Gn(G("2: 1"), 0)


def test_running_sum_division_matches_divide_exact():
    rng = random.Random(34)
    ks = set()
    for _ in range(60):
        g = homfly_G(random_word(rng, max_strands=5, max_len=9))
        for n in (1, 2, 3, 4):
            tval = LaurentPoly.monomial(("q",), 1 - 2 * n, -1)
            num, den = (p._substitute_parts("t", tval)[0] for p in (g.value.num, g.value.den))
            want = num.divide_exact(den)
            assert _over_q2_minus_1(num, den) == want
            assert specialize_Gn(g, n) == (want.shift(n - 1) if g.sqrt_alpha else want)
            ks.add(max(e for (e,) in den.terms) // 2)
    assert {0, 1, 2, 3} <= ks
    q = ("q",)
    q2_minus_1 = LaurentPoly.from_terms(q, {2: 1, 0: -1})
    # a remainder, a denominator of another shape and a zero numerator go
    # to the general division
    assert _over_q2_minus_1(LaurentPoly.monomial(q, 1), q2_minus_1) is None
    assert _over_q2_minus_1(q2_minus_1, q2_minus_1 * q2_minus_1) is None
    assert _over_q2_minus_1(q2_minus_1, LaurentPoly.from_terms(q, {1: 1, 0: -1})) is None
    assert _over_q2_minus_1(LaurentPoly.zero(q), q2_minus_1) is None


def test_specialize_refuses_a_partial_division():
    # at n = 1, t = -q^-1 turns -t q^3 - 1 into q^2 - 1: one of the two
    # factors q^2 - 1 divides out and the other is reported
    value = rf(tq({(1, 3): -1, (0, 0): -1}), tq({(0, 4): 1, (0, 2): -2, (0, 0): 1}))
    with pytest.raises(ArithmeticError, match="^specialization left a denominator: q\\^2 - 1$"):
        specialize_Gn(HomflyValue(value), 1)
    # at n = 2, t = -q^-3 makes the numerator 0
    assert specialize_Gn(HomflyValue(value), 2) == LaurentPoly.zero(("q",))


# ---------------------------------------------------------------------------
# Reference: the Hecke trace with RationalFn coefficients, each sum and
# product reduced on its own, and one circle factor d applied per strand.
# ---------------------------------------------------------------------------


def ref_right_gen(coeffs, i):
    q2, one_minus_q2 = rf(tq({(0, 2): 1})), rf(tq({(0, 0): 1, (0, 2): -1}))
    acc = {}
    for w, c in coeffs.items():
        s = list(w)
        s[i - 1], s[i] = s[i], s[i - 1]
        s = tuple(s)
        if w[i - 1] < w[i]:
            parts = [(s, c)]
        else:
            parts = [(s, c * q2), (w, c * one_minus_q2)]
        for key, v in parts:
            acc[key] = acc[key] + v if key in acc else v
    return {w: c for w, c in acc.items() if not c.is_zero()}


def ref_add(a, b):
    acc = dict(a)
    for w, c in b.items():
        acc[w] = acc[w] + c if w in acc else c
    return {w: c for w, c in acc.items() if not c.is_zero()}


def ref_scaled(coeffs, x):
    return {w: c * x for w, c in coeffs.items()}


def ref_step(coeffs, tok):
    q2, qinv2 = rf(tq({(0, 2): 1})), rf(tq({(0, -2): 1}))
    if isinstance(tok, str):
        return ref_add(ref_right_gen(coeffs, int(tok[1:])), ref_scaled(coeffs, q2))
    if tok > 0:
        return ref_right_gen(coeffs, tok)
    gen = ref_scaled(ref_right_gen(coeffs, -tok), qinv2)
    return ref_add(gen, ref_scaled(coeffs, RationalFn.one(TQ) - qinv2))


def ref_expand(strands, tokens):
    coeffs = {tuple(range(1, strands + 1)): RationalFn.one(TQ)}
    for tok in tokens:
        coeffs = ref_step(coeffs, tok)
    return coeffs


def ref_trace(coeffs, p):
    if p == 1:
        total = RationalFn.zero(TQ)
        for c in coeffs.values():
            total = total + c
        return total
    d = loop_value()
    lower = {}
    for w, c in coeffs.items():
        if w[p - 1] == p:
            lower = ref_add(lower, {w[:-1]: c * d})
            continue
        k = w.index(p) + 1
        elem = {w[:k - 1] + w[k:]: c}
        for gen in range(p - 2, k - 1, -1):
            elem = ref_right_gen(elem, gen)
        lower = ref_add(lower, elem)
    return ref_trace(lower, p - 1)


def random_tokens(rng, strands, max_len=10):
    tokens = []
    for _ in range(rng.randint(0, max_len)):
        i = rng.randint(1, strands - 1)
        tokens.append(rng.choice([i, -i, f"E{i}"]))
    return tokens


def test_hecke_trace_matches_rational_reference():
    rng = random.Random(2006)
    cases = [(1, [])] + [(s, random_tokens(rng, s)) for s in [2, 3, 4, 5] * 10]
    assert any(isinstance(t, str) for _, ts in cases for t in ts)
    for strands, tokens in cases:
        h = wide_edge_expand(strands, tokens)
        ref = ref_expand(strands, tokens)
        assert h.coeffs.keys() == ref.keys()
        for w, c in h.coeffs.items():
            assert isinstance(c, LaurentPoly)
            assert c == ref[w] and c.render() == ref[w].render()
        value = markov_trace(h).value
        want = ref_trace(ref, strands)
        assert value == want
        assert value.render() == want.render()


def test_hecke_trace_matches_rational_reference_on_long_words():
    # 40-60 letters on 2-3 strands: coefficients of high degree whose
    # digits run far beyond those of the short words
    rng = random.Random(1306)
    largest = 0
    for strands in (2, 3, 2, 3, 3):
        gens = [rng.randint(1, strands - 1) for _ in range(rng.randint(40, 60))]
        tokens = [rng.choice([i, -i, f"E{i}"]) for i in gens]
        assert any(isinstance(t, str) for t in tokens) and any(t in range(-9, 0) for t in tokens)
        h = wide_edge_expand(strands, tokens)
        ref = ref_expand(strands, tokens)
        assert h.coeffs == {w: c.as_poly() for w, c in ref.items()}
        largest = max([largest] + [abs(a) for c in h.coeffs.values() for a in c.terms.values()])
        value = markov_trace(h).value
        want = ref_trace(ref, strands)
        assert value == want and value.render() == want.render()
    assert largest > 10**6


def test_packed_digits_decode_up_to_the_edge_of_the_width():
    from linkhom.homflypt import _unpack, _width

    for width in (2, 3, 8, 31, 64):
        top = (1 << (width - 1)) - 1
        assert _width(top) == width
        for digits in ({0: top}, {0: -top}, {0: top, 1: -top, 3: top}, {1: -top, 2: 1, 4: -1, 5: top}):
            packed = sum(d << (width * e) for e, d in digits.items())
            want = [digits.get(e, 0) for e in range(max(digits) + 1)]
            assert _unpack(packed, width) == want
            assert _unpack(-packed, width) == [-d for d in want]


def test_each_word_is_packed_once_at_the_width_it_and_its_trace_need():
    word = (1, -1, "E1", -1, 1) + ("E1",) * 30
    ref = {(1, 2): RationalFn.one(TQ)}
    widths = []
    for n in range(1, len(word) + 1):
        h, ref = wide_edge_expand(2, word[:n]), ref_step(ref, word[n - 1])
        widths.append(h.width)
        assert h.coeffs == {w: v.as_poly() for w, v in ref.items()}
    assert sorted(widths) == widths and len(set(widths)) > 2
    assert markov_trace(h).value == ref_trace(ref, 2)
    assert markov_trace(HeckeElement.identity(5)).value == loop_value() ** 4


def test_G_is_the_reduced_product_of_F_and_a_power_of_alpha():
    rng = random.Random(43)
    for _ in range(16):
        b = random_word(rng, max_len=7)
        omega = sum(1 if w > 0 else -1 for w in b.letters) - b.strands + 1
        want = homfly_F(b).value * alpha_value() ** ((omega - (omega & 1)) // 2)
        got = homfly_G(b)
        assert got.sqrt_alpha == omega & 1
        assert got.value == want and got.value.render() == want.render()


def test_specialize_names_the_reduced_denominator_that_survives():
    one_minus_q2 = tq({(0, 0): 1, (0, 2): -1})
    with pytest.raises(ArithmeticError, match="^specialization left a denominator: q\\^2 - 1$"):
        specialize_Gn(HomflyValue(rf(LaurentPoly.one(TQ), one_minus_q2)), 2)
    value = rf(tq({(0, 0): 1, (-1, 0): 3}), tq({(0, 0): 1, (0, 2): -1, (0, 4): 1}))
    with pytest.raises(ArithmeticError, match="^specialization left a denominator: q\\^4 - q\\^2 \\+ 1$"):
        specialize_Gn(HomflyValue(value, sqrt_alpha=1), 3)


# The rendered G, G_2 and G_3 of every corpus diagram of up to 8 crossings,
# the 10 braids of the homfly benchmark and three 8-9 strand words.  The
# digest was recorded with Hecke coefficients held as LaurentPoly values,
# an implementation independent of the packed one.
PINNED_BRAIDS = (
    "6: -5 -1 5 4 -4 4 2 2 -3 -5 -5 1 1 1 -4",
    "5: 1 3 1 2 3 4 -1 2 -1 -3 -4 -1 -3 2 -4 -1 -3 4",
    "5: -4 2 4 3 4 -1 3 3 -1 1 4 -2 -3 -1 2",
    "6: -2 -3 2 -3 4 3 -1 -2 2 2 5 1 4 -3 -1 5 -3 -5 3 4 -3",
    "5: 4 1 -3 3 1 4 -2 1 -1 -1 -2 -2 3 -2 -4 3 2 1 1",
    "5: -4 -3 4 2 -2 -2 -3 4 1 2 1 1 1 -4 1 2 -2 -2 4 -1 -3",
    "5: -4 1 -2 -1 4 1 1 3 2 2 -2 1 -1 -3 -2 3 4 1 -1 4",
    "5: -1 3 4 -3 1 3 -2 1 -2 -1 -1 -2 -2 -2 3 -2 -3 4 4 -4 2 4",
    "6: 5 -4 -3 4 3 5 4 5 3 -2 -5 -2 -3 5 1 -1 -4 2 -1 3 -2 3",
    "6: -2 2 3 -3 -2 3 -5 1 -5 -1 -3 -4 4 2 -5 2 2 -3 -2",
    "8: 3 -2 6 1 2 4 4 -4 -4 7 -1 -2 6 -5 -4 -6 6 -1 4 -1 3 6 4 5 5 5 4 2 -6 -3 -7 -2 7 5 -6 -6 -5 3 3"
    " -5 7 3 1 -3",
    "9: 5 7 -7 -7 7 3 4 5 1 -6 7 3 -8 -7 2 -2 2 6 8 2 1 6 -2 -6 -6 8 1 3 6 -8 2 4 -8 7 2 -3 -2 -7 -8 1"
    " 1 -2 4 1 -7 4 6 -4 5 -2 -7 5",
    "9: 1 -7 -6 4 -8 4 -1 2 -7 7 -1 1 -3 6 -5 -2 -3 -8 3 6 2 2 -1 -5 -2 -5 -8 5 2 8 6 2 -3 -1 7 -1 4 4"
    " 8 6 7 -4 2 -8 8 -4 2 4 -2",
)


def test_homfly_outputs_match_pinned_digest():
    import hashlib

    from linkhom.corpus import corpus_diagrams

    words = [b.text() for b in corpus_diagrams(max_crossings=8)] + list(PINNED_BRAIDS)
    digest = hashlib.sha256()
    for text in words:
        g = homfly_G(parse_braid(text))
        rows = [text, g.render(), specialize_Gn(g, 2).render(), specialize_Gn(g, 3).render()]
        digest.update(("\n".join(rows) + "\n").encode())
    assert len(words) == 46
    assert digest.hexdigest() == "01276e8aa8346314f07fbf9f253ed4157186fefb4ac4c0dcec3a9b639136466a"


def test_trace_fraction_equals_the_general_reduction():
    # the trace cancels 1 - q^2 by running sums instead of running a gcd; the
    # general reduction of the same value over an extra (1 - q^2)^2 agrees,
    # on the corpus and on the 5-9 strand pinned braids, whose denominators
    # keep up to four powers of 1 - q^2
    one_minus_q2 = tq({(0, 0): 1, (0, 2): -1})
    b2 = one_minus_q2 ** 2
    cancelled, kept = 0, set()
    for b in list(corpus_diagrams()) + [parse_braid(text) for text in PINNED_BRAIDS]:
        v = markov_trace(hecke_normal_form(b)).value
        ref = RationalFn(v.num * b2, v.den * b2)
        assert (v.num, v.den) == (ref.num, ref.den)
        cancelled += v.den.is_one() and b.strands > 1
        kept.add(next(n for n in range(b.strands) if v.den in (one_minus_q2 ** n, -one_minus_q2 ** n)))
    assert cancelled > 0 and max(kept) == 4


def _times_one_minus_Q(p, r):
    """The coefficient list p, lowest first, times (1 - Q)^r."""
    for _ in range(r):
        p = [a - b for a, b in zip(p + [0], [0] + p)]
    return p


def _loop_sum_by_gcd(circles, step, m, low):
    """sum_k P_k (1 + t^-1 q)^(m + k) (1 - Q)^(top - k) over (1 - Q)^top,
    reduced by the general gcd."""
    top = len(circles) - 1
    one_minus_Q, one_plus = tq({(0, 0): 1, (0, step): -1}), tq({(0, 0): 1, (-1, 1): 1})
    num = LaurentPoly.zero(TQ)
    for k, p in enumerate(circles):
        pk = tq({(0, low + step * e): c for e, c in enumerate(p)})
        num = num + pk * one_plus ** (m + k) * one_minus_Q ** (top - k)
    return RationalFn(num, one_minus_Q ** top)


def test_loop_sum_equals_the_general_reduction():
    one_minus_q = tq({(0, 0): 1, (0, 1): -1})
    twice, four_times = _times_one_minus_Q([1], 2), _times_one_minus_Q([1], 4)
    cases = [
        ([[3, 0, -1]], 1, 2, 0),  # top = 0: the numerator alone
        ([[], [0, 0], [], []], 1, 0, 0),  # zero over 1
        ([[], [], [], [1]], 1, 0, 0),  # 1 - q never divides: (1 - q)^3 stays, sign fixed
        ([twice, [], _times_one_minus_Q([2, 1], 2), twice], 1, 1, 0),  # two of three powers cancel
        ([four_times, [], [], four_times], 1, 0, 0),  # every power cancels, one stays in the numerator
        ([[], twice, [], twice], 2, 0, -6),  # Q = q^2, as in the trace
    ]
    # seeded random P_k sharing (1 - Q)^r: no, some or every power cancels
    rng = random.Random(3207)
    for step in (1, 2):
        for m in (0, 3):
            for top in range(5):
                for low in (-2 * step, 0, 3 * step):
                    r = rng.randint(0, top + 1)
                    circles = [_times_one_minus_Q([rng.randint(-3, 3) for _ in range(rng.randint(0, 4))], r)
                               for _ in range(top + 1)]
                    cases.append((circles, step, m, low))
    cancelled = set()  # (step, powers of 1 - Q cancelled, of top)
    for circles, step, m, low in cases:
        got, want = _loop_sum(circles, step, m, low), _loop_sum_by_gcd(circles, step, m, low)
        assert (got.num, got.den) == (want.num, want.den)
        top, n = len(circles) - 1, max(e for _, e in got.den.terms) // step
        cancelled.add((step, "none" if n == top else "all" if n == 0 else "some"))
    assert cancelled == {(step, how) for step in (1, 2) for how in ("none", "some", "all")}
    assert _loop_sum([[], [], [], [1]], 1).den == -one_minus_q ** 3


def test_homfly_and_dg_run_no_generic_division_or_powers(monkeypatch):
    # G and D_G cancel 1 - Q by running sums, and t = -q^(1-2n) or -q a^-2 is
    # a unit monomial, which moves exponents: no exact division, no powers
    braids = ["5: -4 2 4 3 4 -1 3 3 -1 1 4 -2 -3 -1 2", "3: 1 -2 1 -2", "2: 1 1", "4: 1 1 1 2 3"]
    graphs = [Multigraph(4, ((1, 2), (2, 3), (3, 4), (4, 1), (1, 1))), Multigraph(3, ((1, 2), (1, 2), (2, 3)))]
    want_g, want_dg = [G(text) for text in braids], [dichromatic_DG(g) for g in graphs]
    want_n = [(specialize_Gn(g, 2), specialize_Gn(g, 3), homfly_skein_form(g)) for g in want_g]

    def raises(*args):
        raise AssertionError("generic polynomial work ran")

    monkeypatch.setattr(linkhom.polyalg, "_powers", raises)
    with pytest.raises(AssertionError, match="generic polynomial work"):
        tq({(1, 0): 1}).substitute("t", tq({(0, 0): 1, (0, 1): 1}))
    assert [(specialize_Gn(g, 2), specialize_Gn(g, 3), homfly_skein_form(g)) for g in want_g] == want_n
    monkeypatch.setattr(linkhom.polyalg, "_div", raises)
    with pytest.raises(AssertionError, match="generic polynomial work"):
        tq({(0, 0): 1, (0, 2): -1}).divide_exact(tq({(0, 0): 1, (0, 1): 1}))
    assert [G(text) for text in braids] == want_g
    assert [(specialize_Gn(g, 2), specialize_Gn(g, 3)) for g in want_g] == [w[:2] for w in want_n]
    assert [dichromatic_DG(g) for g in graphs] == want_dg


def test_homfly_and_dg_run_no_polynomial_gcd(monkeypatch):
    braids = ["5: -4 2 4 3 4 -1 3 3 -1 1 4 -2 -3 -1 2", "3: 1 -2 1 -2", "2: 1 1", "4: 1 1 1 2 3"]
    graphs = [Multigraph(4, ((1, 2), (2, 3), (3, 4), (4, 1), (1, 1))), Multigraph(3, ((1, 2), (1, 2), (2, 3)))]

    def values():
        out = []
        for text in braids:
            g = G(text)
            stdout = io.StringIO()
            assert run(["homfly", text, "--specialize", "2"], out=stdout, err=io.StringIO()) == 0
            out += [g, specialize_Gn(g, 2), specialize_Gn(g, 3), stdout.getvalue()]
        return out + [dichromatic_DG(g) for g in graphs]

    want = values()

    def no_gcd(a, b):
        raise AssertionError("the general polynomial gcd ran")

    monkeypatch.setattr(linkhom.polyalg, "_gcd", no_gcd)
    with pytest.raises(AssertionError, match="general polynomial gcd"):
        RationalFn(tq({(0, 0): 1, (0, 1): 1}), tq({(0, 0): 1, (0, 2): -1}))
    assert values() == want
