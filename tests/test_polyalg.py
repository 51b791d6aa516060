"""Exact arithmetic checks for Laurent polynomials and rational functions."""

from fractions import Fraction
import random

import pytest

from linkhom.polyalg import LaurentPoly, RationalFn, quantum_integer

Q = ("q",)
QT = ("t", "q")


def qp(mapping):
    return LaurentPoly.from_terms(Q, mapping)


def tq(mapping):
    return LaurentPoly.from_terms(QT, mapping)


def test_binomial_square():
    p = qp({1: 1, -1: 1})  # q + q^-1
    assert p * p == qp({2: 1, 0: 2, -2: 1})


def test_additive_inverse_is_empty():
    p = qp({3: 2, -1: 5})
    assert (p + (-p)).is_zero()
    assert (p - p).terms == {}


def test_cancellation_through_rational():
    one_minus_q2 = qp({0: 1, 2: -1})
    d = RationalFn(tq({(0, 0): 1, (-1, 1): 1}), tq({(0, 0): 1, (0, 2): -1}))
    prod = RationalFn.from_poly(tq({(0, 0): 1, (0, 2): -1})) * d
    assert prod == RationalFn.from_poly(tq({(0, 0): 1, (-1, 1): 1}))
    assert prod.den.is_one()


def test_substitute_specialization_value():
    # t -> -q^-3 in (1 + t^-1 q)/(1 - q^2) gives 1 + q^2
    d = RationalFn(tq({(0, 0): 1, (-1, 1): 1}), tq({(0, 0): 1, (0, 2): -1}))
    value = LaurentPoly.monomial(Q, -3, -1)
    out = d.substitute("t", value)
    assert out == qp({0: 1, 2: 1})


def test_substitute_identity_monomial():
    t_itself = tq({(1, 0): 1})
    out = t_itself.substitute("t", LaurentPoly.monomial(Q, -3, -1))
    assert out == qp({-3: -1})


def test_substitute_division_by_zero():
    f = RationalFn(tq({(0, 0): 1}), tq({(1, 0): 1, (0, 0): -1}))  # 1/(t-1)
    with pytest.raises(ZeroDivisionError):
        f.substitute("t", LaurentPoly.one(Q))


@pytest.mark.parametrize("k,expected", [
    (0, {}),
    (1, {0: 1}),
    (2, {1: 1, -1: 1}),
    (3, {2: 1, 0: 1, -2: 1}),
])
def test_quantum_integers(k, expected):
    assert quantum_integer(k) == qp(expected)


def test_quantum_integer_defining_relation():
    qm = qp({1: 1, -1: -1})  # q - q^-1
    for k in range(21):
        expected = LaurentPoly.monomial(Q, k) - LaurentPoly.monomial(Q, -k)
        assert quantum_integer(k) * qm == expected


def test_coefficient_access():
    p = qp({2: 1, 0: 2})
    assert p.coefficient(2) == 1
    assert LaurentPoly.zero(Q).coefficient(1) == 0


def test_terms_are_keyed_by_the_exponents():
    p = LaurentPoly.from_terms(QT, {(2, -3): 5, (0, 1): -1})
    assert p.terms == {(2, -3): 5, (0, 1): -1}
    assert p.shift((-1, 2)).terms == {(1, -1): 5, (-1, 3): -1}
    assert LaurentPoly.monomial(Q, True) == LaurentPoly.monomial(Q, 1) == qp({1: 1})


@pytest.mark.parametrize("e", [Fraction(1, 2), 1.5, Fraction(4, 2)], ids=["half", "float", "whole-fraction"])
def test_non_integer_exponents_are_rejected(e):
    with pytest.raises(ValueError, match="not integers"):
        LaurentPoly.from_terms(Q, {e: 1})
    with pytest.raises(ValueError, match="not integers"):  # a Hecke coefficient q^e is refused here
        LaurentPoly.from_terms(QT, {(0, e): 1})
    with pytest.raises(ValueError, match="not integers"):
        LaurentPoly.monomial(Q, e)
    with pytest.raises(ValueError, match="not integers"):
        qp({1: 1}).shift(e)
    with pytest.raises(ValueError, match="not integers"):
        qp({1: 1}).coefficient(e)


def _random_poly(rng, variables, nterms=4, span=4):
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(-span, span) for _ in variables)
        terms[exps if len(variables) > 1 else exps[0]] = rng.randint(-5, 5)
    return LaurentPoly.from_terms(variables, terms)


def test_ring_axioms_randomized():
    rng = random.Random(7)
    for _ in range(60):
        a = _random_poly(rng, QT)
        b = _random_poly(rng, QT)
        c = _random_poly(rng, QT)
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def test_substitute_is_ring_homomorphism():
    rng = random.Random(11)
    value = qp({-1: 1, 2: -2})
    for _ in range(25):
        a = _random_poly(rng, QT, span=3)
        b = _random_poly(rng, QT, span=3)
        sa, sb = a.substitute("t", value), b.substitute("t", value)
        if isinstance(sa, LaurentPoly):
            sa = RationalFn.from_poly(sa)
        if isinstance(sb, LaurentPoly):
            sb = RationalFn.from_poly(sb)
        prod = (a * b).substitute("t", value)
        if isinstance(prod, LaurentPoly):
            prod = RationalFn.from_poly(prod)
        assert prod == sa * sb


def test_rational_canonical_form_different_factorizations():
    # (1-q^4)/(1-q^2) and (1+q^2) have the same canonical representation
    a = RationalFn(qp({0: 1, 4: -1}), qp({0: 1, 2: -1}))
    b = RationalFn(qp({0: 1, 2: 1}), qp({0: 1}))
    assert a == b
    assert a.num == b.num and a.den == b.den
    # scaling numerator and denominator does not change the representation
    c = RationalFn(qp({1: -3, 5: 3}), qp({1: -3, 3: 3}))
    assert c == a


def test_rational_canonical_form_randomized():
    rng = random.Random(3)
    for _ in range(20):
        n = _random_poly(rng, QT, nterms=3, span=2)
        d = _random_poly(rng, QT, nterms=3, span=2)
        m = _random_poly(rng, QT, nterms=2, span=2)
        if d.is_zero() or m.is_zero():
            continue
        f1 = RationalFn(n, d)
        f2 = RationalFn(n * m, d * m)
        assert f1 == f2
        assert f1.num == f2.num and f1.den == f2.den


def test_laurent_gcd_known_factor():
    # the common factor 1 - q^2 cancels; an integer content stays in the denominator
    f = RationalFn(qp({0: 1, 2: -1}) * qp({0: 1, 2: 1}), qp({0: 1, 2: -1}) * qp({1: 1}))
    assert (f.num, f.den) == (qp({-1: 1, 1: 1}), LaurentPoly.one(Q))
    f = RationalFn(qp({0: 1, 2: -1}) * qp({0: 1, 1: 1}), qp({0: 1, 2: -1}) * qp({1: 3, 2: 3}))
    assert (f.num, f.den) == (qp({-1: 1}), qp({0: 3}))


def test_divide_exact_and_failure():
    p = qp({0: 1, 2: 2, 4: 1})
    d = qp({0: 1, 2: 1})
    assert p.divide_exact(d) == d
    with pytest.raises(ValueError):
        qp({0: 1, 1: 1}).divide_exact(qp({0: 2}))


def test_divide_exact_raises_where_the_quotient_is_a_power_series():
    # 1 / (1 - q^2) = 1 + q^2 + q^4 + ... : the division would run forever
    with pytest.raises(ValueError):
        LaurentPoly.one(Q).divide_exact(qp({0: 1, 2: -1}))
    with pytest.raises(ValueError):
        qp({-3: 2, 5: 1}).divide_exact(qp({0: 1, 1: 1}))
    # (1 + t) / (1 - q) walks t q^-1, t q^-2, ... while staying lex above
    # the least exponent, so only the bound on each variable stops it
    with pytest.raises(ValueError):
        tq({(0, 0): 1, (1, 0): 1}).divide_exact(tq({(0, 0): 1, (0, 1): -1}))
    with pytest.raises(ValueError):
        tq({(1, -2): 1}).divide_exact(tq({(1, 1): 1, (0, 0): 1}))


def test_divide_exact_recovers_random_factors():
    rng = random.Random(5)
    for variables in (Q, QT) * 20:
        a = _random_poly(rng, variables)
        b = _random_poly(rng, variables)
        if b.is_zero():
            continue
        assert (a * b).divide_exact(b) == a


def test_arity_mismatch_raises():
    with pytest.raises(ValueError):
        qp({0: 1}) + tq({(0, 0): 1})


def test_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        RationalFn(qp({0: 1}), LaurentPoly.zero(Q))


def test_render_and_json():
    p = LaurentPoly.from_terms(QT, {(1, 0): -1, (0, 2): 3})
    s = p.render()
    assert "3*q^2" in s and "t" in s
    js = p.to_json()
    assert js == {"vars": ["t", "q"], "terms": [{"t": 0, "q": 2, "c": 3}, {"t": 1, "q": 0, "c": -1}]}


def test_pow_negative_monomial():
    m = qp({2: -1})
    assert m ** -2 == qp({-4: 1})
    with pytest.raises(ValueError):
        qp({0: 1, 2: 1}) ** -1


def test_mixed_type_equality_and_hash():
    rng = random.Random(5)
    for _ in range(20):
        p = _random_poly(rng, QT)
        r = RationalFn.from_poly(p)
        assert r == p and p == r
        assert not (r != p) and not (p != r)
        assert hash(r) == hash(p)
        assert len({p, r}) == 1
    f = RationalFn(tq({(0, 0): 1}), tq({(0, 0): 1, (0, 1): 1}))
    assert f != f.num and f.num != f
    assert len({f, f.num}) == 2


def _termwise_substitute(p, which, value):
    """Reference: one reduced RationalFn per term, added one at a time."""
    vvars = value.vars
    if isinstance(value, LaurentPoly):
        value = RationalFn.from_poly(value)
    pos = p.vars.index(which)
    total = RationalFn.zero(vvars)
    for k, c in p.terms.items():
        mono = [0] * len(vvars)
        for i, v in enumerate(p.vars):
            if v != which:
                mono[vvars.index(v)] = k[i]
        total = total + value ** k[pos] * RationalFn.from_poly(LaurentPoly(vvars, {tuple(mono): c}))
    return total.num if total.den.is_one() else total


def _termwise_substitute_fn(f, which, value):
    n = _termwise_substitute(f.num, which, value)
    d = _termwise_substitute(f.den, which, value)
    out = (n if isinstance(n, RationalFn) else RationalFn.from_poly(n)) / d
    return out.num if out.den.is_one() else out


def test_substitute_matches_termwise_fold():
    rng = random.Random(17)
    QA = ("q", "a")
    values = [
        LaurentPoly.monomial(Q, -3, -1),
        qp({-1: 1, 2: -2}),
        RationalFn(qp({0: 1, 1: 1}), qp({0: 1, 2: -1})),
        RationalFn(qp({1: 2}), qp({0: 3, 1: 1})),
        LaurentPoly.monomial(QA, (1, -2), -1),
        RationalFn(LaurentPoly.from_terms(QA, {(1, 0): 1}), LaurentPoly.from_terms(QA, {(0, 1): 1, (1, 1): -1})),
    ]
    negative = 0
    for _ in range(30):
        a = _random_poly(rng, QT, nterms=5, span=3)
        b = _random_poly(rng, QT, nterms=3, span=2)
        negative += any(k[0] < 0 for k in a.terms)
        for value in values:
            got = a.substitute("t", value)
            want = _termwise_substitute(a, "t", value)
            assert type(got) is type(want)
            assert got == want and got.render() == want.render()
            # a rational value in (q, a) makes both sides run large
            # bivariate gcds here; it is covered on LaurentPoly inputs
            if b.is_zero() or value is values[-1]:
                continue
            f = RationalFn(a, b)
            try:
                want = _termwise_substitute_fn(f, "t", value)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    f.substitute("t", value)
                continue
            got = f.substitute("t", value)
            assert type(got) is type(want)
            assert got == want and got.render() == want.render()
    assert negative > 10


def test_substitute_zero_into_negative_exponent():
    with pytest.raises(ZeroDivisionError):
        tq({(-1, 0): 1, (1, 1): 1}).substitute("t", LaurentPoly.zero(Q))
    assert tq({(0, 1): 3, (2, 0): 1}).substitute("t", LaurentPoly.zero(Q)) == qp({1: 3})


def _reduction_sweep():
    """Seeded RationalFn(num * m, den * m) constructions in one and two
    variables: m is a common polynomial factor, an integer content, a
    content polynomial in the second variable, or 1, and every third
    denominator is negated, which makes some lex-leading terms negative."""
    rng = random.Random(23)
    for i in range(160):
        variables = (Q, QT)[i % 2]
        num = _random_poly(rng, variables, nterms=3, span=3)
        den = _random_poly(rng, variables, nterms=3, span=2)
        if den.is_zero():
            continue
        kind = i // 2 % 4
        if kind == 0:
            m = _random_poly(rng, variables, nterms=2, span=2)
        elif kind == 1:
            m = LaurentPoly.constant(variables, rng.choice([2, 3, 6, -4]))
        elif kind == 2:  # a polynomial in q alone: content in the second variable
            m = LaurentPoly(variables, {(0,) * (len(variables) - 1) + (e,): rng.randint(1, 3) for e in range(rng.randint(1, 3))})
        else:
            m = LaurentPoly.one(variables)
        if m.is_zero():
            continue
        if i % 3 == 0:
            den = -den
        yield RationalFn(num * m, den * m)


def test_rational_reduction_sweep_matches_pinned_digest():
    # the digest was taken while each arity had its own hand-written gcd
    import hashlib
    import json

    digest, count, reduced = hashlib.sha256(), 0, 0
    for f in _reduction_sweep():
        digest.update(f"{f.render()}\n{json.dumps(f.to_json(), sort_keys=True)}\n".encode())
        count += 1
        reduced += not f.den.is_one()
    assert (count, reduced, digest.hexdigest()) == (
        159, 154, "29e0ff8bd9d77a7bd7e737893816c7174c2ff14e37b792a29f3a48678e8d25eb")


def test_over_power_edge_cases_equal_the_general_reduction():
    one_minus_q = tq({(0, 0): 1, (0, 1): -1})
    one_plus_t = tq({(0, 0): 1, (1, 0): 1})
    cases = [
        (tq({(-1, 2): 3, (0, 0): -1}), 0),  # n = 0: the numerator alone
        (LaurentPoly.zero(QT), 3),  # zero over 1
        (one_plus_t.shift((2, -1)), 3),  # base never divides: (1 - q)^3 stays, sign fixed
        (one_plus_t * one_minus_q ** 2, 3),  # two of three powers cancel
        (one_plus_t * one_minus_q ** 4, 3),  # every power cancels, one stays in the numerator
    ]
    for num, n in cases:
        got = RationalFn._over_power(num, one_minus_q, n)
        want = RationalFn(num, one_minus_q ** n)
        assert (got.num, got.den) == (want.num, want.den)
    assert RationalFn._over_power(one_plus_t, one_minus_q, 3).den == -one_minus_q ** 3
