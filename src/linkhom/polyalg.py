"""Exact Laurent polynomial and rational function arithmetic.

Everything is computed over arbitrary-precision integers; there is no
floating point anywhere in this package.  Polynomials carry one or two
named variables and admit half-integer exponents, which are stored
internally as doubled integers (the exponent 3/2 is stored as 3).

``LaurentPoly`` arithmetic is plain dict arithmetic on integer
coefficients.  The polynomial gcd runs only where a ``RationalFn`` is
formed: each constructor call reduces its fraction to the canonical form
once, and the ring operations on ``RationalFn`` build one new fraction
each.  Callers that add up many fractions therefore sum numerators over
a common denominator as ``LaurentPoly`` and form a single ``RationalFn``
at the end, as ``substitute`` does (over den^E * num^N).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import add
from typing import Mapping, Union

Exponent = Union[int, Fraction]

__all__ = [
    "LaurentPoly",
    "RationalFn",
    "quantum_integer",
]


def _half_steps(e: Exponent) -> int:
    if type(e) is int:  # the common case; bool and the rest go through Fraction
        return 2 * e
    f = Fraction(e) * 2
    if f.denominator != 1:
        raise ValueError(f"exponent {e!r} is not an integer or half-integer")
    return int(f)


def _key(arity: int, exps) -> tuple[int, ...]:
    if arity == 1 and not isinstance(exps, tuple):
        exps = (exps,)
    if len(exps) != arity:
        raise ValueError(f"expected {arity} exponents, got {exps!r}")
    return tuple(_half_steps(e) for e in exps)


class LaurentPoly:
    """Laurent polynomial in one or two named variables.

    Instances are immutable by convention; all operations return fresh
    values.  Internal exponents count half-steps.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables: tuple[str, ...], terms: Mapping[tuple[int, ...], int] | None = None):
        if not 1 <= len(variables) <= 2:
            raise ValueError("only one- and two-variable polynomials are supported")
        object.__setattr__(self, "vars", tuple(variables))
        cleaned = {}
        if terms:
            for k, c in terms.items():
                if c:
                    cleaned[tuple(k)] = c
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("LaurentPoly is immutable")

    # ---------- constructors ----------

    @classmethod
    def zero(cls, variables: tuple[str, ...]) -> "LaurentPoly":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: tuple[str, ...], c: int) -> "LaurentPoly":
        return cls(variables, {(0,) * len(variables): int(c)})

    @classmethod
    def one(cls, variables: tuple[str, ...]) -> "LaurentPoly":
        return cls.constant(variables, 1)

    @classmethod
    def monomial(cls, variables: tuple[str, ...], exps, coeff: int = 1) -> "LaurentPoly":
        return cls(variables, {_key(len(variables), exps): int(coeff)})

    @classmethod
    def from_terms(cls, variables: tuple[str, ...], mapping: Mapping) -> "LaurentPoly":
        acc: dict[tuple[int, ...], int] = {}
        arity = len(variables)
        for exps, c in mapping.items():
            k = _key(arity, exps)
            acc[k] = acc.get(k, 0) + int(c)
        return cls(variables, acc)

    # ---------- basic queries ----------

    @property
    def arity(self) -> int:
        return len(self.vars)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coefficient(self, exps) -> int:
        return self.terms.get(_key(self.arity, exps), 0)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def is_one(self) -> bool:
        return self.terms == {(0,) * self.arity: 1}

    def content(self) -> int:
        g = 0
        for c in self.terms.values():
            g = gcd(g, abs(c))
        return g

    def min_exps(self) -> tuple[int, ...]:
        """Componentwise minimum of the (half-step) exponents; zero if empty."""
        if not self.terms:
            return (0,) * self.arity
        cols = zip(*self.terms.keys())
        return tuple(min(col) for col in cols)

    def lex_leading(self) -> tuple[tuple[int, ...], int]:
        k = max(self.terms)
        return k, self.terms[k]

    # ---------- arithmetic ----------

    def _check(self, other: "LaurentPoly"):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        acc = dict(self.terms)
        for k, c in other.terms.items():
            v = acc.get(k, 0) + c
            if v:
                acc[k] = v
            else:
                acc.pop(k, None)
        return LaurentPoly(self.vars, acc)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.vars, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        acc: dict[tuple[int, ...], int] = {}
        if len(self.terms) > len(other.terms):
            a, b = other, self
        else:
            a, b = self, other
        for ka, ca in a.terms.items():
            for kb, cb in b.terms.items():
                k = tuple(map(add, ka, kb))
                acc[k] = acc.get(k, 0) + ca * cb
        return LaurentPoly(self.vars, acc)  # drops the terms that cancelled

    def scale(self, c: int) -> "LaurentPoly":
        if not c:
            return LaurentPoly.zero(self.vars)
        return LaurentPoly(self.vars, {k: v * c for k, v in self.terms.items()})

    def shift(self, exps) -> "LaurentPoly":
        """Multiply by the monomial with the given exponents."""
        return self._shift_half(_key(self.arity, exps))

    def _shift_half(self, k0: tuple[int, ...]) -> "LaurentPoly":
        """Multiply by the monomial with the given half-step exponents."""
        return LaurentPoly(self.vars, {tuple(map(add, k, k0)): c for k, c in self.terms.items()})

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            if self.is_monomial():
                (k, c), = self.terms.items()
                if c in (1, -1):
                    inv = LaurentPoly(self.vars, {tuple(-e for e in k): c})
                    return inv ** (-n)
            raise ValueError("negative power of a non-unit Laurent polynomial")
        result = LaurentPoly.one(self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.vars, frozenset(self.terms.items())))

    # ---------- division ----------

    def divide_exact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises ValueError when the quotient is not a Laurent polynomial."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero(self.vars)
        rem = dict(self.terms)
        den = other.terms
        dk = max(den)
        dc = den[dk]
        # least exponents add in a product: exact quotient terms are componentwise >= low
        low = tuple(a - b for a, b in zip(self.min_exps(), other.min_exps()))
        quo: dict[tuple[int, ...], int] = {}
        while rem:
            rk = max(rem)
            rc = rem[rk]
            if rc % dc:
                raise ValueError("not divisible (coefficient)")
            qk = tuple(a - b for a, b in zip(rk, dk))
            if qk[0] < low[0] or qk[-1] < low[-1]:
                raise ValueError("not divisible (the quotient is not a Laurent polynomial)")
            qc = rc // dc
            quo[qk] = qc
            for k, c in den.items():
                kk = tuple(a + b for a, b in zip(qk, k))
                v = rem.get(kk, 0) - qc * c
                if v:
                    rem[kk] = v
                else:
                    rem.pop(kk, None)
        return LaurentPoly(self.vars, quo)

    # ---------- substitution ----------

    def substitute(self, which: str, value):
        """Replace a variable by a Laurent polynomial or rational function.

        The remaining variables of self must appear among the variables of
        ``value``; the result is expressed in ``value.vars``.
        """
        out = RationalFn(*self._substitute_parts(which, value))
        if out.den.is_one():
            return out.num
        return out

    def _substitute_parts(self, which: str, value) -> tuple["LaurentPoly", "LaurentPoly"]:
        """Unreduced numerator and denominator of ``substitute``.

        With value = num/den, a term c*m*x^e becomes c*m*num^(N+e)*den^(E-e)
        over the common denominator den^E * num^N, where E and N are the
        largest positive and negative exponents of ``which`` (or 0).
        """
        if which not in self.vars:
            raise ValueError(f"unknown variable {which!r}")
        vvars = value.vars
        rest = [v for v in self.vars if v != which]
        for v in rest:
            if v not in vvars:
                raise ValueError(f"variable {v!r} missing from substitution value")
        pos = self.vars.index(which)
        rest_pos = [(self.vars.index(v), vvars.index(v)) for v in rest]
        if isinstance(value, RationalFn):
            num, den = value.num, value.den
        else:
            num, den = value, LaurentPoly.one(vvars)
        # exponent of ``which`` -> the rest of each term, in value.vars
        by_exp: dict[int, dict[tuple[int, ...], int]] = {}
        for k, c in self.terms.items():
            if k[pos] & 1:
                raise ValueError("cannot substitute into a half-integer exponent")
            mono = [0] * len(vvars)
            for src, dst in rest_pos:
                mono[dst] = k[src]
            by_exp.setdefault(k[pos] // 2, {})[tuple(mono)] = c
        big_e = max(max(by_exp, default=0), 0)
        big_n = max(-min(by_exp, default=0), 0)
        if big_n and num.is_zero():
            raise ZeroDivisionError("substitution produces division by zero")
        num_pows = _powers(num, big_n + big_e)
        den_pows = _powers(den, big_n + big_e)
        total = LaurentPoly.zero(vvars)
        for e, mono_terms in by_exp.items():
            total = total + LaurentPoly(vvars, mono_terms) * num_pows[big_n + e] * den_pows[big_e - e]
        return total, den_pows[big_e] * num_pows[big_n]

    # ---------- rendering ----------

    def _exp_str(self, e_half: int) -> str:
        if e_half % 2 == 0:
            e = e_half // 2
            return str(e) if e >= 0 else f"({e})"
        return f"({e_half}/2)"

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms, reverse=True):
            c = self.terms[k]
            factors = []
            for var, e in zip(self.vars, k):
                if e == 0:
                    continue
                if e == 2:
                    factors.append(var)
                else:
                    factors.append(f"{var}^{self._exp_str(e)}")
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(c))] + factors)
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    __str__ = render

    def __repr__(self) -> str:
        return f"LaurentPoly({'/'.join(self.vars)}: {self.render()})"

    def to_json(self) -> dict:
        terms = []
        for k in sorted(self.terms):
            entry = {var: e for var, e in zip(self.vars, k)}
            entry["c"] = self.terms[k]
            terms.append(entry)
        return {"vars": list(self.vars), "half_steps": True, "terms": terms}


def _powers(p: LaurentPoly, top: int) -> list[LaurentPoly]:
    """[p^0, p^1, ..., p^top]."""
    out = [LaurentPoly.one(p.vars)]
    for _ in range(top):
        out.append(out[-1] * p)
    return out


# ---------------------------------------------------------------------------
# polynomial gcd (used by RationalFn reduction)
# ---------------------------------------------------------------------------
# Univariate helpers work on dicts {degree: coeff} with nonnegative degrees.


def _c1(p: dict[int, int]) -> int:
    g = 0
    for c in p.values():
        g = gcd(g, abs(c))
    return g


def _pp1(p: dict[int, int]) -> dict[int, int]:
    g = _c1(p)
    if g <= 1:
        return dict(p)
    return {k: c // g for k, c in p.items()}


def _mul1(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            v = out.get(k, 0) + ca * cb
            if v:
                out[k] = v
            else:
                out.pop(k, None)
    return out


def _sub1(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out = dict(a)
    for k, c in b.items():
        v = out.get(k, 0) - c
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def _scale1(a: dict[int, int], c: int) -> dict[int, int]:
    if not c:
        return {}
    return {k: v * c for k, v in a.items()}


def _pos1(p: dict[int, int]) -> dict[int, int]:
    if p and p[max(p)] < 0:
        return {k: -c for k, c in p.items()}
    return dict(p)


def _gcd1(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    # gcd(0, b) = b up to sign, integer content included
    if not a:
        return _pos1(b)
    if not b:
        return _pos1(a)
    ca, cb = _c1(a), _c1(b)
    a, b = _pp1(a), _pp1(b)
    while b:
        da, db = max(a), max(b)
        if da < db:
            a, b = b, a
            continue
        # pseudo-remainder of a by b
        lc = b[max(b)]
        r = _scale1(a, lc ** (da - db + 1))
        while r and max(r) >= db:
            dr = max(r)
            q = r[dr] // b[db]
            if r[dr] % b[db]:
                raise ArithmeticError("pseudo division failed")  # pragma: no cover
            shiftq = {dr - db: q}
            r = _sub1(r, _mul1(shiftq, b))
        a, b = b, _pp1(r)
    g = _pp1(a)
    cg = gcd(ca, cb)
    return _pos1(_scale1(g, cg))


# Bivariate polynomials as dicts {main_degree: {second_degree: coeff}}.


def _c2(p: dict[int, dict[int, int]]) -> dict[int, int]:
    out: dict[int, int] = {}
    for coeff in p.values():
        out = _gcd1(out, coeff)
        if out == {0: 1}:
            break
    return out


def _div1_exact(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Exact univariate division (raises if not exact)."""
    if not a:
        return {}
    rem = dict(a)
    db = max(b)
    quo: dict[int, int] = {}
    while rem:
        dr = max(rem)
        if dr < db or rem[dr] % b[db]:
            raise ValueError("not divisible")
        q = rem[dr] // b[db]
        quo[dr - db] = q
        rem = _sub1(rem, _mul1({dr - db: q}, b))
    return quo


def _pp2(p: dict[int, dict[int, int]]) -> dict[int, dict[int, int]]:
    cont = _c2(p)
    if not p or cont == {0: 1}:
        return {k: dict(v) for k, v in p.items()}
    return {k: _div1_exact(v, cont) for k, v in p.items()}


def _mul2(a, b):
    out: dict[int, dict[int, int]] = {}
    for ka, ca in a.items():
        neg = _scale1(ca, -1)
        for kb, cb in b.items():
            out[ka + kb] = _sub1(out.get(ka + kb, {}), _mul1(neg, cb))
    return {k: v for k, v in out.items() if v}


def _sub2(a, b):
    out = dict(a)
    for k, coeff in b.items():
        out[k] = _sub1(out.get(k, {}), coeff)
    return {k: v for k, v in out.items() if v}


def _gcd2(a, b):
    if not a:
        return {k: dict(v) for k, v in b.items()}
    if not b:
        return {k: dict(v) for k, v in a.items()}
    ca, cb = _c2(a), _c2(b)
    a, b = _pp2(a), _pp2(b)
    while b:
        da, db = max(a), max(b)
        if da < db:
            a, b = b, a
            continue
        lc = b[max(b)]
        r = {k: _mul1(v, _pow1(lc, da - db + 1)) for k, v in a.items()}
        while r and max(r) >= db:
            dr = max(r)
            lr = r[dr]
            lb = b[db]
            q = _div1_exact(lr, lb)
            r = _sub2(r, _mul2({dr - db: q}, b))
        a, b = b, _pp2(r)
    g = _pp2(a)
    cg = _gcd1(ca, cb)
    return _mul2(g, {0: cg})


def _pow1(p: dict[int, int], n: int) -> dict[int, int]:
    out = {0: 1}
    for _ in range(n):
        out = _mul1(out, p)
    return out


def laurent_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """A gcd of two Laurent polynomials, as an ordinary polynomial with
    minimal exponents zero (unique up to sign)."""
    if a.vars != b.vars:
        raise ValueError("variable mismatch")
    variables = a.vars
    if a.is_zero() and b.is_zero():
        return LaurentPoly.zero(variables)

    def shifted(p: LaurentPoly):
        m = p.min_exps()
        return {tuple(e - me for e, me in zip(k, m)): c for k, c in p.terms.items()}

    ta, tb = shifted(a), shifted(b)
    if len(variables) == 1:
        g = _gcd1({k[0]: c for k, c in ta.items()}, {k[0]: c for k, c in tb.items()})
        poly = LaurentPoly(variables, {(k,): c for k, c in g.items()})
    else:
        def nest(t):
            out: dict[int, dict[int, int]] = {}
            for (e0, e1), c in t.items():
                out.setdefault(e0, {})[e1] = c
            return out

        g2 = _gcd2(nest(ta), nest(tb))
        flat = {(e0, e1): c for e0, coeff in g2.items() for e1, c in coeff.items()}
        poly = LaurentPoly(variables, flat)
    if poly.is_zero():
        return poly
    # normalize minimal exponents to zero and the lex-greatest coefficient positive
    poly = poly._shift_half(tuple(-e for e in poly.min_exps()))
    if poly.lex_leading()[1] < 0:
        poly = -poly
    return poly


class RationalFn:
    """Reduced fraction of Laurent polynomials.

    Canonical form: the denominator is an ordinary polynomial with minimal
    exponents zero whose lexicographically greatest term has a positive
    coefficient; numerator and denominator share no polynomial factor and
    no integer content.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        if num.vars != den.vars:
            raise ValueError("variable mismatch")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        num, den = self._reduce(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("RationalFn is immutable")

    @staticmethod
    def _reduce(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
        variables = num.vars
        if num.is_zero():
            return num, LaurentPoly.one(variables)
        # strip the monomial parts
        mn = num.min_exps()
        md = den.min_exps()
        unit = tuple(a - b for a, b in zip(mn, md))
        nshift = num._shift_half(tuple(-e for e in mn))
        dshift = den._shift_half(tuple(-e for e in md))
        if not dshift.is_one():
            g = laurent_gcd(nshift, dshift)
            if not g.is_one():
                nshift = nshift.divide_exact(g)
                dshift = dshift.divide_exact(g)
            if dshift.lex_leading()[1] < 0:
                nshift, dshift = -nshift, -dshift
        return nshift._shift_half(unit), dshift

    # ---------- constructors ----------

    @classmethod
    def _of(cls, num: LaurentPoly, den: LaurentPoly) -> "RationalFn":
        """A fraction already in canonical form, taken as it is (no gcd)."""
        out = object.__new__(cls)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", den)
        return out

    @classmethod
    def zero(cls, variables: tuple[str, ...]) -> "RationalFn":
        return cls(LaurentPoly.zero(variables), LaurentPoly.one(variables))

    @classmethod
    def one(cls, variables: tuple[str, ...]) -> "RationalFn":
        return cls(LaurentPoly.one(variables), LaurentPoly.one(variables))

    @classmethod
    def from_poly(cls, p: LaurentPoly) -> "RationalFn":
        return cls(p, LaurentPoly.one(p.vars))

    # ---------- queries ----------

    @property
    def vars(self) -> tuple[str, ...]:
        return self.num.vars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return bool(self.num)

    def as_poly(self) -> LaurentPoly:
        if not self.den.is_one():
            raise ValueError(f"not a polynomial: denominator {self.den}")
        return self.num

    # ---------- arithmetic ----------

    def __add__(self, other: "RationalFn") -> "RationalFn":
        other = self._coerce(other)
        return RationalFn(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RationalFn") -> "RationalFn":
        other = self._coerce(other)
        return RationalFn(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RationalFn":
        return RationalFn(-self.num, self.den)

    def __mul__(self, other: "RationalFn") -> "RationalFn":
        other = self._coerce(other)
        return RationalFn(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFn") -> "RationalFn":
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFn(self.num * other.den, self.den * other.num)

    def _coerce(self, other) -> "RationalFn":
        if isinstance(other, LaurentPoly):
            return RationalFn.from_poly(other)
        return other

    def __pow__(self, n: int) -> "RationalFn":
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return RationalFn(self.den ** (-n), self.num ** (-n))
        return RationalFn(self.num ** n, self.den ** n)

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            other = RationalFn.from_poly(other)
        return (
            isinstance(other, RationalFn)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        # equal to the hash of the numerator when that is the whole value,
        # since such a value compares equal to its LaurentPoly
        if self.den.is_one():
            return hash(self.num)
        return hash((self.num, self.den))

    # ---------- substitution ----------

    def substitute(self, which: str, value):
        # (a/b) / (c/d) as one fraction
        a, b = self.num._substitute_parts(which, value)
        c, d = self.den._substitute_parts(which, value)
        if c.is_zero():
            raise ZeroDivisionError("substitution produces division by zero")
        out = RationalFn(a * d, b * c)
        if out.den.is_one():
            return out.num
        return out

    # ---------- rendering ----------

    def render(self) -> str:
        if self.den.is_one():
            return self.num.render()
        return f"({self.num.render()}) / ({self.den.render()})"

    __str__ = render

    def __repr__(self) -> str:
        return f"RationalFn({self.render()})"

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}


# ---------------------------------------------------------------------------
# module-level operation helpers
# ---------------------------------------------------------------------------


def quantum_integer(k: int, var: str = "q") -> LaurentPoly:
    """[k] = q^(k-1) + q^(k-3) + ... + q^(1-k); [0] = 0."""
    if k < 0:
        raise ValueError("quantum integer defined for k >= 0")
    return LaurentPoly.from_terms((var,), {k - 1 - 2 * i: 1 for i in range(k)})
