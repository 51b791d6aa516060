"""Exact Laurent polynomial and rational function arithmetic.

Everything is computed over arbitrary-precision integers; there is no
floating point anywhere in this package.  Polynomials carry one or two
named variables with integer exponents; ``terms`` maps each exponent
tuple to its nonzero coefficient.

``LaurentPoly`` arithmetic is plain dict arithmetic on integer
coefficients.  The polynomial gcd runs only where a ``RationalFn`` is
formed: each constructor call reduces its fraction to the canonical form
once, and the ring operations on ``RationalFn`` build one new fraction
each.  Callers that add up many fractions therefore sum numerators over
a common denominator as ``LaurentPoly`` and form a single ``RationalFn``
at the end, as ``substitute`` does (over den^E * num^N); a unit monomial
value (one term, coefficient +-1) only moves exponents, over 1.

The gcd is one primitive polynomial remainder sequence for every arity:
it sees a polynomial as {exponent: coefficient} in its first variable,
each coefficient an int or a polynomial of the same form in the next
variable; the one exact division works on the same form.
``RationalFn._of`` takes a fraction already in canonical form as it is,
with no gcd; ``homflypt`` forms its loop-value sums that way.
"""

from __future__ import annotations

from functools import reduce
from math import gcd
from operator import add, index, sub
from typing import Mapping

__all__ = [
    "LaurentPoly",
    "RationalFn",
    "quantum_integer",
]


def _integer(value) -> int:
    """An exact value as an int: ints and bools pass, floats, fractions
    and strings raise rather than being rounded or parsed."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{value!r} is not an integer") from None


def _key(arity: int, exps) -> tuple[int, ...]:
    if arity == 1 and not isinstance(exps, tuple):
        exps = (exps,)
    if len(exps) != arity:
        raise ValueError(f"expected {arity} exponents, got {exps!r}")
    try:
        return tuple(map(index, exps))
    except TypeError:
        raise ValueError(f"exponents {exps!r} are not integers") from None


class LaurentPoly:
    """Laurent polynomial in one or two named variables.

    Instances are immutable by convention; all operations return fresh
    values.
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
        return cls(variables, {(0,) * len(variables): _integer(c)})

    @classmethod
    def one(cls, variables: tuple[str, ...]) -> "LaurentPoly":
        return cls.constant(variables, 1)

    @classmethod
    def monomial(cls, variables: tuple[str, ...], exps, coeff: int = 1) -> "LaurentPoly":
        return cls(variables, {_key(len(variables), exps): _integer(coeff)})

    @classmethod
    def from_terms(cls, variables: tuple[str, ...], mapping: Mapping) -> "LaurentPoly":
        acc: dict[tuple[int, ...], int] = {}
        arity = len(variables)
        for exps, c in mapping.items():
            k = _key(arity, exps)
            acc[k] = acc.get(k, 0) + _integer(c)
        return cls(variables, acc)

    # ---------- basic queries ----------

    @property
    def arity(self) -> int:
        return len(self.vars)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def is_one(self) -> bool:
        return self.terms == {(0,) * self.arity: 1}

    def min_exps(self) -> tuple[int, ...]:
        """Componentwise minimum of the exponents; zero if empty."""
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
        k0 = _key(self.arity, exps)
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
        """Exact division; raises ValueError when the quotient is not a
        Laurent polynomial.  ``_div`` divides what is left once both
        monomial parts are split off."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero(self.vars)
        (ls, a), (lo, b) = _nested(self), _nested(other)
        quo, low = _flat(_div(a, b)), tuple(map(sub, ls, lo))
        return LaurentPoly(self.vars, {tuple(map(add, k, low)): c for k, c in quo.items()})

    # ---------- substitution ----------

    def substitute(self, which: str, value) -> "RationalFn":
        """Replace a variable by a Laurent polynomial or rational function.

        The remaining variables of self must appear among the variables of
        ``value``; the result is a ``RationalFn`` in ``value.vars``.
        """
        return RationalFn(*self._substitute_parts(which, value))

    def _substitute_parts(self, which: str, value) -> tuple["LaurentPoly", "LaurentPoly"]:
        """Unreduced numerator and denominator of ``substitute``.

        With value = num/den, a term c*m*x^e becomes c*m*num^(N+e)*den^(E-e)
        over the common denominator den^E * num^N, where E and N are the
        largest positive and negative exponents of ``which`` (or 0).  A unit
        monomial value u x^m instead takes c*m*x^e to c*u^e*m*x^(e m), over 1.
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
        if den.is_one() and num.is_monomial():
            (m, u), = num.terms.items()
            if u in (1, -1):
                acc: dict[tuple[int, ...], int] = {}
                for k, c in self.terms.items():
                    e = k[pos]
                    mono = [e * x for x in m]
                    for src, dst in rest_pos:
                        mono[dst] += k[src]
                    key = tuple(mono)
                    acc[key] = acc.get(key, 0) + (-c if u < 0 and e & 1 else c)
                return LaurentPoly(vvars, acc), den
        # exponent of ``which`` -> the rest of each term, in value.vars
        by_exp: dict[int, dict[tuple[int, ...], int]] = {}
        for k, c in self.terms.items():
            mono = [0] * len(vvars)
            for src, dst in rest_pos:
                mono[dst] = k[src]
            by_exp.setdefault(k[pos], {})[tuple(mono)] = c
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
                if e == 1:
                    factors.append(var)
                else:
                    factors.append(f"{var}^{e}" if e > 0 else f"{var}^({e})")
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
        return {"vars": list(self.vars), "terms": terms}


def _powers(p: LaurentPoly, top: int) -> list[LaurentPoly]:
    """[p^0, p^1, ..., p^top]."""
    out = [LaurentPoly.one(p.vars)]
    for _ in range(top):
        out.append(out[-1] * p)
    return out


# ---------------------------------------------------------------------------
# polynomial gcd (used by RationalFn reduction)
# ---------------------------------------------------------------------------


class _Poly(dict):
    """{exponent: coefficient} with nonnegative exponents, each coefficient
    an int or a _Poly in the next variable.  Both kinds of coefficient
    take +, unary - and *, so one set of helpers serves every arity."""

    def __add__(self, other):
        out = _Poly(self)
        for k, c in other.items():
            v = out[k] + c if k in out else c
            if v:
                out[k] = v
            else:
                del out[k]
        return out

    def __neg__(self):
        return _Poly({k: -c for k, c in self.items()})

    def __mul__(self, other):
        out = _Poly()
        for ka, ca in self.items():
            for kb, cb in other.items():
                k, c = ka + kb, ca * cb
                out[k] = out[k] + c if k in out else c
        return _Poly({k: c for k, c in out.items() if c})

    def term(self, e, c):
        """c x^e self, where c is a nonzero coefficient of self."""
        return _Poly({k + e: c * v for k, v in self.items()})


def _div(a, b):
    """The quotient a / b; raises ValueError unless it is exact.  a is
    copied once, and each degree of its top variable, from the top down,
    gives one quotient term, whose multiple of b leaves the degrees below."""
    if isinstance(a, int):
        q, r = divmod(a, b)
        if r:
            raise ValueError("not divisible")
        return q
    db = max(b)
    lb, rest = b[db], [(k - db, -v) for k, v in b.items() if k != db]  # -b below its top, shifted
    a, quo = _Poly(a), _Poly()
    for da in range(max(a), db - 1, -1):
        if da in a:
            c = quo[da - db] = _div(a.pop(da), lb)
            for e, v in rest:
                k, w = da + e, c * v
                w = a.pop(k) + w if k in a else w
                if w:
                    a[k] = w
    if a:
        raise ValueError("not divisible")
    return quo


def _primitive(p: _Poly) -> tuple:
    """The content of p (a gcd of its coefficients) and p divided by it."""
    values = list(p.values())
    g = gcd(*values) if isinstance(values[0], int) else reduce(_gcd, values)
    return g, _Poly({k: _div(c, g) for k, c in p.items()})


def _gcd(a, b):
    """A gcd of nonzero a and b, up to sign, by the primitive polynomial
    remainder sequence (Brown, JACM 1971): the gcd of the contents times
    the last nonzero primitive remainder."""
    if isinstance(a, int):
        return gcd(a, b)
    (ca, a), (cb, b) = _primitive(a), _primitive(b)
    while b:
        # lc(b)^j a minus a multiple of b, of lower degree than b; b is
        # primitive, so lc(b)^j shares no factor with it (a first pass
        # with deg a < deg b only swaps them)
        db, lb = max(b), b[max(b)]
        while a and max(a) >= db:
            da = max(a)
            a = a.term(0, lb) + b.term(da - db, -a[da])
        a, b = b, a and _primitive(a)[1]
    return a.term(0, _gcd(ca, cb))


def _nested(p: LaurentPoly) -> tuple[tuple[int, ...], _Poly]:
    """The least exponents of p, and p over that monomial, nested."""
    low = p.min_exps()
    out = _Poly()
    for k, c in p.terms.items():
        *outer, last = map(sub, k, low)
        inner = out
        for e in outer:
            inner = inner.setdefault(e, _Poly())
        inner[last] = c
    return low, out


def _flat(p) -> dict:
    if isinstance(p, int):
        return {(): p}
    return {(e,) + k: c for e, inner in p.items() for k, c in _flat(inner).items()}


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
        if num.is_zero():
            return num, LaurentPoly.one(num.vars)
        # the denominator's monomial part moves to the numerator
        low = tuple(-e for e in den.min_exps())
        num, den = num.shift(low), den.shift(low)
        if not den.is_one():
            g = LaurentPoly(num.vars, _flat(_gcd(_nested(num)[1], _nested(den)[1])))
            if not (g.is_one() or (-g).is_one()):
                num, den = num.divide_exact(g), den.divide_exact(g)
            if den.lex_leading()[1] < 0:
                num, den = -num, -den
        return num, den

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

    def substitute(self, which: str, value) -> "RationalFn":
        """(a/b) / (c/d) as one fraction: always a ``RationalFn``."""
        a, b = self.num._substitute_parts(which, value)
        c, d = self.den._substitute_parts(which, value)
        if c.is_zero():
            raise ZeroDivisionError("substitution produces division by zero")
        return RationalFn(a * d, b * c)

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


def quantum_integer(k: int) -> LaurentPoly:
    """[k] = q^(k-1) + q^(k-3) + ... + q^(1-k); [0] = 0."""
    if (k := _integer(k)) < 0:
        raise ValueError("quantum integer defined for k >= 0")
    return LaurentPoly.from_terms(("q",), {k - 1 - 2 * i: 1 for i in range(k)})
