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
at the end, as ``substitute`` does (over den^E * num^N).

The gcd is one primitive polynomial remainder sequence for every arity:
it sees a polynomial as {exponent: coefficient} in its first variable,
each coefficient an int or a polynomial of the same form in the next
variable.  Where the denominator is a known power base^n and nothing but
base itself can cancel, ``RationalFn._over_power`` divides base out of
the numerator instead and runs no gcd: the HOMFLYPT trace (base 1 - q^2)
and the graph series D_G (base 1 - q) are formed that way.
"""

from __future__ import annotations

from functools import reduce
from math import gcd
from operator import add, index
from typing import Mapping

__all__ = [
    "LaurentPoly",
    "RationalFn",
    "quantum_integer",
]


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
    """The quotient a / b; raises ValueError unless it is exact."""
    if isinstance(a, int):
        q, r = divmod(a, b)
        if r:
            raise ValueError("not divisible")
        return q
    db, quo = max(b), _Poly()
    while a:
        da = max(a)
        if da < db:
            raise ValueError("not divisible")
        quo[da - db] = c = _div(a[da], b[db])
        a = a + b.term(da - db, -c)
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


def _nested(p: LaurentPoly) -> _Poly:
    out = _Poly()
    for k, c in p.terms.items():
        inner = out
        for e in k[:-1]:
            inner = inner.setdefault(e, _Poly())
        inner[k[-1]] = c
    return out


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
        variables = num.vars
        if num.is_zero():
            return num, LaurentPoly.one(variables)
        # strip the monomial parts
        mn = num.min_exps()
        md = den.min_exps()
        unit = tuple(a - b for a, b in zip(mn, md))
        nshift = num.shift(tuple(-e for e in mn))
        dshift = den.shift(tuple(-e for e in md))
        if not dshift.is_one():
            g = LaurentPoly(variables, _flat(_gcd(_nested(nshift), _nested(dshift))))
            if not (g.is_one() or (-g).is_one()):
                nshift = nshift.divide_exact(g)
                dshift = dshift.divide_exact(g)
            if dshift.lex_leading()[1] < 0:
                nshift, dshift = -nshift, -dshift
        return nshift.shift(unit), dshift

    # ---------- constructors ----------

    @classmethod
    def _of(cls, num: LaurentPoly, den: LaurentPoly) -> "RationalFn":
        """A fraction already in canonical form, taken as it is (no gcd)."""
        out = object.__new__(cls)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", den)
        return out

    @classmethod
    def _over_power(cls, num: LaurentPoly, base: LaurentPoly, n: int) -> "RationalFn":
        """num / base^n in canonical form, by dividing base out of num while
        it divides (no gcd).  The caller shows that base has minimal
        exponents zero and integer content 1, and that num shares no factor
        with base other than powers of base itself."""
        while n:
            try:
                num = num.divide_exact(base)
            except ValueError:
                break
            n -= 1
        den = base ** n
        if den.lex_leading()[1] < 0:
            num, den = -num, -den
        return cls._of(num, den)

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
