"""HOMFLYPT polynomial via a Hecke-algebra trace on braid closures.

Elements of the algebra are expanded on the permutation basis T_w; the
quadratic relation T_i^2 = q^2 + (1 - q^2) T_i (eigenvalues 1 and -q^2)
and the inverse expansion T_i^-1 = q^-2 T_i - q^-2 + 1 follow from the
skein normalization used throughout.  Neither brings in a denominator or
a power of t, so each coefficient lies in Z[Q^+-1] with Q = q^2.

An element keeps an offset L >= 0 and a width W, and packs each
coefficient c into one int: Q^L c(Q) at Q = 2^W, whose balanced base-2^W
digits are the coefficients.  Multiplying by Q is c << W, by 1 - Q is
c - (c << W), and a sum is one int add.  A digit below 2^(W-1) in
magnitude decodes uniquely, so an element also carries a bound on the
L1 norm of all its coefficients: T_i, Q T_i^-1 (used for T_i^-1, with L
raised by one) and E_i each at most triple it.  An operation whose bound
could reach 2^(W-1) first re-packs the element at a width derived from
the bound; a word is packed once at the width that it and its trace need.

The trace eliminates one strand at a time: a basis permutation either
fixes the last point (closing a free circle, of value d = (1 + t^-1 q)/(1 - q^2))
or factors uniquely through the top transposition.  Terms are kept apart
by the number k of circles closed, so the trace is sum_k P_k d^k with
P_k in Z[Q^+-1], formed as one numerator over (1 - q^2)^K that cancels
1 - q^2 while it divides; no polynomial gcd runs.

Wide edges E_i (trivalent resolutions between strands i and i+1) expand
as T_i + q^2, which lets braid words over sigma/E letters be evaluated
by the same trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

from .linkdiag import BraidWord, InputError
from .polyalg import LaurentPoly, RationalFn

__all__ = [
    "HeckeElement",
    "HomflyValue",
    "hecke_normal_form",
    "wide_edge_expand",
    "markov_trace",
    "homfly_F",
    "homfly_G",
    "specialize_Gn",
    "homfly_skein_form",
    "loop_value",
]

TQ = ("t", "q")

Perm = tuple[int, ...]


_ONE_MINUS_Q2 = LaurentPoly.from_terms(TQ, {(0, 0): 1, (0, 2): -1})
_ONE_PLUS_TINV_Q = LaurentPoly.from_terms(TQ, {(0, 0): 1, (-1, 1): 1})

_T, _QT_INV, _E = 0, 1, 2  # the kernel's right factors: T_i, Q T_i^-1 = T_i - 1 + Q, E_i = T_i + Q


def loop_value() -> RationalFn:
    """Value of a disjoint free circle: (1 + t^-1 q) / (1 - q^2)."""
    return RationalFn(_ONE_PLUS_TINV_Q, _ONE_MINUS_Q2)


def alpha_value() -> RationalFn:
    """alpha = -t^-1 q^-1."""
    return RationalFn.from_poly(LaurentPoly.monomial(TQ, (-1, -1), -1))


def _width(bound: int) -> int:
    """The least width W with bound < 2^(W-1)."""
    return bound.bit_length() + 1


def _unpack(c: int, width: int) -> dict[int, int]:
    """The nonzero balanced base-2^width digits of c, by exponent."""
    half, mask, digits, e = 1 << (width - 1), (1 << width) - 1, {}, 0
    while c:
        digits[e] = ((c + half) & mask) - half
        c, e = (c + half) >> width, e + 1
    return {e: d for e, d in digits.items() if d}


def _right(terms: dict[Perm, int], i: int, width: int, kind: int) -> dict[Perm, int]:
    """Packed coefficients times T_i, Q T_i^-1 or E_i on the right.  With s = w s_i,
    T_w T_i is T_s if w[i-1] < w[i], else Q T_s + (1 - Q) T_w; so Q T_w T_i^-1 is
    T_s + (Q - 1) T_w or Q T_s, and T_w E_i is T_s + Q T_w or Q T_s + T_w."""
    acc: dict[Perm, int] = {}
    get = acc.get
    for w, c in terms.items():
        a, b = w[i - 1], w[i]
        s = w[:i - 1] + (b, a) + w[i + 1:]
        cq = c << width
        if a < b:
            acc[s] = get(s, 0) + c
            if kind != _T:
                acc[w] = get(w, 0) + (cq - c if kind == _QT_INV else cq)
        else:
            acc[s] = get(s, 0) + cq
            if kind != _QT_INV:
                acc[w] = get(w, 0) + (c - cq if kind == _T else c)
    return {w: c for w, c in acc.items() if c}


class HeckeElement:
    """Linear combination of permutation basis elements T_w, with
    coefficients in Z[q^+-2] packed as the module docstring describes."""

    __slots__ = ("n", "terms", "shift", "width", "bound")

    def __init__(self, n: int, coeffs: dict[Perm, LaurentPoly | RationalFn] | None = None):
        if n < 1:
            raise ValueError("need at least one strand")
        digits = {}  # w -> {e: a} with the coefficient sum of a Q^e
        for w, c in (coeffs or {}).items():
            c = c.as_poly() if isinstance(c, RationalFn) else c
            if c.vars != TQ or any(k[0] or k[1] % 2 for k in c.terms):
                raise ValueError(f"Hecke coefficient {c} is not in Z[q^+-2]")
            digits[w] = {k[1] // 2: a for k, a in c.terms.items()}
        bound = sum(abs(a) for d in digits.values() for a in d.values())
        L, W = max(0, max((-e for d in digits.values() for e in d), default=0)), _width(bound)
        terms = {w: c for w, d in digits.items() if (c := sum(a << (W * (e + L)) for e, a in d.items()))}
        self.n, self.terms, self.shift, self.width, self.bound = n, terms, L, W, bound

    @classmethod
    def _of(cls, n: int, terms: dict[Perm, int], shift: int, width: int, bound: int) -> "HeckeElement":
        h = object.__new__(cls)
        h.n, h.terms, h.shift, h.width, h.bound = n, terms, shift, width, bound
        return h

    @classmethod
    def identity(cls, n: int) -> "HeckeElement":
        return cls(n, {tuple(range(1, n + 1)): LaurentPoly.one(TQ)})

    @property
    def coeffs(self) -> dict[Perm, LaurentPoly]:
        L, W = self.shift, self.width
        return {w: LaurentPoly(TQ, {(0, 2 * (e - L)): a for e, a in _unpack(c, W).items()})
                for w, c in self.terms.items()}

    def _room(self, growth: int) -> "HeckeElement":
        """This element, re-packed at twice the width that growth times its
        bound needs if that product could reach 2^(W-1)."""
        bound = self.bound * growth
        if bound < 1 << (self.width - 1):
            return self
        width = 2 * _width(bound)
        terms = {w: sum(a << (width * e) for e, a in _unpack(c, self.width).items()) for w, c in self.terms.items()}
        return HeckeElement._of(self.n, terms, self.shift, width, self.bound)

    def _times(self, i: int, kind: int) -> "HeckeElement":
        if not 1 <= i < self.n:
            raise ValueError(f"generator index {i} out of range")
        h = self._room(3)
        terms = _right(h.terms, i, h.width, kind)
        return HeckeElement._of(self.n, terms, h.shift + (kind == _QT_INV), h.width, 3 * h.bound)

    def right_gen(self, i: int) -> "HeckeElement":
        """Multiply by T_i on the right."""
        return self._times(i, _T)

    def right_gen_inverse(self, i: int) -> "HeckeElement":
        """Multiply by T_i^-1 = q^-2 T_i - q^-2 + 1 on the right."""
        return self._times(i, _QT_INV)

    def right_wide(self, i: int) -> "HeckeElement":
        """Multiply by the wide edge E_i = T_i + q^2 on the right."""
        return self._times(i, _E)

    def __eq__(self, other) -> bool:
        return isinstance(other, HeckeElement) and self.n == other.n and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        if not self.terms:
            return f"HeckeElement({self.n}: 0)"
        parts = [f"T{w}*({c})" for w, c in sorted(self.coeffs.items())]
        return f"HeckeElement({self.n}: " + " + ".join(parts) + ")"


def _trace_growth(n: int) -> int:
    """Growth of the bound in an n-strand trace: 3 per right_gen, then 2^(n-1)."""
    return 3 ** ((n - 1) * (n - 2) // 2) << (n - 1)


def hecke_normal_form(b: BraidWord) -> HeckeElement:
    """Image of a braid word on the permutation basis."""
    return wide_edge_expand(b.strands, b.letters)


def wide_edge_expand(strands: int, tokens: Sequence) -> HeckeElement:
    """Evaluate a word over sigma_i, sigma_i^-1, and wide edges E_i.

    Tokens are integers (+-i for braid letters) or strings "Ei" for the
    wide edge between strands i and i+1.
    """
    # packed once at the width that the word and its trace need (1 is the same int at every width)
    width = _width(3 ** len(tokens) * _trace_growth(strands))
    h = HeckeElement._of(strands, HeckeElement.identity(strands).terms, 0, width, 1)
    for tok in tokens:
        if isinstance(tok, str):
            t = tok.strip().upper()
            if not t.startswith("E"):
                raise ValueError(f"bad token {tok!r}")
            h = h._times(int(t[1:]), _E)
        else:
            h = h._times(abs(tok), _T if tok > 0 else _QT_INV)
    return h


@dataclass(frozen=True)
class HomflyValue:
    """Value in q, t with an optional overall half power of alpha.

    The represented quantity is value * sqrt(alpha)^sqrt_alpha with
    alpha = -t^-1 q^-1; sqrt_alpha is 0 or 1 and omega records the full
    writhe-minus-strands normalization exponent when known.
    """

    value: RationalFn
    sqrt_alpha: int = 0
    omega: int | None = None

    def __post_init__(self):
        if self.sqrt_alpha not in (0, 1):
            raise ValueError("sqrt_alpha must be 0 or 1")

    def render(self) -> str:
        if self.sqrt_alpha:
            return f"({self.value.render()}) * sqrt(-1/(t*q))"
        return self.value.render()

    __str__ = render


def markov_trace(h: HeckeElement) -> HomflyValue:
    """Trace normalized so the one-strand unknot has value 1."""
    return HomflyValue(_trace(h))


def _trace(h: HeckeElement) -> RationalFn:
    """Sum of P_k d^k over one reduced fraction, where P_k collects the
    terms that closed k free circles on the way down from n strands."""
    h = h._room(_trace_growth(h.n))
    # (permutation, circles closed so far) -> packed coefficient
    level: dict[tuple[Perm, int], int] = {(w, 0): c for w, c in h.terms.items()}
    for p in range(h.n, 1, -1):
        lower: dict[tuple[Perm, int], int] = {}
        # terms through the top transposition at the same slot and circle
        # count share the generators they are carried through
        through: dict[tuple[int, int], dict[Perm, int]] = {}
        for (w, k), c in level.items():
            if w[p - 1] == p:
                key = (w[:-1], k + 1)
                lower[key] = lower.get(key, 0) + c
                continue
            slot = w.index(p) + 1
            # w = u . s_(p-1) . (s_(p-2) ... s_slot) with u fixing p
            through.setdefault((slot, k), {})[w[:slot - 1] + w[slot:]] = c
        for (slot, k), terms in through.items():
            for gen in range(p - 2, slot - 1, -1):
                terms = _right(terms, gen, h.width, _T)
            for w, c in terms.items():
                lower[(w, k)] = lower.get((w, k), 0) + c
        level = {key: c for key, c in lower.items() if c}
    # with d = (1 + t^-1 q) / (1 - Q), sum_k P_k d^k is
    # sum_j (t^-1 q)^j N_j / (1 - Q)^top with N_j = sum_k C(k, j) P_k (1 - Q)^(top - k)
    by_circles = {k: c for ((_,), k), c in level.items()}  # one term per k, on one strand
    top = max(by_circles, default=0)
    sums: dict[int, int] = {}
    den = 1  # (1 - Q)^(top - k)
    for k in range(top, -1, -1):
        c = by_circles.get(k, 0) * den
        for j in range(k + 1):
            sums[j] = sums.get(j, 0) + comb(k, j) * c
        den -= den << h.width
    num = {(-j, 2 * (e - h.shift) + j): a for j, c in sums.items() for e, a in _unpack(c, h.width).items()}
    # Only 1 - q^2 as a whole can cancel: t -> -t, q -> -q fixes every term
    # t^-j q^(2e+j) of num and swaps 1 - q with 1 + q, so num holds both
    # factors equally often, and (1 - q)^top (1 + q)^top has no other factor.
    return RationalFn._over_power(LaurentPoly(TQ, num), _ONE_MINUS_Q2, top)


def homfly_F(b: BraidWord) -> HomflyValue:
    return markov_trace(hecke_normal_form(b))


def _omega(b: BraidWord) -> int:
    n_plus = sum(1 for w in b.letters if w > 0)
    n_minus = len(b.letters) - n_plus
    return n_plus - n_minus - b.strands + 1


def homfly_G(b: BraidWord) -> HomflyValue:
    """Markov-invariant normalization sqrt(alpha)^omega F with
    omega = n+ - n- - strands + 1."""
    return _normalize_G(homfly_F(b), b)


def _normalize_G(f: HomflyValue, b: BraidWord) -> HomflyValue:
    """G from the F value of the same braid."""
    omega = _omega(b)
    parity = omega & 1
    half_pairs = (omega - parity) // 2
    # alpha^half_pairs = (-1)^half_pairs t^-half_pairs q^-half_pairs is a unit, so
    # it scales F's numerator and leaves the fraction reduced and canonical
    num = f.value.num.shift((-half_pairs, -half_pairs))
    value = RationalFn._of(-num if half_pairs & 1 else num, f.value.den)
    return HomflyValue(value, sqrt_alpha=parity, omega=omega)


def specialize_Gn(g: HomflyValue, n: int) -> LaurentPoly:
    """Set t = -q^(1-2n); sqrt(alpha) becomes q^(n-1).  The result must be
    a Laurent polynomial; a surviving denominator is reported as a defect."""
    if n < 1:
        raise InputError("need n >= 1")
    tval = LaurentPoly.monomial(("q",), 1 - 2 * n, -1)
    a, b = g.value.num._substitute_parts("t", tval)
    c, d = g.value.den._substitute_parts("t", tval)
    num, den = a * d, b * c
    try:
        out = num.divide_exact(den)
    except ValueError:
        raise ArithmeticError(f"specialization left a denominator: {RationalFn(num, den).den}") from None
    if g.sqrt_alpha:
        out = out.shift(n - 1)
    return out


def homfly_skein_form(g: HomflyValue) -> RationalFn:
    """Rewrite in (q, a) with a = q sqrt(alpha), i.e. t = -q a^-2.

    In these variables the value satisfies the two-variable skein
    a^-1 P(L+) - a P(L-) = (q^-1 - q) P(L0); inverting both variables
    gives the usual form a P(L+) - a^-1 P(L-) = (q - q^-1) P(L0).
    """
    QA = ("q", "a")
    tval = LaurentPoly.monomial(QA, (1, -2), -1)
    out = g.value.substitute("t", tval)
    if isinstance(out, LaurentPoly):
        out = RationalFn.from_poly(out)
    if g.sqrt_alpha:
        out = out * RationalFn.from_poly(LaurentPoly.monomial(QA, (-1, 1)))
    return out
