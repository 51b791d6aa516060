"""HOMFLYPT polynomial via a Hecke-algebra trace on braid closures.

Elements of the algebra are expanded on the permutation basis T_w; the
quadratic relation T_i^2 = q^2 + (1 - q^2) T_i (eigenvalues 1 and -q^2)
and the inverse expansion T_i^-1 = q^-2 T_i - q^-2 + 1 follow from the
skein normalization used throughout.  Neither brings in a denominator or
a power of t, so each coefficient lies in Z[Q^+-1] with Q = q^2.

An element is made only from a braid or wide-edge word, and packed once.
Each coefficient c becomes one int, Q^L c(Q) at Q = 2^W, whose balanced
base-2^W digits are the coefficients; L counts the letters T_i^-1, which
are applied as Q T_i^-1.  Multiplying by Q is c << W, by 1 - Q is
c - (c << W), and a sum is one int add.  A digit below 2^(W-1) in
magnitude decodes uniquely.  T_i, Q T_i^-1 and E_i each at most triple
the L1 norm of all the coefficients, and the trace multiplies it by at
most 3^((n-1)(n-2)/2) 2^(n-1), so the word is packed at the least W that
keeps 3^(letters) times that factor below 2^(W-1); no digit outgrows it.

The trace eliminates one strand at a time: a basis permutation either
fixes the last point (closing a free circle, of value d = (1 + t^-1 q)/(1 - q^2))
or factors uniquely through the top transposition.  Terms are kept apart
by the number k of circles closed, so the trace is sum_k P_k d^k with
P_k in Z[Q^+-1].  ``_loop_sum`` forms such a sum of loop-value powers as
one reduced fraction, cancelling 1 - Q by running sums with no
polynomial gcd or division; it also forms d itself and the graph series
D_G, where Q = q.

Wide edges E_i (trivalent resolutions between strands i and i+1) expand
as T_i + q^2, which lets braid words over sigma/E letters be evaluated
by the same trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import comb
from typing import Sequence

from .linkdiag import BraidWord, InputError, _int_in, _int_token, markov_reduce
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


_T, _QT_INV, _E = 0, 1, 2  # the kernel's right factors: T_i, Q T_i^-1 = T_i - 1 + Q, E_i = T_i + Q


def loop_value() -> RationalFn:
    """Value of a disjoint free circle: (1 + t^-1 q) / (1 - q^2)."""
    return _loop_sum([[], [1]], 2)


def alpha_value() -> RationalFn:
    """alpha = -t^-1 q^-1."""
    return RationalFn.from_poly(LaurentPoly.monomial(TQ, (-1, -1), -1))


def _width(bound: int) -> int:
    """The least width W with bound < 2^(W-1)."""
    return bound.bit_length() + 1


def _unpack(c: int, width: int) -> list[int]:
    """The balanced base-2^width digits of c, lowest first."""
    half, mask, digits = 1 << (width - 1), (1 << width) - 1, []
    while c:
        digits.append(((c + half) & mask) - half)
        c = (c + half) >> width
    return digits


def _loop_sum(circles: Sequence[Sequence[int]], step: int, m: int = 0, low: int = 0) -> RationalFn:
    """sum_k P_k d^k (1 + t^-1 q)^m in (t, q), in canonical form, where
    d = (1 + t^-1 q)/(1 - Q), Q = q^step, and P_k is q^low times the
    polynomial in Q whose coefficients, lowest first, are circles[k].

    Over (1 - Q)^top, top = len(circles) - 1, this is sum_j (t^-1 q)^j N_j
    with N_j = sum_k C(m + k, j) P_k (1 - Q)^(top - k).  Each N_j is formed
    as one int at Q = 2^W; its digits are at most 2^(m + top) times the L1
    norm of all the P_k, which fixes W.  The parts (t^-1 q)^j N_j differ in
    t, and 1 - Q does not hold t, so 1 - Q divides the numerator iff it
    divides every N_j, that is iff the coefficients of each sum to 0, and
    then the quotient's coefficients are their running sums.  Nothing else
    cancels when step is 1, or 2 with low even, as every caller has it:
    1 - q is irreducible; and t -> -t, q -> -q fixes every term
    t^-j q^(j + low + 2e) and swaps 1 - q with 1 + q, so the numerator holds
    both factors equally often, and (1 - q^2)^top has no other factor."""
    top = len(circles) - 1
    width = _width(sum(abs(c) for p in circles for c in p) << (m + top))
    sums = [0] * (m + top + 1)
    den = 1  # (1 - Q)^(top - k)
    for k in range(top, -1, -1):
        c = sum(x << (e * width) for e, x in enumerate(circles[k])) * den
        for j in range(m + k + 1):
            sums[j] += comb(m + k, j) * c
        den -= den << width
    parts = [_unpack(c, width) for c in sums]
    n = top
    while n and not any(map(sum, parts)):
        parts = [list(accumulate(p))[:-1] for p in parts]
        n -= 1
    sign = -1 if n & 1 else 1  # the denominator's top term, (-Q)^n, made positive
    num = {(-j, j + low + step * e): sign * c for j, p in enumerate(parts) for e, c in enumerate(p) if c}
    den = {(0, step * i): sign * (-1) ** i * comb(n, i) for i in range(n + 1)}
    return RationalFn._of(LaurentPoly(TQ, num), LaurentPoly(TQ, den))


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
    coefficients in Z[q^+-2] packed as the module docstring describes;
    made by wide_edge_expand."""

    __slots__ = ("n", "terms", "shift", "width")

    def __init__(self, n: int, terms: dict[Perm, int], shift: int, width: int):
        self.n, self.terms, self.shift, self.width = n, terms, shift, width

    @classmethod
    def identity(cls, n: int) -> "HeckeElement":
        return wide_edge_expand(n, ())

    @property
    def coeffs(self) -> dict[Perm, LaurentPoly]:
        L, W = self.shift, self.width
        return {w: LaurentPoly(TQ, {(0, 2 * (e - L)): a for e, a in enumerate(_unpack(c, W))})
                for w, c in self.terms.items()}

    def __eq__(self, other) -> bool:
        return isinstance(other, HeckeElement) and self.n == other.n and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        if not self.terms:
            return f"HeckeElement({self.n}: 0)"
        parts = [f"T{w}*({c})" for w, c in sorted(self.coeffs.items())]
        return f"HeckeElement({self.n}: " + " + ".join(parts) + ")"


def _trace_growth(n: int) -> int:
    """Growth of the L1 norm in an n-strand trace: 3 per generator, then 2^(n-1)."""
    return 3 ** ((n - 1) * (n - 2) // 2) << (n - 1)


def hecke_normal_form(b: BraidWord) -> HeckeElement:
    """Image of a braid word on the permutation basis."""
    return wide_edge_expand(b.strands, b.letters)


def wide_edge_expand(strands: int, tokens: Sequence) -> HeckeElement:
    """Evaluate a word over sigma_i, sigma_i^-1, and wide edges E_i.

    Tokens are integers (+-i for braid letters) or strings "Ei" for the
    wide edge between strands i and i+1.
    """
    _int_in(strands, "strand count", lo=1)
    # the identity, packed once at the width that the word and its trace need
    width = _width(3 ** len(tokens) * _trace_growth(strands))
    terms, shift = {tuple(range(1, strands + 1)): 1}, 0
    for tok in tokens:
        if isinstance(tok, str):
            t = tok.strip().upper()
            if not t.startswith("E"):
                raise InputError(f"bad token {tok!r}")
            i, kind = _int_token(t[1:], f"token {tok!r}"), _E
        elif type(tok) is int:
            i, kind = abs(tok), _T if tok > 0 else _QT_INV
        else:
            raise InputError(f"bad token {tok!r}")
        if not 1 <= i < strands:
            raise InputError(f"generator index {i} out of range")
        terms = _right(terms, i, width, kind)
        shift += kind == _QT_INV
    return HeckeElement(strands, terms, shift, width)


@dataclass(frozen=True)
class HomflyValue:
    """Value in q, t with an optional overall half power of alpha.

    The represented quantity is value * sqrt(alpha)^sqrt_alpha with
    alpha = -t^-1 q^-1; sqrt_alpha is 0 or 1.
    """

    value: RationalFn
    sqrt_alpha: int = 0

    def __post_init__(self):
        if type(self.value) is not RationalFn:
            raise InputError(f"a HOMFLYPT value must be a RationalFn, not {self.value!r}")
        _int_in(self.sqrt_alpha, "sqrt_alpha", 0, 1)

    def render(self) -> str:
        if self.sqrt_alpha:
            return f"({self.value.render()}) * sqrt(-1/(t*q))"
        return self.value.render()

    __str__ = render


def markov_trace(h: HeckeElement) -> HomflyValue:
    """Trace normalized so the one-strand unknot has value 1: the sum of
    P_k d^k over one reduced fraction, where P_k collects the terms that
    closed k free circles on the way down from n strands."""
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
    by_circles = {k: c for ((_,), k), c in level.items()}  # one term per k, on one strand
    circles = [_unpack(by_circles.get(k, 0), h.width) for k in range(max(by_circles, default=0) + 1)]
    return HomflyValue(_loop_sum(circles, 2, low=-2 * h.shift))


def homfly_F(b: BraidWord) -> HomflyValue:
    return markov_trace(hecke_normal_form(b))


def homfly_G(b: BraidWord) -> HomflyValue:
    """Markov-invariant normalization sqrt(alpha)^omega F, omega = n+ - n- - strands
    + 1, of ``markov_reduce(b)``: ``_normalize_G(homfly_F(b), b)`` from a shorter trace."""
    b = markov_reduce(b)
    return _normalize_G(homfly_F(b), b)


def _normalize_G(f: HomflyValue, b: BraidWord) -> HomflyValue:
    """G from the F value of the same braid."""
    omega = 2 * sum(1 for w in b.letters if w > 0) - len(b.letters) - b.strands + 1
    parity = omega & 1
    half_pairs = (omega - parity) // 2
    # alpha^half_pairs = (-1)^half_pairs t^-half_pairs q^-half_pairs is a unit, so
    # it scales F's numerator and leaves the fraction reduced and canonical
    num = f.value.num.shift((-half_pairs, -half_pairs))
    value = RationalFn._of(-num if half_pairs & 1 else num, f.value.den)
    return HomflyValue(value, sqrt_alpha=parity)


def specialize_Gn(g: HomflyValue, n: int) -> LaurentPoly:
    """Set t = -q^(1-2n); sqrt(alpha) becomes q^(n-1).  The result must be
    a Laurent polynomial; a surviving denominator is reported as a defect."""
    tval = LaurentPoly.monomial(("q",), 1 - 2 * _int_in(n, "n", lo=1), -1)
    # t is a unit monomial, so each part comes back over 1
    num, den = (p._substitute_parts("t", tval)[0] for p in (g.value.num, g.value.den))
    out = _over_q2_minus_1(num, den)
    if out is None:  # a remainder, or a value that no G has
        frac = RationalFn(num, den)
        if not frac.den.is_one():
            raise ArithmeticError(f"specialization left a denominator: {frac.den}")
        out = frac.num
    if g.sqrt_alpha:
        out = out.shift(n - 1)
    return out


def _over_q2_minus_1(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly | None:
    """num / den in q if den is (q^2 - 1)^k, as every G's is, and num a nonzero
    multiple of it, else None: each parity class of num's exponents divides by
    q^2 - 1 alone, iff its coefficients sum to 0, into minus their running sums."""
    k = max(e for (e,) in den.terms) // 2
    if not num or den.terms != {(2 * i,): (-1) ** (k - i) * comb(k, i) for i in range(k + 1)}:
        return None
    lo = min(e for (e,) in num.terms)
    dense = [num.terms.get((e,), 0) for e in range(lo, max(e for (e,) in num.terms) + 1)]
    classes = [dense[0::2], dense[1::2]]
    for _ in range(k):
        if any(map(sum, classes)):
            return None
        classes = [[-c for c in accumulate(part)][:-1] for part in classes]
    return LaurentPoly(num.vars, {(lo + r + 2 * e,): c for r, part in enumerate(classes) for e, c in enumerate(part)})


def homfly_skein_form(g: HomflyValue) -> RationalFn:
    """Rewrite in (q, a) with a = q sqrt(alpha), i.e. t = -q a^-2.

    In these variables the value satisfies the two-variable skein
    a^-1 P(L+) - a P(L-) = (q^-1 - q) P(L0); inverting both variables
    gives the usual form a P(L+) - a^-1 P(L-) = (q - q^-1) P(L0).
    """
    QA = ("q", "a")
    tval = LaurentPoly.monomial(QA, (1, -2), -1)
    out = g.value.substitute("t", tval)
    if g.sqrt_alpha:
        out = out * RationalFn.from_poly(LaurentPoly.monomial(QA, (-1, 1)))
    return out
