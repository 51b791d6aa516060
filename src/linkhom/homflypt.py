"""HOMFLYPT polynomial via a Hecke-algebra trace on braid closures.

Elements of the algebra are expanded on the permutation basis T_w; the
quadratic relation T_i^2 = q^2 + (1 - q^2) T_i (eigenvalues 1 and -q^2)
and the inverse expansion T_i^-1 = q^-2 T_i - q^-2 + 1 follow from the
skein normalization used throughout.  Neither brings in a denominator,
so coefficients are Laurent polynomials in t and q.  The trace
eliminates one strand at a time: a basis permutation either fixes the
last point (closing a free circle, of value d = (1 + t^-1 q)/(1 - q^2))
or factors uniquely through the top transposition.  Terms are kept apart
by the number k of circles closed, so the trace is sum_k P_k d^k with
Laurent P_k, formed as one fraction over (1 - q^2)^K and reduced once.

Wide edges E_i (trivalent resolutions between strands i and i+1) expand
as T_i + q^2, which lets braid words over sigma/E letters be evaluated
by the same trace.
"""

from __future__ import annotations

from dataclasses import dataclass
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


_ONE = LaurentPoly.one(TQ)
_Q2 = LaurentPoly.monomial(TQ, (0, 2))
_QINV2 = LaurentPoly.monomial(TQ, (0, -2))
_ONE_MINUS_Q2 = LaurentPoly.from_terms(TQ, {(0, 0): 1, (0, 2): -1})
_ONE_MINUS_QINV2 = LaurentPoly.from_terms(TQ, {(0, 0): 1, (0, -2): -1})
_ONE_PLUS_TINV_Q = LaurentPoly.from_terms(TQ, {(0, 0): 1, (-1, 1): 1})


def loop_value() -> RationalFn:
    """Value of a disjoint free circle: (1 + t^-1 q) / (1 - q^2)."""
    return RationalFn(_ONE_PLUS_TINV_Q, _ONE_MINUS_Q2)


def alpha_value() -> RationalFn:
    """alpha = -t^-1 q^-1."""
    return RationalFn.from_poly(LaurentPoly.monomial(TQ, (-1, -1), -1))


class HeckeElement:
    """Linear combination of permutation basis elements T_w, with
    coefficients in Z[t^+-1, q^+-1]."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: dict[Perm, LaurentPoly | RationalFn] | None = None):
        if n < 1:
            raise ValueError("need at least one strand")
        self.n = n
        self.coeffs: dict[Perm, LaurentPoly] = {}
        if coeffs:
            for w, c in coeffs.items():
                if isinstance(c, RationalFn):
                    c = c.as_poly()
                if c:
                    self.coeffs[w] = c

    @classmethod
    def identity(cls, n: int) -> "HeckeElement":
        return cls(n, {tuple(range(1, n + 1)): _ONE})

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        if self.n != other.n:
            raise ValueError("strand count mismatch")
        acc = dict(self.coeffs)
        for w, c in other.coeffs.items():
            v = acc.get(w)
            acc[w] = c if v is None else v + c
        return HeckeElement(self.n, acc)

    def scaled(self, c: LaurentPoly) -> "HeckeElement":
        return HeckeElement(self.n, {w: v * c for w, v in self.coeffs.items()})

    def right_gen(self, i: int) -> "HeckeElement":
        """Multiply by T_i on the right."""
        if not 1 <= i < self.n:
            raise ValueError(f"generator index {i} out of range")
        acc: dict[Perm, LaurentPoly] = {}

        def bump(w: Perm, c: LaurentPoly):
            v = acc.get(w)
            acc[w] = c if v is None else v + c

        for w, c in self.coeffs.items():
            swapped = list(w)
            swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
            swapped = tuple(swapped)
            if w[i - 1] < w[i]:
                bump(swapped, c)
            else:
                bump(swapped, c * _Q2)
                bump(w, c * _ONE_MINUS_Q2)
        return HeckeElement(self.n, acc)

    def right_gen_inverse(self, i: int) -> "HeckeElement":
        """Multiply by T_i^-1 = q^-2 T_i - q^-2 + 1 on the right."""
        return self.right_gen(i).scaled(_QINV2) + self.scaled(_ONE_MINUS_QINV2)

    def right_wide(self, i: int) -> "HeckeElement":
        """Multiply by the wide edge E_i = T_i + q^2 on the right."""
        return self.right_gen(i) + self.scaled(_Q2)

    def __eq__(self, other) -> bool:
        return isinstance(other, HeckeElement) and self.n == other.n and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        if not self.coeffs:
            return f"HeckeElement({self.n}: 0)"
        parts = [f"T{w}*({c})" for w, c in sorted(self.coeffs.items())]
        return f"HeckeElement({self.n}: " + " + ".join(parts) + ")"


def hecke_normal_form(b: BraidWord) -> HeckeElement:
    """Image of a braid word on the permutation basis."""
    h = HeckeElement.identity(b.strands)
    for w in b.letters:
        h = h.right_gen(w) if w > 0 else h.right_gen_inverse(-w)
    return h


def wide_edge_expand(strands: int, tokens: Sequence) -> HeckeElement:
    """Evaluate a word over sigma_i, sigma_i^-1, and wide edges E_i.

    Tokens are integers (+-i for braid letters) or strings "Ei" for the
    wide edge between strands i and i+1.
    """
    h = HeckeElement.identity(strands)
    for tok in tokens:
        if isinstance(tok, str):
            t = tok.strip().upper()
            if not t.startswith("E"):
                raise ValueError(f"bad token {tok!r}")
            h = h.right_wide(int(t[1:]))
        elif tok > 0:
            h = h.right_gen(tok)
        else:
            h = h.right_gen_inverse(-tok)
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
    return HomflyValue(_trace(h.coeffs, h.n))


def _trace(coeffs: dict[Perm, LaurentPoly], n: int) -> RationalFn:
    """Sum of P_k d^k over one reduced fraction, where P_k collects the
    terms that closed k free circles on the way down from n strands."""
    # (permutation, circles closed so far) -> coefficient
    level: dict[tuple[Perm, int], LaurentPoly] = {(w, 0): c for w, c in coeffs.items()}
    for p in range(n, 1, -1):
        lower: dict[tuple[Perm, int], LaurentPoly] = {}

        def bump(key: tuple[Perm, int], c: LaurentPoly):
            v = lower.get(key)
            lower[key] = c if v is None else v + c

        # terms through the top transposition at the same slot and circle
        # count share the generators they are carried through
        through: dict[tuple[int, int], dict[Perm, LaurentPoly]] = {}
        for (w, k), c in level.items():
            if w[p - 1] == p:
                bump((w[:-1], k + 1), c)
                continue
            slot = w.index(p) + 1
            # w = u . s_(p-1) . (s_(p-2) ... s_slot) with u fixing p
            u = w[:slot - 1] + w[slot:]
            through.setdefault((slot, k), {})[u] = c
        for (slot, k), terms in through.items():
            elem = HeckeElement(p - 1, terms)
            for gen in range(p - 2, slot - 1, -1):
                elem = elem.right_gen(gen)
            for w2, c2 in elem.coeffs.items():
                bump((w2, k), c2)
        level = {key: c for key, c in lower.items() if c}
    by_circles: dict[int, LaurentPoly] = {}
    for (_, k), c in level.items():
        by_circles[k] = by_circles[k] + c if k in by_circles else c
    top = max(by_circles, default=0)
    num = LaurentPoly.zero(TQ)
    for k, c in by_circles.items():
        num = num + c * _ONE_PLUS_TINV_Q ** k * _ONE_MINUS_Q2 ** (top - k)
    return RationalFn(num, _ONE_MINUS_Q2 ** top)


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
    value = f.value * (alpha_value() ** half_pairs)
    return HomflyValue(value, sqrt_alpha=parity, omega=omega)


def specialize_Gn(g: HomflyValue, n: int) -> LaurentPoly:
    """Set t = -q^(1-2n); sqrt(alpha) becomes q^(n-1).  The result must be
    a Laurent polynomial; a surviving denominator is reported as a defect."""
    if n < 1:
        raise InputError("need n >= 1")
    tval = LaurentPoly.monomial(("q",), 1 - 2 * n, -1)
    out = g.value.substitute("t", tval)
    if isinstance(out, RationalFn):
        if not out.den.is_one():
            raise ArithmeticError(f"specialization left a denominator: {out.den}")
        out = out.num
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
