"""Kauffman bracket, Jones polynomial, and integral Khovanov homology.

The cube of resolutions is built by the shared cube engine
(``homcore.cube_blocks``) from a short spec: circles are the parts of a
resolution, numbered by their least arc label; a generator labels each
circle 1 or X, and j = i + (circles) - 2 (number of X).  Block (i, j)
lists the resolutions of i one-smoothings by increasing mask, each with
its labelings in lexicographic order (1 < X, circle 0 first), and a
generator's position is worked out from its resolution's offset and its
labeling's rank.  The merge m and split Delta are tabulated once per edge
shape (circle counts, where each circle lands, the circle the crossing
touches) on the module's one spec, so every diagram shares the tables,
and replayed with the alternating cube signs, so every square
anticommutes.  The homology reads the engine's blocks one j-strand at a
time (``homcore.cube_homology``); ``build_khovanov_complex`` collects
them into a whole complex for the checks that read it.  The bracket is a
scan that keeps the matchings of the open arc ends (Bar-Natan,
math/0606318), not a state sum over the 2^n resolutions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import comb

from .homcore import (
    CubeSpec,
    CubeStates,
    GradedComplex,
    HomologyTable,
    cube_complex,
    cube_homology,
    graded_homology,
    poincare_polynomial,
)
from .linkdiag import BraidWord, Diagram, InputError, braid_closure, resolve_crossing
from .polyalg import LaurentPoly

__all__ = [
    "kauffman_bracket",
    "kauffman_bracket_recursive",
    "jones_unnormalized",
    "jones_normalized",
    "jones_skein_check",
    "build_khovanov_complex",
    "khovanov_homology",
    "unnormalized_homology",
    "WidthReport",
    "width_report",
    "LesReport",
    "les_check",
    "torus_diagram",
    "StabilityReport",
    "stability_check",
    "stable_poincare",
]

Q = ("q",)


def _states(d: Diagram) -> CubeStates:
    """Circles of every total resolution: each crossing joins two pairs of
    arc labels, by its smoothing."""
    elements = sorted(set(d.arc_labels()) | set(d.loops))
    index = {label: k for k, label in enumerate(elements)}
    joins = [
        tuple(tuple((index[a], index[b]) for a, b in x.joins(bit)) for bit in (0, 1))
        for x in d.crossings
    ]
    return CubeStates(len(elements), joins)


def kauffman_bracket(d: Diagram) -> LaurentPoly:
    """<D> = sum over resolutions of (-1)^|e| q^|e| (q+q^-1)^c, by a scan.

    Each step takes the crossing with the most open arc labels (seen once
    so far).  Per matching of the open labels by paths, the scan keeps the
    sum of (-q)^(one-smoothings) (q+q^-1)^(circles) over the partial
    resolutions giving it: crossings times matchings (at most 2^k after k
    crossings, and 20 on the 3- to 5-strand closures tested), not 2^n.
    """
    rest, loops = list(d.crossings), len(d.loops)
    # a matching as the frozenset of its (end, other end) items, both ways
    matchings = {frozenset(): {loops - 2 * k: comb(loops, k) for k in range(loops + 1)}}
    while rest:
        open_ = dict(next(iter(matchings)))  # every matching has the open labels as its ends
        x = max(rest, key=lambda y: sum(map(open_.__contains__, y.arcs)))
        rest.remove(x)
        nxt: dict[frozenset, dict[int, int]] = {}
        for key, poly in matchings.items():
            for bit in (0, 1):
                m, circles = dict(key), 0
                for u, v in x.joins(bit):
                    eu = m.pop(u, u)  # the path end at u: its other end if u is open, else u
                    if eu == v:  # u = v, or u and v end one path: a circle
                        m.pop(v, None)
                        circles += 1
                    else:
                        ev = m.pop(v, v)
                        m[eu], m[ev] = ev, eu
                acc = nxt.setdefault(frozenset(m.items()), {})
                for k in range(circles + 1):  # times (-q)^bit (q + q^-1)^circles
                    s, w = bit + circles - 2 * k, (-1) ** bit * comb(circles, k)
                    for e, c in poly.items():
                        acc[e + s] = acc.get(e + s, 0) + w * c
        matchings = nxt
    return LaurentPoly(Q, {(e,): c for poly in matchings.values() for e, c in poly.items()})


def kauffman_bracket_recursive(d: Diagram) -> LaurentPoly:
    """Independent route: <D> = <D_0> - q <D_1>, <U_k> = (q+q^-1)^k."""
    if d.n_crossings == 0:
        return LaurentPoly.from_terms(Q, {1: 1, -1: 1}) ** len(d.loops)
    d0 = resolve_crossing(d, 0, 0)
    d1 = resolve_crossing(d, 0, 1)
    q = LaurentPoly.monomial(Q, 1)
    return kauffman_bracket_recursive(d0) - q * kauffman_bracket_recursive(d1)


def jones_unnormalized(d: Diagram) -> LaurentPoly:
    """(-1)^(n-) q^(n+ - 2n-) <D>."""
    sign = -1 if d.n_minus & 1 else 1
    shift = d.n_plus - 2 * d.n_minus
    return kauffman_bracket(d).shift(shift).scale(sign)


def jones_normalized(d: Diagram) -> LaurentPoly:
    """Unnormalized Jones divided by the unknot value q + q^-1."""
    circle = LaurentPoly.from_terms(Q, {1: 1, -1: 1})
    return jones_unnormalized(d).divide_exact(circle)


def jones_skein_check(l_plus: Diagram, l_minus: Diagram, l_zero: Diagram) -> bool:
    """q^-2 J(L+) - q^2 J(L-) = (q^-1 - q) J(L0), exactly."""
    if not (
        l_plus.n_crossings == l_minus.n_crossings == l_zero.n_crossings + 1
        and l_plus.n_plus == l_zero.n_plus + 1
        and l_plus.n_minus == l_zero.n_minus
        and l_minus.n_plus == l_zero.n_plus
        and l_minus.n_minus == l_zero.n_minus + 1
    ):
        raise ValueError("diagrams do not form a skein triple at one crossing")
    jp, jm, j0 = (jones_unnormalized(x) for x in (l_plus, l_minus, l_zero))
    lhs = jp.shift(-2) - jm.shift(2)
    rhs = LaurentPoly.from_terms(Q, {-1: 1, 1: -1}) * j0
    return lhs == rhs


# Labels 0 and 1 stand for 1 and X: m(1 1) = 1, m(1 X) = m(X 1) = X,
# m(X X) = 0, Delta(1) = 1 X + X 1, Delta(X) = X X, and j = i + k - 2 #X.
_KHOVANOV = CubeSpec(
    top=1,
    grading=(1, 1, 2),
    merge=lambda x, y: (x + y,) if x + y <= 1 else (),
    split=lambda x: ((1, 1),) if x else ((0, 1), (1, 0)),
)


def _columns(d: Diagram, irange: tuple[int, int] | None) -> tuple[int, int] | None:
    # the cube degrees whose groups and edges give homology in irange
    return None if irange is None else (max(0, irange[0] - 1), min(d.n_crossings, irange[1] + 1))


def _source(d: Diagram) -> str:
    return f"khovanov:{d.provenance}:{d.n_crossings}cr"


def build_khovanov_complex(
    d: Diagram,
    jwindow: tuple[int, int] | None = None,
    irange: tuple[int, int] | None = None,
    normalized: bool = False,
) -> GradedComplex:
    """Cube-of-resolutions complex with merge map m and split map Delta.

    ``jwindow`` and ``irange`` are in the complex's own (unnormalized)
    indices; when ``normalized`` the output shift (-n_minus, n_plus - 2
    n_minus) is recorded for homology reporting.
    """
    cplx = cube_complex(_KHOVANOV, _states(d), _columns(d, irange), jwindow, _source(d))
    if normalized:
        cplx.shift = (-d.n_minus, d.n_plus - 2 * d.n_minus)
    return cplx


def khovanov_homology(
    d: Diagram,
    jwindow: tuple[int, int] | None = None,
    irange: tuple[int, int] | None = None,
) -> HomologyTable:
    """Normalized integral Khovanov homology, torsion included.

    ``jwindow`` and ``irange`` select normalized bidegrees.  Only the
    generators in ``jwindow`` are built, so only ``irange`` is filtered.
    """
    l_shift = d.n_plus - 2 * d.n_minus
    jw = None if jwindow is None else (jwindow[0] - l_shift, jwindow[1] - l_shift)
    ir = None if irange is None else (irange[0] + d.n_minus, irange[1] + d.n_minus)
    table = cube_homology(_KHOVANOV, _states(d), _columns(d, ir), jw, _source(d), (-d.n_minus, l_shift))
    if irange is not None:
        table = table.restrict_i(*irange)
    return table


def unnormalized_homology(
    d: Diagram,
    irange: tuple[int, int] | None = None,
) -> HomologyTable:
    table = cube_homology(_KHOVANOV, _states(d), _columns(d, irange), None, _source(d))
    if irange is not None:
        table = table.restrict_i(*irange)
    return table


@dataclass(frozen=True)
class WidthReport:
    diagonals: tuple[int, ...]
    a_min: int
    a_max: int
    width: int
    thin: bool


def width_report(t: HomologyTable) -> WidthReport:
    diags = sorted({j - 2 * i for (i, j), (rank, _) in t.entries.items() if rank > 0})
    if not diags:
        raise ValueError("empty homology table")
    a_min, a_max = diags[0], diags[-1]
    width = (a_max - a_min) // 2 + 1
    return WidthReport(tuple(diags), a_min, a_max, width, thin=(width == 2))


@dataclass
class LesReport:
    bracket_ok: bool
    rank_ok: bool
    cone_ok: bool
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.bracket_ok and self.rank_ok and self.cone_ok


def les_check(d: Diagram, crossing: int) -> LesReport:
    """Single-crossing resolution checks: bracket additivity, the rank
    bound from the long exact sequence, and the mapping-cone structure."""
    if not 0 <= crossing < d.n_crossings:
        raise ValueError(f"unknown crossing {crossing}")
    d0 = resolve_crossing(d, crossing, 0)
    d1 = resolve_crossing(d, crossing, 1)
    violations: list[str] = []

    q = LaurentPoly.monomial(Q, 1)
    bracket_ok = kauffman_bracket(d) == kauffman_bracket(d0) - q * kauffman_bracket(d1)
    if not bracket_ok:
        violations.append("bracket additivity failed")

    cx, c0, c1 = (build_khovanov_complex(x) for x in (d, d0, d1))
    t, t0, t1 = (graded_homology(x) for x in (cx, c0, c1))
    rank_ok = True
    for (i, j) in t.entries:
        if t.rank(i, j) > t0.rank(i, j) + t1.rank(i - 1, j - 1):
            rank_ok = False
            violations.append(f"rank bound violated at ({i},{j})")

    cone_ok = _cone_structure_ok(d, (cx, c0, c1), crossing, violations)
    return LesReport(bracket_ok, rank_ok, cone_ok, violations)


def _cone_structure_ok(d: Diagram, complexes, nu: int, violations: list[str]) -> bool:
    """The complex cx of d against the complexes c0, c1 of its two
    resolutions at crossing nu: entries between states with bit nu = 0
    must be c0's, those between states with bit nu = 1 must be c1's times
    the sign fix (-1)^(bits above nu) of each end, none may run from bit
    nu = 1 to bit nu = 0, and those from bit nu = 0 to bit nu = 1 (the
    cone map) must be the merge or split of crossing nu times the cube
    sign (-1)^(bits below nu), worked out generator by generator.

    Generators are matched by position alone.  Block (i, j) lists the
    states of degree i by increasing mask, each with its comb(k, t)
    labelings in lexicographic order, and a resolution keeps the order of
    the other crossings and of each state's circles.  Dropping bit nu
    keeps the order of the masks, so the generators of cx's block (i, j)
    with bit nu = 0 are, in order, c0's block (i, j), and those with bit
    nu = 1 are c1's block (i - 1, j - 1).
    """
    cx, c0, c1 = complexes
    states = list(map(_states(d).state, range(1 << d.n_crossings)))
    bit_nu = 1 << nu
    # per block of cx, per position: (face bit, index in that face's block, sign fix)
    where: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    filled: dict[tuple[int, int, int], int] = {}
    start: dict[tuple[int, int], int] = {}  # (mask, t) -> position of its first generator
    for mask in sorted(range(1 << d.n_crossings), key=int.bit_count):
        i = mask.bit_count()
        k = states[mask][0]
        bit = (mask >> nu) & 1
        sign = -1 if (mask >> (nu + 1)).bit_count() & 1 else 1
        for t in range(k + 1):
            key = (i, i + k - 2 * t)
            block = where.setdefault(key, [])
            start[(mask, t)] = len(block)
            begin = filled.get((bit, *key), 0)
            stop = filled[(bit, *key)] = begin + comb(k, t)
            block.extend((bit, p, sign) for p in range(begin, stop))

    ranks: dict[int, dict[tuple[int, ...], int]] = {}

    def ranked(k: int) -> dict[tuple[int, ...], int]:
        # the labelings of k circles, each with its rank in its label sum
        if k not in ranks:
            out = ranks[k] = {}
            count: dict[int, int] = {}
            for lab in product((0, 1), repeat=k):  # lexicographic
                out[lab] = count.get(sum(lab), 0)
                count[sum(lab)] = out[lab] + 1
        return ranks[k]

    # the cone map per block of cx, in row storage
    cone: dict[tuple[int, int], dict[int, dict[int, int]]] = {}
    for mask in range(1 << d.n_crossings):
        if mask & bit_nu:
            continue
        i, tmask = mask.bit_count(), mask | bit_nu
        k, part, mins = states[mask]
        tk, tpart, tmins = states[tmask]
        sign = -1 if (mask & (bit_nu - 1)).bit_count() & 1 else 1
        image = [tpart[m] for m in mins]
        merged = [s for s in range(k) if image.count(image[s]) == 2]
        src = [part[m] for m in tmins]
        split = [u for u in range(tk) if src.count(src[u]) == 2]
        for lab, rank in ranked(k).items():
            t = sum(lab)
            if merged:  # the two circles with one image merge
                s1, s2 = merged
                news = [((image[s1], x),) for x in _KHOVANOV.merge(lab[s1], lab[s2])]
            else:  # one circle splits into the target circles u1 < u2
                u1, u2 = split
                news = [((u1, x), (u2, y)) for x, y in _KHOVANOV.split(lab[src[u1]])]
            col = start[(mask, t)] + rank
            for new in news:
                target = [0] * tk
                for s, x in enumerate(lab):
                    target[image[s]] = x
                for slot, x in new:
                    target[slot] = x
                target = tuple(target)
                row = start[(tmask, sum(target))] + ranked(tk)[target]
                cone.setdefault((i, i + k - 2 * t), {}).setdefault(row, {})[col] = sign

    ok = True
    for (i, j), blk in cx.diff.items():
        rows, cols = where.get((i + 1, j), ()), where.get((i, j), ())
        faces: tuple[dict, dict] = ({}, {})
        up: dict[int, dict[int, int]] = {}
        for r, row in blk.data.items():
            tbit, rr, tsign = rows[r]
            for c, v in row.items():
                sbit, cc, ssign = cols[c]
                if sbit == tbit:
                    faces[sbit].setdefault(rr, {})[cc] = v * tsign * ssign if sbit else v
                elif sbit:
                    ok = False
                    violations.append(f"upward cone entry at ({i},{j})")
                else:
                    up.setdefault(r, {})[c] = v
        ref0 = c0.diff.get((i, j))
        ref1 = c1.diff.get((i - 1, j - 1))
        if faces[0] != (ref0.data if ref0 else {}):
            ok = False
            violations.append(f"0-face differs from resolved complex at ({i},{j})")
        if faces[1] != (ref1.data if ref1 else {}):
            ok = False
            violations.append(f"1-face differs from shifted complex at ({i},{j})")
        if up != cone.pop((i, j), {}):
            ok = False
            violations.append(f"cone map differs at ({i},{j})")
    for i, j in sorted(cone):
        ok = False
        violations.append(f"cone map differs at ({i},{j})")
    return ok


def torus_diagram(p: int, q: int) -> Diagram:
    """Closure of (sigma_1 ... sigma_(p-1))^q on p strands."""
    if p < 1 or q < 0:
        raise ValueError("torus parameters need p >= 1, q >= 0")
    word = tuple(range(1, p)) * q
    return braid_closure(BraidWord(p, word))


@dataclass
class StabilityReport:
    drop_one_twist: list[tuple[int, int, bool]] = field(default_factory=list)  # (q, i_bound, ok)
    shared_window: list[tuple[int, int, int, bool]] = field(default_factory=list)  # (q1, q2, i_bound, ok)
    strand_reduction: tuple[int, bool] | None = None
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            all(x[2] for x in self.drop_one_twist)
            and all(x[3] for x in self.shared_window)
            and (self.strand_reduction is None or self.strand_reduction[1])
        )


def _tables_equal_below(a: HomologyTable, b: HomologyTable, i_bound: int, mismatches, tag: str, dj: int = 0) -> bool:
    """Equality of free rank and torsion for all i < i_bound; b read at j+dj."""
    keys = {k for k in a.entries if k[0] < i_bound}
    keys |= {(i, j - dj) for (i, j) in b.entries if i < i_bound}
    ok = True
    for (i, j) in sorted(keys):
        if a.group(i, j) != b.group(i, j + dj):
            ok = False
            mismatches.append(f"{tag}: ({i},{j}) {a.group(i, j)} != {b.group(i, j + dj)}")
    return ok


def stability_check(p: int, q_range, i_max: int | None = None) -> StabilityReport:
    """Twist-stability of unnormalized torus homology.

    Checks, for consecutive q in ``q_range``, equality of H^(i,j) between
    the q and q-1 twist diagrams for i < p+q-3; the shared stable window
    i < 2p-1 across all listed q; and the strand-reduction identity
    H^(i,j)(D_(p,p)) = H^(i,j+1)(D_(p-1,p)) for i < 2p-3.
    """
    qs = sorted(q_range)
    if p < 2 or not qs or p >= qs[0]:
        raise ValueError("need 2 <= p < min(q_range)")
    report = StabilityReport()
    cache: dict[tuple[int, int], HomologyTable] = {}

    def table(pp: int, qq: int, bound: int) -> HomologyTable:
        key = (pp, qq)
        if key not in cache:
            cache[key] = unnormalized_homology(torus_diagram(pp, qq), irange=(0, bound))
        return cache[key]

    for q in qs:
        bound = p + q - 3
        if i_max is not None:
            bound = min(bound, i_max + 1)
        ta = table(p, q, bound)
        tb = table(p, q - 1, bound)
        ok = _tables_equal_below(ta, tb, bound, report.mismatches, f"(p,q)=({p},{q}) vs ({p},{q-1})")
        report.drop_one_twist.append((q, bound, ok))

    window = 2 * p - 1
    if i_max is not None:
        window = min(window, i_max + 1)
    for q1, q2 in zip(qs, qs[1:]):
        ta = table(p, q1, window)
        tb = table(p, q2, window)
        ok = _tables_equal_below(ta, tb, window, report.mismatches, f"window ({p},{q1}) vs ({p},{q2})")
        report.shared_window.append((q1, q2, window, ok))

    bound = 2 * p - 3
    if i_max is not None:
        bound = min(bound, i_max + 1)
    tp = unnormalized_homology(torus_diagram(p, p), irange=(0, bound))
    tq = unnormalized_homology(torus_diagram(p - 1, p), irange=(0, bound))
    ok = _tables_equal_below(tp, tq, bound, report.mismatches, f"({p},{p}) vs ({p-1},{p}) shifted", dj=1)
    report.strand_reduction = (bound, ok)
    return report


def stable_poincare(m: int, n_values) -> tuple[list[tuple[int, LaurentPoly]], list[tuple[int, int, int, bool]]]:
    """Normalized Poincare polynomials q^(-(m-1)n) P(T_(m,n)) plus the
    stable-agreement report for consecutive n (t-powers below m+n-3)."""
    if m < 2:
        raise InputError("need m >= 2")
    ns = sorted(n_values)
    polys = []
    for n in ns:
        t = khovanov_homology(torus_diagram(m, n))
        p = poincare_polynomial(t).shift((0, -(m - 1) * n))
        polys.append((n, p))
    agreements = []
    for (n1, p1), (n2, p2) in zip(polys, polys[1:]):
        bound = m + n1 - 3
        ok = _t_coeffs_agree(p1, p2, bound)
        agreements.append((n1, n2, bound, ok))
    return polys, agreements


def _t_coeffs_agree(p1: LaurentPoly, p2: LaurentPoly, bound_exclusive: int) -> bool:
    def slice_poly(p):
        return {k: v for k, v in p.terms.items() if k[0] < bound_exclusive}

    return slice_poly(p1) == slice_poly(p2)
