"""Kauffman bracket, Jones polynomial, and integral Khovanov homology.

``khovanov_homology`` and ``unnormalized_homology`` compute the whole
table by Bar-Natan's local scan (``tangle.scan_homology``): crossing by
crossing, in dotted cobordisms over Z, with delooping and the
cancellation of every isomorphism, so no 2^n cube is built.  Their
windows, in the table's own indices (normalized ones for
``khovanov_homology``) and read by the one window rule
(``linkdiag._window_of``), cut the whole table.  The bracket is the same
scan decategorified: it keeps, per matching of the open arc ends, the sum
over the partial resolutions giving it.

The cube of resolutions stays for ``les_check``, whose cone check reads
its blocks, for the Euler characteristic of its chain ranks, and as the
scan's test oracle.  It is built by the shared cube engine
(``homcore.cube_blocks``) from a short spec: circles are the parts of a
resolution, numbered by their least arc label; a generator labels each
circle 1 or X, and j = i + (circles) - 2 (number of X).  Block (i, j)
lists the resolutions of i one-smoothings by increasing mask, each with
its labelings in lexicographic order (1 < X, circle 0 first).  The merge
m and split Delta are tabulated once per edge shape on the module's one
spec and replayed with the alternating cube signs, so every square
anticommutes; ``build_khovanov_complex`` collects the blocks into a
whole complex, in cube indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import pairwise, product
from math import comb

from .homcore import (
    CubeSpec,
    CubeStates,
    GradedComplex,
    HomologyTable,
    cube_blocks,
    poincare_polynomial,
    strand_homology,
)
from .linkdiag import BraidWord, Diagram, InputError, _int_in, _int_of, _twists_of, _window_of, braid_closure, resolve_crossing
from .polyalg import LaurentPoly
from .tangle import _glue, scan_homology, scan_order

__all__ = [
    "kauffman_bracket",
    "kauffman_bracket_recursive",
    "jones_unnormalized",
    "jones_normalized",
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

    The crossings come in ``tangle.scan_order``.  Per matching of the open
    labels by paths, the scan keeps the sum of (-q)^(one-smoothings)
    (q+q^-1)^(circles) over the partial resolutions giving it: crossings
    times matchings (at most 2^k after k crossings, and 20 on the 3- to
    5-strand closures tested), not 2^n.
    """
    loops = len(d.loops)
    # a matching as the frozenset of its (end, other end) items, both ways
    matchings = {frozenset(): {loops - 2 * k: comb(loops, k) for k in range(loops + 1)}}
    for x in scan_order(d.crossings):
        nxt: dict[frozenset, dict[int, int]] = {}
        for key, poly in matchings.items():
            for bit in (0, 1):
                m, circles = _glue(dict(key), x.joins(bit))
                acc = nxt.setdefault(frozenset(m.items()), {})
                for k in range(len(circles) + 1):  # times (-q)^bit (q + q^-1)^circles
                    s, w = bit + len(circles) - 2 * k, (-1) ** bit * comb(len(circles), k)
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


# Labels 0 and 1 stand for 1 and X: m(1 1) = 1, m(1 X) = m(X 1) = X,
# m(X X) = 0, Delta(1) = 1 X + X 1, Delta(X) = X X, and j = i + k - 2 #X.
_KHOVANOV = CubeSpec(
    top=1,
    grading=(1, 1, 2),
    merge=lambda x, y: (x + y,) if x + y <= 1 else (),
    split=lambda x: ((1, 1),) if x else ((0, 1), (1, 0)),
)


def build_khovanov_complex(d: Diagram, normalized: bool = False) -> GradedComplex:
    """Cube-of-resolutions complex with merge map m and split map Delta,
    in cube indices; when ``normalized`` the output shift (-n_minus,
    n_plus - 2 n_minus) is recorded for homology reporting."""
    dims, blocks = cube_blocks(_KHOVANOV, _states(d))
    shift = (-d.n_minus, d.n_plus - 2 * d.n_minus) if normalized else (0, 0)
    return GradedComplex(dims, dict(blocks()), shift)


def khovanov_homology(
    d: Diagram,
    jwindow: tuple[int, int] | None = None,
    irange: tuple[int, int] | None = None,
) -> HomologyTable:
    """Normalized integral Khovanov homology, torsion included, by the
    scan; ``jwindow`` and ``irange`` keep the bidegrees of this table,
    normalized ones, that they hold."""
    jwindow, irange = _window_of(jwindow, "j-window"), _window_of(irange, "i-range")
    return _cut(scan_homology(d, (-d.n_minus, d.n_plus - 2 * d.n_minus)), jwindow, irange)


def unnormalized_homology(d: Diagram, irange: tuple[int, int] | None = None) -> HomologyTable:
    irange = _window_of(irange, "i-range")
    return _cut(scan_homology(d), None, irange)


def _cut(t: HomologyTable, jwindow, irange) -> HomologyTable:
    # the entries of t at the j of jwindow and the i of irange (all for None)
    return HomologyTable({(i, j): g for (i, j), g in t.entries.items()
                          if (jwindow is None or jwindow[0] <= j <= jwindow[1])
                          and (irange is None or irange[0] <= i <= irange[1])})


@dataclass(frozen=True)
class WidthReport:
    diagonals: tuple[int, ...]
    width: int
    thin: bool


def width_report(t: HomologyTable) -> WidthReport:
    """The diagonals j - 2i that carry free rank and the width they span;
    an InputError for a table with no free rank."""
    diags = sorted({j - 2 * i for (i, j), (rank, _) in t.entries.items() if rank > 0})
    if not diags:
        raise InputError("empty homology table")
    width = (diags[-1] - diags[0]) // 2 + 1
    return WidthReport(tuple(diags), width, thin=(width == 2))


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
    bound from the long exact sequence, and that the complex of d is the
    cone of a chain map from the complex of its 0-resolution at the
    crossing to that of its 1-resolution, compared block by block.

    The cone check reads the blocks of the three complexes first; then
    ``strand_homology`` takes each complex's blocks over (they are in
    strand order, as ``cube_blocks`` made them), with its d^2 check."""
    d0 = resolve_crossing(d, crossing, 0)
    d1 = resolve_crossing(d, crossing, 1)
    violations: list[str] = []

    q = LaurentPoly.monomial(Q, 1)
    bracket_ok = kauffman_bracket(d) == kauffman_bracket(d0) - q * kauffman_bracket(d1)
    if not bracket_ok:
        violations.append("bracket additivity failed")

    complexes = [build_khovanov_complex(x) for x in (d, d0, d1)]
    cone_ok = _cone_structure_ok(d, complexes, crossing, violations)

    t, t0, t1 = (strand_homology(c.dims, c.diff.items(), c.shift) for c in complexes)
    rank_ok = True
    for (i, j) in t.entries:
        if t.rank(i, j) > t0.rank(i, j) + t1.rank(i - 1, j - 1):
            rank_ok = False
            violations.append(f"rank bound violated at ({i},{j})")
    return LesReport(bracket_ok, rank_ok, cone_ok, violations)


def _cone_structure_ok(d: Diagram, complexes, nu: int, violations: list[str]) -> bool:
    """Whether the complex cx of d is, block by block, the cone of the
    chain map from the complex c0 of its 0-resolution at crossing nu to
    the complex c1 of its 1-resolution.

    The check lays out d's generators itself, in block order: by degree,
    then by increasing mask, then each state's labelings by label sum,
    lexicographic within one.  Dropping bit nu keeps the order of the
    masks and of each state's circles, so the generators with bit nu = 0
    of cx's block (i, j) are, in order, c0's block (i, j), and those with
    bit nu = 1 are c1's block (i - 1, j - 1).  The expected cx takes c0's
    entries as they are, c1's times the sign fix (-1)^(bits above nu) of
    both ends, and from bit nu = 0 to 1 the merge or split of crossing nu
    on each labeling times the cube sign (-1)^(bits below nu).  Each block
    that differs from its expectation adds one line to ``violations``.
    """
    cx, c0, c1 = complexes
    states = list(map(_states(d).state, range(1 << d.n_crossings)))
    bit_nu = 1 << nu
    labelings: dict[int, list[list[tuple[int, ...]]]] = {}  # k -> the labelings of each label sum
    count: dict[tuple[int, int], int] = {}  # (i, j) -> generators placed so far
    at: dict[int, dict[tuple[int, ...], int]] = {}  # mask -> labeling -> position in its block
    faces: dict[tuple[int, int, int], list[tuple[int, int]]] = {}  # (bit nu, i, j) -> (position, sign fix)
    for mask in sorted(range(1 << d.n_crossings), key=int.bit_count):
        i, k = mask.bit_count(), states[mask][0]
        if k not in labelings:  # product is lexicographic
            labelings[k] = [[lab for lab in product((0, 1), repeat=k) if sum(lab) == t] for t in range(k + 1)]
        bit = (mask >> nu) & 1
        sign = -1 if bit and (mask >> (nu + 1)).bit_count() & 1 else 1
        here = at[mask] = {}
        for t, labs in enumerate(labelings[k]):
            key = (i, i + k - 2 * t)
            p = count.get(key, 0)
            count[key] = p + len(labs)
            here.update(zip(labs, range(p, p + len(labs))))
            faces.setdefault((bit, *key), []).extend((q, sign) for q in range(p, p + len(labs)))

    # the expected blocks of cx, in row storage: the two faces, then the cone map
    expect: dict[tuple[int, int], dict[int, dict[int, int]]] = {}
    for bit, c in enumerate((c0, c1)):
        for (i, j), blk in c.diff.items():
            rows, cols = faces[(bit, i + bit + 1, j + bit)], faces[(bit, i + bit, j + bit)]
            out = expect.setdefault((i + bit, j + bit), {})
            for r, row in blk.data.items():
                p, s = rows[r]
                out[p] = {cols[col][0]: s * cols[col][1] * v for col, v in row.items()}
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
        for lab, col in at[mask].items():
            if merged:  # the two circles with one image merge
                s1, s2 = merged
                news = [((image[s1], x),) for x in _KHOVANOV.merge(lab[s1], lab[s2])]
            else:  # one circle splits into the target circles u1 < u2
                u1, u2 = split
                news = [((u1, x), (u2, y)) for x, y in _KHOVANOV.split(lab[src[u1]])]
            out = expect.setdefault((i, i + k - 2 * sum(lab)), {})
            for new in news:
                target = [0] * tk
                for s, x in enumerate(lab):
                    target[image[s]] = x
                for slot, x in new:
                    target[slot] = x
                out.setdefault(at[tmask][tuple(target)], {})[col] = sign

    bad = [key for key in sorted(cx.diff.keys() | expect.keys())
           if (cx.diff[key].data if key in cx.diff else {}) != expect.get(key, {})]
    violations += [f"block ({i}, {j}) is not the cone at crossing {nu}" for i, j in bad]
    return not bad


def torus_diagram(p: int, q: int) -> Diagram:
    """Closure of (sigma_1 ... sigma_(p-1))^q on p strands."""
    word = tuple(range(1, _int_in(p, "p", lo=1))) * _int_in(q, "q", lo=0)
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


def _differences_below(a: HomologyTable, b: HomologyTable, i_bound: int, dj: int = 0) -> list[str]:
    """The bidegrees (i, j) with i < i_bound where a at (i, j) and b at
    (i, j + dj) differ in free rank or torsion, one line each."""
    keys = {k for k in a.entries if k[0] < i_bound}
    keys |= {(i, j - dj) for (i, j) in b.entries if i < i_bound}
    return [f"({i},{j}) {a.group(i, j)} != {b.group(i, j + dj)}"
            for i, j in sorted(keys) if a.group(i, j) != b.group(i, j + dj)]


def stability_check(p: int, q_range, i_max: int | None = None) -> StabilityReport:
    """Twist-stability of unnormalized torus homology.

    Checks, for consecutive q in ``q_range``, equality of H^(i,j) between
    the q and q-1 twist diagrams for i < p+q-3; the shared stable window
    i < 2p-1 across all listed q; and the strand-reduction identity
    H^(i,j)(D_(p,p)) = H^(i,j+1)(D_(p-1,p)) for i < 2p-3.  Each diagram's
    table is computed once.
    """
    qs = _twists_of(q_range)
    if qs[0] < 3:
        raise InputError(f"twist values {qs} leave no valid p: need 2 <= p < min(q) = {qs[0]}")
    _int_in(p, "p", 2, qs[0] - 1)
    cap = float("inf") if i_max is None else _int_of(i_max, "i_max") + 1
    # each comparison: (first diagram, second, i bound, j shift, tag)
    twists = [((p, q), (p, q - 1), min(p + q - 3, cap), 0, f"(p,q)=({p},{q}) vs ({p},{q-1})") for q in qs]
    windows = [((p, q1), (p, q2), min(2 * p - 1, cap), 0, f"window ({p},{q1}) vs ({p},{q2})")
               for q1, q2 in pairwise(qs)]
    reduction = ((p, p), (p - 1, p), min(2 * p - 3, cap), 1, f"({p},{p}) vs ({p-1},{p}) shifted")
    keys = dict.fromkeys(key for c in (*twists, *windows, reduction) for key in c[:2])
    tables = {key: unnormalized_homology(torus_diagram(*key)) for key in keys}
    report = StabilityReport()

    def agree(first, second, bound, dj, tag) -> bool:
        diffs = _differences_below(tables[first], tables[second], bound, dj)
        report.mismatches.extend(f"{tag}: {d}" for d in diffs)
        return not diffs

    report.drop_one_twist = [(c[0][1], c[2], agree(*c)) for c in twists]
    report.shared_window = [(c[0][1], c[1][1], c[2], agree(*c)) for c in windows]
    report.strand_reduction = (reduction[2], agree(*reduction))
    return report


def stable_poincare(m: int, n_values) -> tuple[list[tuple[int, LaurentPoly]], list[tuple[int, int, int, bool]]]:
    """Poincare polynomials of the unnormalized tables of T_(m,n), which
    for these positive braids are the normalized ones times q^(-(m-1)n),
    plus the stable-agreement report for consecutive n: the groups,
    torsion included, at t-powers below m+n-3."""
    _int_in(m, "m", lo=2)
    ns = _twists_of(n_values)
    tables = [unnormalized_homology(torus_diagram(m, n)) for n in ns]
    agreements = [(n1, n2, m + n1 - 3, not _differences_below(t1, t2, m + n1 - 3))
                  for (n1, t1), (n2, t2) in pairwise(zip(ns, tables))]
    return [(n, poincare_polynomial(t)) for n, t in zip(ns, tables)], agreements
