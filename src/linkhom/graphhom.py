"""Graph polynomials and their categorified chain complexes.

The dichromatic polynomial is computed by the spanning-subgraph state
sum and cross-checked by deletion-contraction.  Its terms are the table
from (edges kept, components) to the signed count of such subgraphs, and
the Tutte polynomial, the specializations and D_G are read off that one
table.  Three chain theories are built over the cube of spanning
subgraphs:

 * the finite specialization complex, one copy of Z[X]/(X^(n+1)) per
   component, with the added-edge-inside-a-component map either zero or
   1 -> X^n (both variants are degree preserving);
 * the per-degree polynomial complex, one copy of Z[x] per component
   with variables indexed by the smallest vertex (n <= 2);
 * the enhanced-state complex, nonnegative labels on components, whose
   per-degree Euler characteristics give the series J_G; it is the
   per-degree polynomial complex for n = 2.

All three are short specs for the shared cube engine
(``homcore.cube_blocks``), and ``Pn_homology`` and ``Qn_homology`` hand
them to ``homcore.cube_homology``, which streams the blocks into the
strand pass, so no whole complex is built.  Components are the parts of
a spanning subgraph, numbered by their least vertex, and a generator
labels each component with an exponent.  Block (i, j) lists the
subgraphs with i edges by increasing mask, each with its labelings of
one exponent sum in lexicographic order; positions are worked out from
offsets and ranks, and each edge shape (component counts, where each
component lands, the component the edge touches) has its map tabulated
once per theory and parameter, for every graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .homcore import CubeSpec, CubeStates, HomologyTable, cube_homology
from .homflypt import _loop_sum
from .linkdiag import InputError, _int_in, _int_token, _tuple_of, _window_of
from .polyalg import LaurentPoly, RationalFn

__all__ = [
    "Multigraph",
    "parse_graph",
    "dichromatic",
    "dichromatic_delete_contract",
    "tutte",
    "tutte_recursive",
    "specialize_Pn",
    "specialize_Qn",
    "Pn_homology",
    "polygon_reference",
    "enhanced_homology",
    "Qn_homology",
    "dichromatic_DG",
    "cycle_graph",
]

QV = ("q", "v")
XY = ("x", "y")
TQ = ("t", "q")
Q = ("q",)


@dataclass(frozen=True)
class Multigraph:
    n_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        _int_in(self.n_vertices, "vertex count", lo=0)
        for e in _tuple_of(self.edges, "graph edges", tuple):
            u, v = _tuple_of(e, "graph edge", length=2)
            if not (1 <= u <= self.n_vertices and 1 <= v <= self.n_vertices):
                raise InputError(f"edge ({u},{v}) out of range")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def delete(self, k: int) -> "Multigraph":
        return Multigraph(self.n_vertices, self.edges[:k] + self.edges[k + 1:])

    def contract(self, k: int) -> "Multigraph":
        u, v = self.edges[k]
        if u == v:
            return self.delete(k)
        a, b = min(u, v), max(u, v)

        def relabel(x: int) -> int:
            if x == b:
                x = a
            if x > b:
                x -= 1
            return x

        edges = tuple(
            (relabel(x), relabel(y))
            for i, (x, y) in enumerate(self.edges)
            if i != k
        )
        return Multigraph(self.n_vertices - 1, edges)


def cycle_graph(k: int) -> Multigraph:
    _int_in(k, "cycle length", lo=1)
    if k == 1:
        return Multigraph(1, ((1, 1),))
    edges = tuple((i, i % k + 1) for i in range(1, k + 1))
    return Multigraph(k, edges)


def parse_graph(text: str) -> Multigraph:
    """Parse "v N" then "e u v" lines; edge order is line order."""
    n = None
    edges: list[tuple[int, int]] = []
    for ln in text.strip().splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        toks = ln.split()
        if toks[0] == "v":
            if n is not None:
                raise InputError("duplicate vertex-count line")
            if len(toks) != 2:
                raise InputError(f"malformed vertex line {ln!r}")
            n = _int_token(toks[1], f"line {ln!r}")
        elif toks[0] == "e":
            if n is None:
                raise InputError("edge line before vertex count")
            if len(toks) != 3:
                raise InputError(f"malformed edge line {ln!r}")
            edges.append(tuple(_int_token(t, f"line {ln!r}") for t in toks[1:]))
        else:
            raise InputError(f"unrecognized line {ln!r}")
    if n is None:
        raise InputError("missing vertex-count line")
    return Multigraph(n, tuple(edges))


def _graph_states(g: Multigraph) -> CubeStates:
    """Components of every spanning subgraph: a present edge joins its
    ends, vertex v is element v - 1."""
    return CubeStates(g.n_vertices, [((), ((u - 1, v - 1),)) for u, v in g.edges])


def dichromatic(g: Multigraph) -> LaurentPoly:
    """State sum over spanning subgraphs of (-1)^|s| q^|s| v^k(s)."""
    states = _graph_states(g)
    acc: dict[tuple[int, int], int] = {}
    for mask in range(1 << g.n_edges):
        i = mask.bit_count()
        key = (i, states.state(mask)[0])
        acc[key] = acc.get(key, 0) + (-1 if i & 1 else 1)
    return LaurentPoly(QV, acc)


def dichromatic_delete_contract(g: Multigraph) -> LaurentPoly:
    """Independent route: P(G) = P(G-e) - q P(G/e), P(N_k) = v^k."""
    memo: dict = {}

    def canon(h: Multigraph):
        return (h.n_vertices, tuple(sorted(tuple(sorted(e)) for e in h.edges)))

    def rec(h: Multigraph) -> LaurentPoly:
        if not h.edges:
            return LaurentPoly.monomial(QV, (0, h.n_vertices))
        key = canon(h)
        out = memo.get(key)
        if out is None:
            q = LaurentPoly.monomial(QV, (1, 0))
            out = rec(h.delete(0)) - q * rec(h.contract(0))
            memo[key] = out
        return out

    return rec(g)


def tutte(g: Multigraph) -> LaurentPoly:
    """State sum (x-1)^(k(s)-k(E)) (y-1)^(|s|-N+k(s))."""
    table = dichromatic(g).terms  # (|s|, k(s)) -> (-1)^|s| times the number of such s
    k_full = min(k for _, k in table)  # the whole edge set has the fewest components
    xm1 = LaurentPoly.from_terms(XY, {(1, 0): 1, (0, 0): -1})
    ym1 = LaurentPoly.from_terms(XY, {(0, 1): 1, (0, 0): -1})
    out = LaurentPoly.zero(XY)
    for (i, k), c in table.items():
        out = out + (xm1 ** (k - k_full) * ym1 ** (i - g.n_vertices + k)).scale(-c if i & 1 else c)
    return out


def tutte_recursive(g: Multigraph) -> LaurentPoly:
    """Bridge/loop deletion-contraction route."""
    def is_loop(h: Multigraph, k: int) -> bool:
        u, v = h.edges[k]
        return u == v

    def is_bridge(h: Multigraph, k: int) -> bool:
        full = _graph_states(h)
        all_mask = (1 << h.n_edges) - 1
        return full.state(all_mask)[0] < full.state(all_mask ^ (1 << k))[0]

    def rec(h: Multigraph) -> LaurentPoly:
        if not h.edges:
            return LaurentPoly.one(XY)
        for k in range(h.n_edges):
            if not is_loop(h, k) and not is_bridge(h, k):
                return rec(h.delete(k)) + rec(h.contract(k))
        # only bridges and loops remain
        out = LaurentPoly.one(XY)
        for k in range(h.n_edges):
            if is_loop(h, k):
                out = out * LaurentPoly.monomial(XY, (0, 1))
            else:
                out = out * LaurentPoly.monomial(XY, (1, 0))
        return out

    return rec(g)


def specialize_Pn(g: Multigraph, n: int) -> LaurentPoly:
    """P(q^n, 1 + q + ... + q^n), exactly."""
    p = dichromatic(g)
    qn = LaurentPoly.monomial(Q, _int_in(n, "n", lo=1))
    braces = LaurentPoly.from_terms(Q, {i: 1 for i in range(n + 1)})
    out = LaurentPoly.zero(Q)
    for (eq, ev), c in p.terms.items():
        out = out + (qn ** eq * braces ** ev).scale(c)
    return out


def specialize_Qn(g: Multigraph, n: int, window: tuple[int, int]) -> LaurentPoly:
    """Laurent-series coefficients of P(q, q^n/(q-1)) inside the window.

    v expands as q^(n-1) (1 + q^-1 + q^-2 + ...); with finitely many
    states the coefficient of each power of q in the window is exact.
    """
    _int_in(n, "n", hi=2)
    lo, hi = _window_of(window, "degree window", optional=False)
    acc = {e: 0 for e in range(lo, hi + 1)}
    for (i, k), c in dichromatic(g).terms.items():
        # q^i * q^(k(n-1)) * sum_d C(d+k-1, k-1) q^(-d)
        base = i + k * (n - 1)
        for e in range(lo, hi + 1):
            d = base - e
            if d < 0:
                continue
            # with no components (no vertices) the sum is v^0 = 1, at d = 0 alone
            acc[e] += c * (comb(d + k - 1, k - 1) if k else d == 0)
    return LaurentPoly.from_terms(Q, acc)


# ---------------------------------------------------------------------------
# the finite specialization complex
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _pn_spec(n: int, variant: str) -> CubeSpec:
    # one spec per (n, variant), so its edge tables serve every graph
    return CubeSpec(
        top=n,
        grading=(n, n, 1),  # j = n i + sum of (n - a) over the parts
        merge=lambda x, y: (x + y,) if x + y <= n else (),
        inside=(lambda x: (n,) if x == 0 else ()) if variant == "xn" else (lambda x: ()),
    )


def Pn_homology(g: Multigraph, n: int, variant: str = "zero") -> HomologyTable:
    """Homology of the cube complex with one copy of Z[X]/(X^(n+1)) per
    component.

    Merge edges multiply exponents (X^a (x) X^b -> X^(a+b), zero past n);
    an edge landing inside a component applies the chosen variant: the
    zero map, or 1 -> X^n with X^a -> 0 for a > 0.
    """
    _int_in(n, "n", lo=1)
    if variant not in ("zero", "xn"):
        raise InputError("variant must be 'zero' or 'xn'")
    return cube_homology(_pn_spec(n, variant), _graph_states(g))


def polygon_reference(k: int, n: int) -> HomologyTable:
    """Closed-form homology of the k-gon for the zero-map variant.

    Transcribed free Poincare polynomial plus one Z_(n+1) torsion summand
    per listed bidegree; serves as the oracle for Pn_homology on cycles.
    """
    _int_in(k, "k", lo=3)
    _int_in(n, "n", lo=1)
    low = LaurentPoly.from_terms(TQ, {(0, i): 1 for i in range(n)})  # 1 + ... + q^(n-1)
    full = LaurentPoly.from_terms(TQ, {(0, i): 1 for i in range(n + 1)})  # 1 + ... + q^n

    def mono(ti: int, qj: int) -> LaurentPoly:
        return LaurentPoly.monomial(TQ, (ti, qj))

    free = LaurentPoly.zero(TQ)
    torsion_at: list[tuple[int, int]] = []
    if k % 2 == 1:
        g = (k - 1) // 2
        middle = LaurentPoly.zero(TQ)
        for i in range(1, g):
            middle = middle + (mono(2 * i - 1, 0) + mono(2 * i, 0)).shift((0, g * n - g + i * (n + 1)))
        middle = middle + mono(2 * g - 1, 2 * g * n)
        free = low ** (2 * g + 1) + low * middle
        free = free + mono(2 * g, 2 * g * n) * full
        free = free + mono(2 * g + 1, (2 * g + 1) * n) * full
        for i in range(1, g + 1):
            torsion_at.append((2 * i - 1, g * n - g - 1 + i * (n + 1)))
    else:
        g = (k - 2) // 2
        middle = LaurentPoly.zero(TQ)
        for i in range(g):
            middle = middle + (mono(2 * i, 0) + mono(2 * i + 1, 0)).shift((0, g * n + n - g + i * (n + 1)))
        middle = middle + mono(2 * g, (2 * g + 1) * n)
        free = low ** (2 * g + 2) + low * middle
        free = free + mono(2 * g + 1, (2 * g + 1) * n) * full
        free = free + mono(2 * g + 2, (2 * g + 2) * n) * full
        for i in range(1, g + 1):
            torsion_at.append((2 * i, (g + 1) * (n - 1) + i * (n + 1)))

    entries: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
    for (ti, qj), c in free.terms.items():
        entries[(ti, qj)] = (c, ())
    for (i, j) in torsion_at:
        rank, tors = entries.get((i, j), (0, ()))
        entries[(i, j)] = (rank, tors + (n + 1,))
    return HomologyTable(entries)


# ---------------------------------------------------------------------------
# enhanced-state complex and the per-degree polynomial complex
# ---------------------------------------------------------------------------


def enhanced_homology(g: Multigraph, window: tuple[int, int]) -> HomologyTable:
    """Homology of the enhanced-state cube: states carry nonnegative labels
    on components, i = |s| and j = |s| + k(s) - |labels|.  Adding an edge
    merges labels additively, or increments the label of the component it
    lands in.  This is the per-degree polynomial complex for n = 2."""
    return Qn_homology(g, 2, window)


@lru_cache(maxsize=8)
def _qn_spec(n: int) -> CubeSpec:
    # one spec per n, so its edge tables serve every graph and window
    return CubeSpec(
        top=None,
        grading=(1, n - 1, 1),  # j = i + k (n - 1) - sum of exponents
        merge=lambda x, y: (x + y + 2 - n,),
        inside=lambda x: (x + 1,),
    )


def Qn_homology(g: Multigraph, n: int, window: tuple[int, int]) -> HomologyTable:
    """Homology of the per-degree polynomial complex: one polynomial
    variable per component (indexed by smallest vertex), merge maps
    substituting the larger variable and multiplying by x^(2-n), internal
    edges multiplying by x.  Exact inside the window since differentials
    preserve degree."""
    _int_in(n, "n", hi=2)  # so the merge exponent 2-n is nonnegative
    return cube_homology(_qn_spec(n), _graph_states(g), _window_of(window, "degree window", optional=False))


def dichromatic_DG(g: Multigraph) -> RationalFn:
    """(1 + t^-1 q)^m P(q, (1 + t^-1 q)/(1 - q)), exactly: with s_k(q) the
    signed count of states with k components by edges kept, this is the
    loop-value sum (``homflypt._loop_sum``) of the s_k with Q = q and m the
    number of edges, formed with no polynomial gcd."""
    terms = dichromatic(g).terms  # (edges kept i, components k) -> (-1)^i times the number of such states
    circles = [[0] * (g.n_edges + 1) for _ in range(max(k for _, k in terms) + 1)]
    for (i, k), c in terms.items():
        circles[k][i] = c
    return _loop_sum(circles, 1, m=g.n_edges)
