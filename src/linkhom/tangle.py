"""Khovanov homology by Bar-Natan's local scan over Z.

Bar-Natan, "Fast Khovanov homology computations" (math/0606318), in the
dotted cobordisms of "Khovanov's homology for tangles and cobordisms"
(math/0410495) with X^2 = 0.  The crossings are added one at a time, in
``scan_order``; after each, the complex is that of the tangle they make,
whose ends are the open arc labels (met once so far).

An object is (matching, h, q): a crossingless matching of the open labels,
its homological degree and its q-shift.  Hom(a, b) is free over Z on the
dot patterns of the disks that the cycles of a and b bound, one bit per
cycle (numbered by least label), so a map is a dict {dot mask:
coefficient}.  Every cobordism is evaluated by one rule (``_Surface``):
disks, strips and the saddle are pieces of Euler characteristic 1, a
gluing along an interval takes 1 off, and a cup or cap on a circle adds 1.
A component of genus g with D dots and k >= 1 boundary cycles is
2^g Delta^(k-1)(X^(D+g)) (neck cutting); a closed one is 1 at (g, D) =
(0, 1), 2 at (1, 0) and 0 otherwise.  The components depend only on the
matchings, so they are found once per (source, target, smoothing), and
only the dots change per basis term.

Adding a crossing tensors the complex with [0-smoothing -> 1-smoothing]:
q rises by 1 per 1-smoothing, the old differential keeps its sign and the
saddle gets (-1)^h.  Each closed circle is delooped into labels 1 (q + 1)
and X (q - 1): in the source of a map 1 is a cup and X a dotted cup, in
the target 1 is a dotted cap and X a cap.  Then d^2 = 0 is checked (a
ValueError if not), and each entry u id: O1 -> O2 (u = +-1, one matching,
one q) is cancelled: d(a -> b) -= u d(O1 -> b) d(a -> O2).  At the end
every matching is empty, and the integer blocks go, in strand order (j,
then i), to ``homcore.strand_homology``.  Every cache lives for one call.
"""

from __future__ import annotations

from .homcore import HomologyTable, SparseIntMatrix, strand_homology
from .linkdiag import Crossing, Diagram

__all__ = ["scan_order", "scan_homology"]


def scan_order(crossings) -> list[Crossing]:
    """The crossings in scan order: each next one has the most open arc
    labels (met once so far), the first such in the given order."""
    rest, open_, order = list(crossings), set(), []
    while rest:
        x = max(rest, key=lambda y: sum(map(open_.__contains__, y.arcs)))
        rest.remove(x)
        order.append(x)
        for a in x.arcs:
            open_ ^= {a}
    return order


def _glue(m: dict[int, int], joins) -> tuple[dict[int, int], list[int]]:
    """The matching ``m`` with the arcs ``joins`` added, and a label on each
    circle they close."""
    m, circles = dict(m), []
    for u, v in joins:
        eu = m.pop(u, u)  # the path end at u: its other end if u is open, else u
        if eu == v:
            m.pop(v, None)
            circles.append(u)
        else:
            ev = m.pop(v, v)
            m[eu], m[ev] = ev, eu
    return m, circles


def _cycles(a: dict[int, int], b: dict[int, int]) -> tuple[dict[int, int], list[int]]:
    """The cycles of matchings ``a`` and ``b`` of one label set, numbered by
    least label: each label's cycle, and the least label of each."""
    at: dict[int, int] = {}
    least: list[int] = []
    for p in sorted(a):
        if p not in at:
            x = p
            while x not in at:
                y = a[x]
                at[x] = at[y] = len(least)
                x = b[y]
            least.append(p)
    return at, least


class _Surface(dict):
    """The surface of ``n`` pieces of Euler characteristic 1 glued by
    ``joins`` (piece, piece, Euler characteristic of the gluing), with
    boundary cycle c on piece ``boundary[c]``: {dot mask of the pieces:
    {dot mask of the boundary disks: coefficient}}, each value worked out
    on first use from the components (pieces, genus, boundary bits)."""

    def __init__(self, n: int, joins, boundary: list[int]):
        super().__init__()
        parent, chi = list(range(n)), [1] * n

        def root(x: int) -> int:
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        for a, b, cost in joins:
            ra, rb = root(a), root(b)
            if ra != rb:
                parent[rb] = ra
                chi[ra] += chi[rb]
            chi[ra] -= cost
        comps: dict[int, list] = {}
        for p in range(n):
            comps.setdefault(root(p), [0, []])[0] |= 1 << p
        for c, p in enumerate(boundary):
            comps[root(p)][1].append(1 << c)
        self.comps = [(mask, (2 - chi[r] - len(bits)) // 2, bits) for r, (mask, bits) in comps.items()]

    def __missing__(self, dots: int) -> dict[int, int]:
        # per component, D + g = 0 gives the patterns with one disk undotted,
        # D + g = 1 all disks dotted, times 2^g
        masks, coeff = [0], 1
        for pieces, genus, bits in self.comps:
            e = (dots & pieces).bit_count() + genus
            if e > 1 or not (e or bits):
                masks = []
                break
            full = sum(bits)
            if e:
                coeff <<= genus
                masks = [m | full for m in masks]
            else:
                masks = [m | full ^ b for m in masks for b in bits]
        value = self[dots] = dict.fromkeys(masks, coeff)
        return value


def _add(acc: dict[int, int], morph: dict[int, int], c: int) -> None:
    for m, v in morph.items():
        acc[m] = acc.get(m, 0) + c * v


class _Complex:
    """A complex of the scan: its matchings, its objects (matching id, h, q)
    and the entries out of and into each object, all by id."""

    def __init__(self, matchings: list[dict[int, int]]):
        self.matchings = matchings
        self.objects: dict[int, tuple[int, int, int]] = {}
        self.out: dict[int, dict[int, dict[int, int]]] = {}
        self.into: dict[int, set[int]] = {}
        self._surfaces: dict[tuple[int, int, int], tuple[_Surface, int]] = {}  # of composites

    def add(self, obj: tuple[int, int, int]) -> None:
        """A new object, numbered by the count so far (no cancellation yet)."""
        o = len(self.objects)
        self.objects[o], self.out[o], self.into[o] = obj, {}, set()

    def put(self, a: int, b: int, morph: dict[int, int]) -> None:
        if morph:
            self.out[a][b] = morph
            self.into[b].add(a)
        elif b in self.out[a]:
            del self.out[a][b]
            self.into[b].discard(a)

    def compose(self, acc: dict[int, int], w: int, f: dict[int, int], g: dict[int, int], a: int, b: int, c: int) -> None:
        """Add w times g after f to ``acc``, for f from matching a to b and g
        from b to c (ids)."""
        if (a, b, c) not in self._surfaces:
            ma, mb, mc = (self.matchings[k] for k in (a, b, c))
            (ab, lab), (bc, lbc) = _cycles(ma, mb), _cycles(mb, mc)
            joins = [(ab[p], len(lab) + bc[p], 1) for p, r in mb.items() if p < r]
            self._surfaces[a, b, c] = _Surface(len(lab) + len(lbc), joins, [ab[p] for p in _cycles(ma, mc)[1]]), len(lab)
        surface, n1 = self._surfaces[a, b, c]
        for m1, c1 in f.items():
            for m2, c2 in g.items():
                _add(acc, surface[m1 | m2 << n1], w * c1 * c2)

    def check_d_squared(self, scanned: int) -> None:
        objects, out = self.objects, self.out
        for a, row in out.items():
            acc: dict[int, dict[int, int]] = {}
            for b, f in row.items():
                for c, g in out[b].items():
                    self.compose(acc.setdefault(c, {}), 1, f, g, objects[a][0], objects[b][0], objects[c][0])
            if any(any(v.values()) for v in acc.values()):
                raise ValueError(f"d^2 != 0 in the scan after {scanned} crossings")

    def cancel(self) -> None:
        """Cancel every +-identity entry, until none is left."""
        objects, out, into = self.objects, self.out, self.into
        work = list(out)
        while work:
            a = work.pop()
            if a not in out:
                continue
            ma = objects[a][0]
            for b, f in out[a].items():
                if objects[b][0] == ma and len(f) == 1 and f.get(0) in (1, -1):
                    break
            else:
                continue
            u = f[0]
            onward = [(t, h) for t, h in out[a].items() if t != b]
            for s in into[b] - {a}:
                e, ms = out[s][b], objects[s][0]
                for t, h in onward:
                    row = dict(out[s].get(t, {}))
                    self.compose(row, -u, e, h, ms, ma, objects[t][0])
                    self.put(s, t, {m: v for m, v in row.items() if v})
                work.append(s)
            for o in (a, b):
                for s in into.pop(o):
                    del out[s][o]
                for t in out.pop(o):
                    into[t].discard(o)
                del objects[o]


def scan_homology(d: Diagram, shift: tuple[int, int] = (0, 0)) -> HomologyTable:
    """Khovanov homology of ``d`` by the scan, moved by ``shift``."""
    loops = len(d.loops)
    cx = _Complex([{}])
    for lam in range(1 << loops):
        cx.add((0, 0, loops - 2 * lam.bit_count()))
    for scanned, x in enumerate(scan_order(d.crossings), 1):
        cx = _add_crossing(cx, x)
        cx.check_d_squared(scanned)
        cx.cancel()
    dims: dict[tuple[int, int], int] = {}
    at: dict[int, int] = {}  # each object's place in its block
    for o, (_, h, q) in cx.objects.items():
        at[o] = dims.get((h, q), 0)
        dims[h, q] = at[o] + 1
    entries: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
    for a, row in cx.out.items():
        for b, f in row.items():
            entries.setdefault(cx.objects[a][1:], {})[at[b], at[a]] = f[0]
    blocks = [((i, j), SparseIntMatrix(dims[i + 1, j], dims[i, j], entries[i, j]))
              for i, j in sorted(entries, key=lambda k: (k[1], k[0]))]
    return strand_homology(dims, blocks, shift)


def _add_crossing(cx: _Complex, x: Crossing) -> _Complex:
    """The complex ``cx`` tensored with crossing ``x``'s, delooped."""
    new = _Complex([])
    interned: dict[frozenset, int] = {}
    glued: dict[tuple[int, int], tuple[int, list[int]]] = {}  # (matching id, smoothing) -> (new id, circles)

    def glue(mid: int, bit: int) -> tuple[int, list[int]]:
        if (mid, bit) not in glued:
            m, circles = _glue(cx.matchings[mid], x.joins(bit))
            key = frozenset(m.items())
            if key not in interned:
                interned[key] = len(new.matchings)
                new.matchings.append(m)
            glued[mid, bit] = interned[key], circles
        return glued[mid, bit]

    first: dict[tuple[int, int], int] = {}  # (object, smoothing) -> the id of its first delooped object
    for o, (mid, h, q) in cx.objects.items():
        for bit in (0, 1):
            nm, circles = glue(mid, bit)
            first[o, bit] = len(new.objects)
            for lam in range(1 << len(circles)):
                new.add((nm, h + bit, q + bit + len(circles) - 2 * lam.bit_count()))

    surfaces: dict[tuple, tuple] = {}

    def surface(ma: int, mb: int, bit: int | None) -> tuple:
        # a map from ma to mb ⊔ the identity strips of smoothing ``bit``,
        # or (bit None) the identity of ma ⊔ the saddle; cups and caps on
        # the circles
        if (ma, mb, bit) not in surfaces:
            low, least = _cycles(cx.matchings[ma], cx.matchings[mb])
            parts, bits = (x.joins(bit), (bit, bit)) if bit is not None else ((x.arcs,), (0, 1))
            (na, cups), (nb, caps) = glue(ma, bits[0]), glue(mb, bits[1])
            slots = {p: [c] for p, c in low.items()}
            for k, labels in enumerate(parts, len(least)):
                for u in labels:
                    slots.setdefault(u, []).append(k)
            n = len(least) + len(parts)
            joins = [(s[0], s[1], 1) for s in slots.values() if len(s) == 2]
            joins += [(n + k, slots[u][0], 0) for k, u in enumerate(cups + caps)]
            boundary = [slots[p][0] for p in _cycles(new.matchings[na], new.matchings[nb])[1]]
            surfaces[ma, mb, bit] = _Surface(n + len(cups) + len(caps), joins, boundary), n, len(cups), len(caps)
        return surfaces[ma, mb, bit]

    def deloop(a: int, b: int, ba: int, bb: int, key: tuple, morph: dict[int, int], sign: int) -> None:
        # the entries from the delooped objects of (a, smoothing ba) to those
        # of (b, bb), for the map morph (times sign) before delooping
        value, n, n_cups, n_caps = surface(*key)
        full = (1 << n_caps) - 1
        for lam in range(1 << n_cups):
            for mu in range(1 << n_caps):
                dots = (lam | (full ^ mu) << n_cups) << n
                acc: dict[int, int] = {}
                for m, c in morph.items():
                    _add(acc, value[m | dots], sign * c)
                new.put(first[a, ba] + lam, first[b, bb] + mu, {m: v for m, v in acc.items() if v})

    for a, row in cx.out.items():
        ma = cx.objects[a][0]
        for b, f in row.items():
            for bit in (0, 1):
                deloop(a, b, bit, bit, (ma, cx.objects[b][0], bit), f, 1)
    for a, (ma, h, _) in cx.objects.items():
        deloop(a, a, 0, 1, (ma, ma, None), {0: 1}, -1 if h & 1 else 1)
    return new
