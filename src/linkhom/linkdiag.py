"""Link presentations: braid words and planar diagram codes.

A crossing is stored in PD slot order (a, b, c, d): slot a is the
incoming under-strand and the slots are listed counterclockwise.  With
that normalization the smoothing rule is uniform for both signs:

    0-smoothing joins a-b and c-d,    1-smoothing joins a-d and b-c.

For a positive braid letter this makes the 0-smoothing the vertical
(identity) smoothing and the 1-smoothing the horizontal plat; for a
negative letter the roles swap.  Crossing-free circles are tracked
separately as loops.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

__all__ = [
    "InputError",
    "BraidWord",
    "Crossing",
    "Diagram",
    "parse_braid",
    "braid_closure",
    "parse_pd",
    "resolve_crossing",
    "mirror",
    "conjugate",
    "stabilize",
    "diagram_to_json",
    "diagram_from_json",
]


class InputError(ValueError):
    """Malformed input: braid text, a PD code or a graph that cannot be
    read, or a parameter out of its range."""


@dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.strands < 1:
            raise InputError("a braid needs at least one strand")
        for w in self.letters:
            if w == 0 or abs(w) >= self.strands:
                raise InputError(f"letter {w} out of range for {self.strands} strands")

    def permutation(self) -> tuple[int, ...]:
        """One-line permutation of strand positions induced by the braid."""
        perm = list(range(1, self.strands + 1))
        for w in self.letters:
            i = abs(w) - 1
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        return tuple(perm)

    def component_count(self) -> int:
        perm = self.permutation()
        seen = [False] * self.strands
        count = 0
        for i in range(self.strands):
            if seen[i]:
                continue
            count += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j] - 1
        return count

    def is_knot(self) -> bool:
        return self.component_count() == 1

    def text(self) -> str:
        return f"{self.strands}: {' '.join(str(w) for w in self.letters)}".rstrip()


def parse_braid(text: str) -> BraidWord:
    """Parse "<p>: w1 w2 ... wm" into a braid word."""
    head, sep, tail = text.partition(":")
    if not sep:
        raise InputError(f"malformed braid text {text!r}: missing ':'")
    try:
        strands = int(head.strip())
    except ValueError:
        raise InputError(f"malformed strand count {head.strip()!r}") from None
    letters = []
    for tok in tail.split():
        try:
            letters.append(int(tok))
        except ValueError:
            raise InputError(f"malformed letter {tok!r}") from None
    return BraidWord(strands, tuple(letters))


def conjugate(b: BraidWord, k: int) -> BraidWord:
    """Prepend k^-1 and append k."""
    if k == 0 or abs(k) >= b.strands:
        raise ValueError(f"conjugating letter {k} out of range")
    return BraidWord(b.strands, (-k,) + b.letters + (k,))


def stabilize(b: BraidWord, sign: int = 1) -> BraidWord:
    """Markov stabilization: one more strand, sigma_p^(+-1) appended."""
    if sign not in (1, -1):
        raise ValueError("stabilization sign must be +1 or -1")
    return BraidWord(b.strands + 1, b.letters + (sign * b.strands,))


@dataclass(frozen=True)
class Crossing:
    sign: int
    arcs: tuple[int, int, int, int]  # PD slots (a, b, c, d)

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("crossing sign must be +1 or -1")

    def joins(self, bit: int) -> tuple[tuple[int, int], tuple[int, int]]:
        a, b, c, d = self.arcs
        if bit == 0:
            return (a, b), (c, d)
        return (a, d), (b, c)


@dataclass(frozen=True)
class Diagram:
    crossings: tuple[Crossing, ...]
    loops: tuple[int, ...] = ()
    provenance: str = "pd-code"

    def __post_init__(self):
        counts: dict[int, int] = {}
        for x in self.crossings:
            for arc in x.arcs:
                counts[arc] = counts.get(arc, 0) + 1
        for arc, n in counts.items():
            if n != 2:
                raise ValueError(f"arc {arc} occupies {n} slots, expected 2")
        for lp in self.loops:
            if lp in counts:
                raise ValueError(f"loop label {lp} collides with an arc label")

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    @property
    def n_plus(self) -> int:
        return sum(1 for x in self.crossings if x.sign > 0)

    @property
    def n_minus(self) -> int:
        return sum(1 for x in self.crossings if x.sign < 0)

    @property
    def writhe(self) -> int:
        return self.n_plus - self.n_minus

    def arc_labels(self) -> tuple[int, ...]:
        out = set()
        for x in self.crossings:
            out.update(x.arcs)
        return tuple(sorted(out))


def braid_closure(b: BraidWord) -> Diagram:
    """Closure of a braid word; crossings carry the (type, occurrence) order."""
    p = b.strands
    cur = list(range(p))  # arc id currently at each strand position
    next_arc = p
    raw = []  # (type index, occurrence, sign, slots)
    occ: dict[int, int] = {}
    for w in b.letters:
        i = abs(w) - 1
        x, y = cur[i], cur[i + 1]
        u, v = next_arc, next_arc + 1
        next_arc += 2
        if w > 0:
            slots = (y, v, u, x)
        else:
            slots = (x, y, v, u)
        occ[abs(w)] = occ.get(abs(w), 0) + 1
        raw.append((abs(w), occ[abs(w)], 1 if w > 0 else -1, slots))
        cur[i], cur[i + 1] = u, v

    # closure: identify the top arc at each position with the bottom arc
    parent = list(range(next_arc))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(p):
        ra, rb = find(cur[i]), find(i)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    used = set()
    for _, _, _, slots in raw:
        used.update(find(a) for a in slots)
    relabel = {root: idx for idx, root in enumerate(sorted(used))}
    loops = tuple(range(len(used), len(used) + sum(1 for i in range(p) if find(i) not in used and find(i) == i)))

    raw.sort(key=lambda r: (r[0], r[1]))
    crossings = tuple(
        Crossing(sign, tuple(relabel[find(a)] for a in slots)) for _, _, sign, slots in raw
    )
    return Diagram(crossings, loops, provenance="braid-closure")


def parse_pd(text: str) -> Diagram:
    """Parse PD lines "X a b c d"; slot a is the incoming under-strand.

    Orientations are inferred: the under-strand runs a -> c, and each arc
    label must be incoming at one of its two slots and outgoing at the
    other.  A component threaded only through over-slots is oriented at
    one crossing by the consecutive-numbering convention, and from there
    by propagation like the rest.
    """
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise InputError("empty PD input")
    quads = []
    for ln in lines:
        toks = ln.replace(",", " ").split()
        if toks[0].upper() != "X" or len(toks) != 5:
            raise InputError(f"malformed PD line {ln!r}")
        try:
            quads.append(tuple(int(t) for t in toks[1:]))
        except ValueError:
            raise InputError(f"malformed PD line {ln!r}") from None

    counts: dict[int, int] = {}
    for q in quads:
        for arc in q:
            counts[arc] = counts.get(arc, 0) + 1
    for arc, n in counts.items():
        if n != 2:
            raise InputError(f"arc {arc} appears {n} times, expected 2")

    # direction[h] for slot handles (crossing index, slot index): +1 out, -1 in
    direction: dict[tuple[int, int], int] = {}
    slots_of_arc: dict[int, list[tuple[int, int]]] = {}
    for ci, q in enumerate(quads):
        for si, arc in enumerate(q):
            slots_of_arc.setdefault(arc, []).append((ci, si))
    for ci, q in enumerate(quads):
        direction[(ci, 0)] = -1  # incoming under
        direction[(ci, 2)] = +1  # outgoing under

    total = 2 * len(quads)
    changed = True
    while changed:
        changed = False
        for arc, (h1, h2) in slots_of_arc.items():
            d1, d2 = direction.get(h1), direction.get(h2)
            if d1 is not None and d2 is None:
                direction[h2] = -d1
                changed = True
            elif d2 is not None and d1 is None:
                direction[h1] = -d2
                changed = True
            elif d1 is not None and d2 is not None and d1 == d2:
                raise InputError(f"inconsistent orientation at arc {arc}")
        for ci, q in enumerate(quads):
            db, dd = direction.get((ci, 1)), direction.get((ci, 3))
            if db is not None and dd is None:
                direction[(ci, 3)] = -db
                changed = True
            elif dd is not None and db is None:
                direction[(ci, 1)] = -dd
                changed = True
            elif db is not None and dd is not None and db == dd:
                raise InputError(f"inconsistent over-strand orientation at crossing {ci}")
        unset = [ci for ci in range(len(quads)) if (ci, 1) not in direction]
        if not changed and unset:
            # an all-over component: orient its first crossing by
            # consecutive numbering, then propagate from there
            ci = unset[0]
            b, d = quads[ci][1], quads[ci][3]
            if (b - d) % total == 1:
                direction[(ci, 1)], direction[(ci, 3)] = +1, -1
            elif (d - b) % total == 1:
                direction[(ci, 1)], direction[(ci, 3)] = -1, +1
            else:
                raise InputError(f"cannot infer over-strand orientation at crossing {ci}")
            changed = True

    crossings = []
    for ci, q in enumerate(quads):
        # positive crossing: over-strand enters at slot d and exits at slot b
        sign = 1 if direction[(ci, 3)] == -1 else -1
        crossings.append(Crossing(sign, q))
    return Diagram(tuple(crossings), (), provenance="pd-code")


def resolve_crossing(d: Diagram, crossing: int, bit: int) -> Diagram:
    """Replace one crossing by its 0- or 1-smoothing; fresh diagram."""
    if not 0 <= crossing < d.n_crossings:
        raise ValueError(f"unknown crossing {crossing}")
    if bit not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    (a, b), (c, e) = d.crossings[crossing].joins(bit)
    # each group of joined arcs, with the number of joins inside it
    groups = [({a, b, c, e}, 2)] if {a, b} & {c, e} else [({a, b}, 1), ({c, e}, 1)]

    relabel: dict[int, int] = {}
    new_loops = list(d.loops)
    remaining_arcs = {arc for i, x in enumerate(d.crossings) if i != crossing for arc in x.arcs}
    for mem, joins in groups:
        canon = min(mem)
        for arc in mem:
            relabel[arc] = canon
        # a group closes into a loop when every arc in it is joined at both ends here
        if joins == len(mem) and not (mem & remaining_arcs):
            new_loops.append(canon)

    crossings = tuple(
        Crossing(x.sign, tuple(relabel.get(a, a) for a in x.arcs))
        for i, x in enumerate(d.crossings)
        if i != crossing
    )
    return Diagram(crossings, tuple(sorted(new_loops)), provenance=d.provenance)


def mirror(d: Diagram) -> Diagram:
    """Swap over/under at every crossing (flips all signs)."""
    out = []
    for x in d.crossings:
        a, b, c, cd = x.arcs
        if x.sign > 0:
            out.append(Crossing(-1, (cd, a, b, c)))
        else:
            out.append(Crossing(1, (b, c, cd, a)))
    return Diagram(tuple(out), d.loops, provenance=d.provenance)


def diagram_to_json(d: Diagram) -> str:
    return json.dumps(
        {
            "crossings": [{"sign": x.sign, "arcs": list(x.arcs)} for x in d.crossings],
            "loops": list(d.loops),
            "provenance": d.provenance,
        },
        separators=(",", ":"),
        sort_keys=True,
    )


def diagram_from_json(text: str) -> Diagram:
    data = json.loads(text)
    crossings = tuple(Crossing(x["sign"], tuple(x["arcs"])) for x in data["crossings"])
    return Diagram(crossings, tuple(data["loops"]), provenance=data["provenance"])
