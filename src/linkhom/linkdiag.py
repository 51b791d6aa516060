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

import re
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
    "markov_reduce",
]


class InputError(ValueError):
    """Malformed input: braid text, a PD code or a graph that cannot be
    read, a value type built from fields of the wrong type or shape, or
    a parameter of the wrong type or out of its range.  The CLI exits 2
    on it.  ``polyalg``
    and ``homcore``, the layer below, keep ``ValueError``."""


def _tuple_of(value, what: str, item: type = int, length: int | None = None) -> tuple:
    """``value`` if it is a tuple, of ``length`` entries when given, whose
    entries are exactly of type ``item`` (so a bool is no int); else an
    InputError naming ``what``."""
    if type(value) is not tuple or any(type(x) is not item for x in value) or length not in (None, len(value)):
        kind = "an int tuple" if item is int else f"a tuple of {item.__name__}s"
        size = "" if length is None else f" of length {length}"
        raise InputError(f"{what} must be {kind}{size}, not {value!r}")
    return value


def _int_of(value, what: str) -> int:
    """``value`` if it is exactly an int (so no bool, float or str); else an
    InputError naming ``what``."""
    if type(value) is not int:
        raise InputError(f"{what} must be an int, not {value!r}")
    return value


def _int_in(value, what: str, lo: float = float("-inf"), hi: float = float("inf")) -> int:
    """``value`` if it is exactly an int in [lo, hi]; else an InputError naming ``what``."""
    if not lo <= _int_of(value, what) <= hi:
        raise InputError(f"need {what} >= {lo}" if value < lo else f"need {what} <= {hi}")
    return value


def _window_of(value, what: str, optional: bool = True) -> tuple[int, int] | None:
    """``value`` if it is an int pair (lo, hi) with lo <= hi, or None (every
    degree) when ``optional``; else an InputError naming ``what``."""
    if value is None and optional:
        return None
    lo, hi = _tuple_of(value, what, length=2)
    if lo > hi:
        raise InputError(f"{what} must have lo <= hi, not {value!r}")
    return value


def _twists_of(values) -> list[int]:
    """The twist values of the iterable ``values``, sorted, if they are
    exact ints, at least one and no two equal; else an InputError."""
    if not hasattr(values, "__iter__"):
        raise InputError(f"twist values must be an iterable of ints, not {values!r}")
    ns = sorted(_int_of(n, "twist value") for n in values)
    if not ns:
        raise InputError("empty twist list")
    if len(set(ns)) < len(ns):
        raise InputError(f"repeated twist value in {ns}")
    return ns


def _int_token(token: str, where: str) -> int:
    """The integer that ``token`` spells in ASCII decimal, [+-]?[0-9]+ (so
    no '_', no other script's digits and no spaces), or an InputError
    naming the token and ``where`` it was read."""
    if re.fullmatch(r"[+-]?[0-9]+", token):
        try:
            return int(token)
        except ValueError:  # more digits than int() converts
            pass
    raise InputError(f"malformed number {token!r} in {where}")


@dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        _int_in(self.strands, "strand count", lo=1)
        for w in _tuple_of(self.letters, "braid letters"):
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
    where = f"braid text {text!r}"
    return BraidWord(_int_token(head.strip(), where), tuple(_int_token(tok, where) for tok in tail.split()))


def conjugate(b: BraidWord, k: int) -> BraidWord:
    """Prepend k^-1 and append k; the word refuses a k out of range."""
    return BraidWord(b.strands, (-k,) + b.letters + (k,))


def stabilize(b: BraidWord, sign: int = 1) -> BraidWord:
    """Markov stabilization: one more strand, sigma_p^(+-1) appended."""
    if _int_of(sign, "stabilization sign") not in (1, -1):
        raise InputError("stabilization sign must be +1 or -1")
    return BraidWord(b.strands + 1, b.letters + (sign * b.strands,))


def markov_reduce(b: BraidWord) -> BraidWord:
    """A word with the closure of ``b``, as an oriented link, from these moves
    until none applies: a letter and its inverse cancel when only letters of
    generators two or more away lie between them, read cyclically; a sigma_1
    or sigma_(p-1) used once goes, with the bottom or top strand (a
    destabilization; for sigma_1 each sigma_i becomes sigma_(i-1)).  A strand
    no letter touches stays.  For invariants of the link only."""
    p, st = b.strands, list(b.letters)
    while True:
        # read once: each letter meets the last earlier one it does not commute
        # with, and a cancellation never unblocks a letter already read
        word, st = st, []
        for w in word:
            i, j = abs(w), len(st) - 1
            while j >= 0 and not -2 < abs(st[j]) - i < 2:
                j -= 1
            if j >= 0 and st[j] == -w:
                del st[j]
            else:
                st.append(w)
        # a pair left crosses the end (a letter after only commuting ones, and
        # the last letter it does not commute with); with none, destabilize
        seen: set[int] = set()
        for k, v in enumerate(st):
            i, j = abs(v), len(st) - 1
            if not (i - 1 in seen or i in seen or i + 1 in seen):
                while j > k and not -2 < abs(st[j]) - i < 2:
                    j -= 1
                if j > k and st[j] == -v:
                    del st[j], st[k]
                    break
            seen.add(i)
        else:
            gens = [abs(w) for w in st]
            if gens.count(p - 1) == 1:
                del st[gens.index(p - 1)]
            elif gens.count(1) == 1:
                st = [w - 1 if w > 0 else w + 1 for w in st if abs(w) != 1]
            else:
                return BraidWord(p, tuple(st))
            p -= 1


@dataclass(frozen=True)
class Crossing:
    sign: int
    arcs: tuple[int, int, int, int]  # PD slots (a, b, c, d)

    def __post_init__(self):
        if _int_of(self.sign, "crossing sign") not in (1, -1):
            raise InputError(f"crossing sign must be +1 or -1, not {self.sign!r}")
        _tuple_of(self.arcs, "crossing arcs", length=4)

    def joins(self, bit: int) -> tuple[tuple[int, int], tuple[int, int]]:
        a, b, c, d = self.arcs
        if bit == 0:
            return (a, b), (c, d)
        return (a, d), (b, c)


@dataclass(frozen=True)
class Diagram:
    """Crossings and crossing-free loops, and nothing else: equal diagrams
    are the same diagram, whether read from a PD code or a braid."""

    crossings: tuple[Crossing, ...]
    loops: tuple[int, ...] = ()

    def __post_init__(self):
        counts: dict[int, int] = {}
        for x in _tuple_of(self.crossings, "diagram crossings", Crossing):
            for arc in x.arcs:
                counts[arc] = counts.get(arc, 0) + 1
        for arc, n in counts.items():
            if n != 2:
                raise InputError(f"arc {arc} occupies {n} slots, expected 2")
        for lp in _tuple_of(self.loops, "diagram loops"):
            if lp in counts:
                raise InputError(f"loop label {lp} must label nothing else")
            counts[lp] = 1

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    @property
    def n_plus(self) -> int:
        return sum(1 for x in self.crossings if x.sign > 0)

    @property
    def n_minus(self) -> int:
        return sum(1 for x in self.crossings if x.sign < 0)

    def arc_labels(self) -> tuple[int, ...]:
        out = set()
        for x in self.crossings:
            out.update(x.arcs)
        return tuple(sorted(out))


def braid_closure(b: BraidWord) -> Diagram:
    """Closure of a braid word.

    Arcs 0..p-1 enter at the bottom of the braid, and each letter ends the
    arcs at its two positions and starts two new ones.  The closure joins
    the top arc at position i to bottom arc i.  Bottom arcs never move, and
    an arc a letter starts is the top arc of at most one position, so the
    join is one {top: bottom} map.  A position no letter touches closes
    into a crossing-free loop.  The arcs are numbered in the order they
    start (the bottom arcs by position, then each letter's two), and the
    crossings ordered by generator, then by occurrence in the word.
    """
    p = b.strands
    cur = list(range(p))  # the arc at each position, going up the braid
    raw = []  # (generator, sign, slots)
    for k, w in enumerate(b.letters):
        i = abs(w) - 1
        x, y, u, v = cur[i], cur[i + 1], p + 2 * k, p + 2 * k + 1
        raw.append((abs(w), 1, (y, v, u, x)) if w > 0 else (abs(w), -1, (x, y, v, u)))
        cur[i], cur[i + 1] = u, v
    bottom = {top: i for i, top in enumerate(cur) if top != i}
    raw.sort(key=lambda r: r[0])  # stable: each generator's letters stay in word order
    arcs = sorted({bottom.get(a, a) for _, _, slots in raw for a in slots})
    label = {arc: n for n, arc in enumerate(arcs)}
    crossings = tuple(Crossing(sign, tuple(label[bottom.get(a, a)] for a in slots)) for _, sign, slots in raw)
    loops = tuple(range(len(arcs), len(arcs) + p - len(bottom)))
    return Diagram(crossings, loops)


def parse_pd(text: str) -> Diagram:
    """Parse PD lines "X a b c d", one per crossing, numbered 0, 1, ...

    Slot a is the incoming under-strand and the slots run counterclockwise.
    Each arc label fills exactly two slots.  Each component is oriented in
    one walk: from the slot c where an under-strand leaves a crossing,
    along the arc to the slot it enters by, on through the opposite slot,
    until the walk closes.  A component that passes over at every crossing
    is walked from its first crossing, in the direction its labels count
    up by one there (mod 2n, the consecutive numbering of PD codes).  A
    strand that would enter at slot c, or an all-over component numbered
    otherwise, is an InputError.  A positive crossing's over-strand leaves
    by slot b.
    """
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise InputError("empty PD input")
    quads = []
    for ln in lines:
        toks = ln.replace(",", " ").split()
        if len(toks) != 5 or toks[0].upper() != "X":
            raise InputError(f"malformed PD line {ln!r}")
        quads.append(tuple(_int_token(t, f"PD line {ln!r}") for t in toks[1:]))
    ends: dict[int, list[tuple[int, int]]] = {}  # arc -> its (crossing, slot)s
    for ci, q in enumerate(quads):
        for slot, arc in enumerate(q):
            ends.setdefault(arc, []).append((ci, slot))
    for arc, at in ends.items():
        if len(at) != 2:
            raise InputError(f"arc {arc} appears {len(at)} times, expected 2")

    # following an arc, then the opposite slot, permutes the slots, so each
    # walk closes where it began, and a strand entering at slot c is the
    # only way two under-strands can disagree
    leaves: dict[tuple[int, int], bool] = {}  # (crossing, slot) -> leaves by it

    def walk(ci: int, slot: int) -> None:
        while (ci, slot) not in leaves:
            leaves[ci, slot] = True
            arc = quads[ci][slot]
            first, second = ends[arc]
            ci, slot = second if first == (ci, slot) else first
            if slot == 2:
                raise InputError(f"arc {arc} enters crossing {ci} where its under-strand leaves")
            leaves[ci, slot] = False
            slot ^= 2

    for ci in range(len(quads)):
        walk(ci, 2)
    total = 2 * len(quads)
    for ci, (_, b, _, d) in enumerate(quads):
        if (ci, 1) in leaves:
            continue
        if (b - d) % total == 1:
            walk(ci, 1)
        elif (d - b) % total == 1:
            walk(ci, 3)
        else:
            raise InputError(f"cannot orient the over-strand at crossing {ci}: arcs {b} and {d} are not consecutive")
    return Diagram(tuple(Crossing(1 if leaves[ci, 1] else -1, q) for ci, q in enumerate(quads)))


def resolve_crossing(d: Diagram, crossing: int, bit: int) -> Diagram:
    """Replace one crossing by its 0- or 1-smoothing; fresh diagram."""
    if not 0 <= _int_of(crossing, "crossing index") < d.n_crossings:
        raise InputError(f"unknown crossing {crossing}")
    _int_in(bit, "smoothing bit", 0, 1)
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
    return Diagram(crossings, tuple(sorted(new_loops)))


def mirror(d: Diagram) -> Diagram:
    """Swap over/under at every crossing (flips all signs)."""
    out = []
    for x in d.crossings:
        a, b, c, cd = x.arcs
        if x.sign > 0:
            out.append(Crossing(-1, (cd, a, b, c)))
        else:
            out.append(Crossing(1, (b, c, cd, a)))
    return Diagram(tuple(out), d.loops)
