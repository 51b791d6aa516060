"""Sparse exact linear algebra and homology of bigraded chain complexes.

All differentials are integer matrices stored sparsely by rows (row ->
{column: value}), the one form every layer reads and writes: the cube
engine fills the rows, the d^2 = 0 check composes two blocks row by row,
and the elimination takes the rows over and works on them in place.

The differential keeps the degree j, so a complex is a direct sum of
j-strands (the blocks (i, j) for one j, in increasing i), and homology is
computed strand by strand from a stream of blocks in strand order.  A
±1 entry from generator x of C_i to y of C_{i+1} is cancelled by
Gaussian elimination (Bar-Natan, "Fast Khovanov homology computations",
Lemma 4.2): its block becomes the Schur complement of that entry, and
the neighbouring blocks lose only row x and column y.  Block (i, j)
drops the columns that block (i-1, j) cancelled, is checked for d^2 = 0
against block (i+1, j), has every ±1 alone in its row cancelled in one
sweep (no fill-in), and then its other units by least Markowitz cost.
The check stays exact: in the basis of C_i the cancellation leaves, the
dropped columns are 0, as d^2 = 0 held into C_i, and the others are
unchanged.  Once the next block is cancelled too, what is left of a
block is settled: its Smith normal form gives the ranks and torsion
invariant factors, in the block's own numbering.  Only a strand's last
blocks are held, and a block's rows are freed as they are cancelled.
The Smith normal form is the same unit cancellation followed by Euclid
steps, so there is one way to eliminate a ±1 entry.

The Khovanov and graph complexes come from one cube engine,
``cube_blocks``: a ``CubeStates`` table gives the parts (circles or
components) at each vertex of the cube, and a ``CubeSpec`` gives the
labels on parts, the grading and the merge, split and inside maps, and
keeps the tables of those maps across calls.  The engine yields the
blocks in strand order, one at a time, and ``cube_homology`` hands them
to ``strand_homology`` as they come, so no whole complex is built;
``cube_complex`` collects the same blocks into a ``GradedComplex`` for
callers that read the complex itself, and ``graded_homology`` feeds a
stored complex's blocks, copied, to the same consumer.  The engine
takes its degree window and cube columns in cube indices;
``cube_homology`` takes its windows in the table's own indices, after
the shift, and is the one place that moves them into cube indices.

The strands are independent, so a large cube is shared with one forked
worker: once the positions, edges and edge tables are made, ``cube_homology``
splits the strands into two sets of about equal generators, the worker
runs the strand pass (the d^2 check, the cancellation and the Smith
forms) on one set while this process runs it on the other, and the
worker's results come back through a pipe into one table.  During the
join this process runs on the first CPU of its affinity mask and the
worker on the second, and the mask is put back after it.  Small cubes
run every strand here in one pass.  ``forkjoin.fork_join`` alone decides
whether a worker runs: where none may (one CPU, more than one thread, no
``os.fork``) or none sends its results back, the worker's strands run
here in a second pass after this process's own.  The table does not
depend on the split.
"""

from __future__ import annotations

import json
from collections import defaultdict, deque
from dataclasses import dataclass, field
from itertools import combinations, islice
from math import gcd
from typing import Callable, Iterable, Iterator, Mapping

from .forkjoin import fork_join
from .polyalg import LaurentPoly

__all__ = [
    "SparseIntMatrix",
    "CubeStates",
    "CubeSpec",
    "cube_blocks",
    "cube_complex",
    "cube_homology",
    "smith_normal_form",
    "GradedComplex",
    "HomologyTable",
    "graded_homology",
    "strand_homology",
    "euler_characteristic",
    "poincare_polynomial",
]


class SparseIntMatrix:
    """Integer matrix stored by rows: ``data[r]`` maps column c to the
    nonzero entry at (r, c), and only rows with an entry are present."""

    __slots__ = ("rows", "cols", "data", "__weakref__")

    def __init__(self, rows: int, cols: int, entries: Mapping[tuple[int, int], int] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        self.rows = rows
        self.cols = cols
        self.data: dict[int, dict[int, int]] = {}
        for (r, c), v in (entries or {}).items():
            if not 0 <= r < rows or not 0 <= c < cols:
                raise ValueError(f"index ({r},{c}) out of range for {rows}x{cols}")
            if v:
                self.data.setdefault(r, {})[c] = int(v)

    @classmethod
    def _of_rows(cls, rows: int, cols: int, data: dict[int, dict[int, int]]) -> "SparseIntMatrix":
        # takes ``data`` over as it is: in range, with no empty row and no zero
        m = cls.__new__(cls)
        m.rows, m.cols, m.data = rows, cols, data
        return m

    @property
    def entries(self) -> dict[tuple[int, int], int]:
        """The entries keyed by (row, column): a new dict on each call."""
        return {(r, c): v for r, row in self.data.items() for c, v in row.items()}

    @property
    def nnz(self) -> int:
        return sum(map(len, self.data.values()))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseIntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return f"SparseIntMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


_PIVOT_SCAN = 4  # rows of one length compared per pivot


class _Elimination:
    """Sparse integer matrix as a working form for exact row operations.

    ``rows[r]`` maps column to value, ``cols[c]`` holds the rows with an
    entry in column c (as the keys of a dict, in the order they gained
    it: a third the size of a set on long columns), and ``by_len`` buckets
    the rows by length, so the shortest ones are found without a scan of
    every row.  On the way in, ``sweep`` cancels the ±1 entries alone in
    their row; then ``cancel_units`` takes the other ±1 entries, for
    ``strand_homology`` or between the Euclid steps of ``diagonal``.  It
    takes the row storage it is given over and changes it: a caller that
    keeps the matrix hands in a copy.
    """

    __slots__ = ("rows", "cols", "by_len", "unitless", "swept")

    def __init__(self, rows: dict[int, dict[int, int]]):
        cols: defaultdict[int, dict[int, None]] = defaultdict(dict)
        for r, row in rows.items():
            for c in row:
                cols[c][r] = None
        self.rows, self.cols = rows, dict(cols)
        self.swept = self.sweep()
        by_len: dict[int, dict[int, None]] = {}
        for r, row in rows.items():
            by_len.setdefault(len(row), {})[r] = None
        self.by_len = by_len
        self.unitless: set[int] = set()  # rows seen without a ±1 and unchanged since

    def sweep(self) -> list[tuple[int, int]]:
        """Cancel every ±1 alone in its row, in one pass; returns the pivots
        (row, column) in order.  Such a pivot's column is simply deleted,
        and a row left with one entry goes to the end of the queue (first
        in, first out: a stack leaves more row operations to the rest)."""
        rows, cols = self.rows, self.cols
        queue = deque(r for r, row in rows.items() if len(row) == 1)
        pivots: list[tuple[int, int]] = []
        while queue:
            pr = queue.popleft()
            if pr not in rows:  # its entry went with another pivot's column
                continue
            ((pc, v),) = rows[pr].items()
            if v == 1 or v == -1:
                for r2 in cols.pop(pc):  # row pr among them: it goes too
                    row2 = rows[r2]
                    del row2[pc]
                    if len(row2) == 1:
                        queue.append(r2)
                    elif not row2:
                        del rows[r2]
                pivots.append((pr, pc))
        return pivots

    def relen(self, r: int, old: int, new: int):
        # move row r from the bucket of length old to that of length new
        bucket = self.by_len[old]
        del bucket[r]
        if not bucket:
            del self.by_len[old]
        if new:
            self.by_len.setdefault(new, {})[r] = None

    def row_op(self, r2: int, r1: int, q: int):
        # row r2 -= q * row r1
        rows, cols = self.rows, self.cols
        row2 = rows[r2]
        old = len(row2)
        for c, v in rows[r1].items():
            nv = row2.get(c, 0) - q * v
            if nv:
                if c not in row2:
                    cols[c][r2] = None
                row2[c] = nv
            else:
                if c in row2:
                    del row2[c]
                    del cols[c][r2]
        if len(row2) != old:
            self.relen(r2, old, len(row2))
        if not row2:
            del rows[r2]
        self.unitless.discard(r2)

    def drop_row(self, r: int):
        row = self.rows.pop(r)
        self.relen(r, len(row), 0)
        for c in row:
            del self.cols[c][r]

    def choose_pivot(self) -> tuple[int, int]:
        """The Euclid steps' first pivot, for a matrix with no ±1 entry: the
        least ``|v|``, then the least ``(row length - 1) * (column length -
        1)``, over at most ``_PIVOT_SCAN`` rows of each length."""
        rows, cols, by_len = self.rows, self.cols, self.by_len
        best = None
        for length in sorted(by_len):
            for r in islice(by_len[length], _PIVOT_SCAN):
                for c, v in rows[r].items():
                    key = (abs(v), (length - 1) * (len(cols[c]) - 1))
                    if best is None or key < best[0]:
                        best = (key, r, c)
        return best[1], best[2]

    def unit_pivot(self) -> tuple[int, int] | None:
        """A ±1 entry of least Markowitz cost, or None if no entry is ±1.

        The rows are searched by increasing length; the first length that
        holds a unit offers at most ``_PIVOT_SCAN`` rows with one, and
        ``(row length - 1) * (column length - 1)`` picks among their units.
        A row found without a unit is skipped until a row operation
        changes it.
        """
        rows, cols, unitless = self.rows, self.cols, self.unitless
        for length in sorted(self.by_len):
            best = None
            seen = 0
            for r in self.by_len[length]:
                if r in unitless:
                    continue
                hit = False
                for c, v in rows[r].items():
                    if v == 1 or v == -1:
                        hit = True
                        cost = (length - 1) * (len(cols[c]) - 1)
                        if best is None or cost < best[0]:
                            if not cost:
                                return r, c
                            best = (cost, r, c)
                if not hit:
                    unitless.add(r)
                    continue
                seen += 1
                if seen == _PIVOT_SCAN:
                    break
            if best is not None:
                return best[1], best[2]
        return None

    def cancel_unit(self, pr: int, pc: int):
        """Clear column pc against the ±1 at (pr, pc), then drop row pr and
        column pc: what is left is the Schur complement of that entry."""
        rows, cols = self.rows, self.cols
        u = rows[pr][pc]
        for r2 in list(cols[pc]):
            if r2 != pr:
                self.row_op(r2, pr, rows[r2][pc] * u)
        self.drop_row(pr)
        del cols[pc]

    def cancel_units(self) -> list[tuple[int, int]]:
        """Cancel the ±1 entries of ``unit_pivot`` one at a time while one is
        left; returns the pivots (row, column) in order."""
        pivots = []
        while (p := self.unit_pivot()) is not None:
            self.cancel_unit(*p)
            pivots.append(p)
        return pivots

    def diagonal(self) -> list[int]:
        """Diagonalize by integer row and column operations, in place, until
        no row is left; returns the diagonal.

        Each pivot of the sweep puts a 1 on the diagonal, and so does each
        of ``cancel_units``.  Then one Euclid pivot, from ``choose_pivot``,
        and ``cancel_units`` again, until no row is left.  The pivot column
        is cleared by row operations, then the pivot row by column
        operations, which touch no other row once the column holds only the
        pivot.  A smaller nonzero remainder becomes the next pivot.  A pivot
        left alone in its row and column goes on the diagonal; a remainder
        of 1 goes back to the unit cancellation.
        """
        rows, cols = self.rows, self.cols
        diag = [1] * len(self.swept)
        while True:
            diag += [1] * len(self.cancel_units())
            if not rows:
                return diag
            pr, pc = self.choose_pivot()
            while True:
                prow = rows[pr]
                pv = prow[pc]
                if pv == 1:
                    break
                if pv < 0:
                    for c in prow:
                        prow[c] = -prow[c]
                    pv = -pv
                # clear the pivot column
                moved = False
                for r2 in list(cols[pc]):
                    if r2 == pr:
                        continue
                    q = rows[r2][pc] // pv
                    if q:
                        self.row_op(r2, pr, q)
                    if pc in rows.get(r2, {}):  # nonzero remainder, smaller than pivot
                        pr = r2
                        moved = True
                        break
                if moved:
                    continue
                # clear the pivot row via column operations
                old = len(prow)
                for c2 in [c for c in prow if c != pc]:
                    nv = prow[c2] % pv
                    if nv:
                        prow[c2] = nv
                    else:
                        del prow[c2]
                        del cols[c2][pr]
                if len(prow) != old:
                    self.relen(pr, old, len(prow))
                if len(prow) == 1:
                    diag.append(pv)
                    self.drop_row(pr)
                    del cols[pc]
                    break
                # some remainder is smaller than the pivot: switch pivot column
                self.unitless.discard(pr)
                pc = min((c for c in prow if c != pc), key=lambda c: prow[c])


def smith_normal_form(m: SparseIntMatrix) -> tuple[tuple[int, ...], int]:
    """Invariant factors (divisibility-chained) and the rank."""
    diag = _Elimination({r: row.copy() for r, row in m.data.items()}).diagonal()
    # one pass of pairwise gcd/lcm swaps turns the diagonal into the chain:
    # once d[i] has met every later factor it divides them all, and a swap
    # of two multiples of d[i] leaves multiples of it.  A 1 divides
    # everything, so only the other factors take part
    d = sorted(f for f in diag if f != 1)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            a, b = d[i], d[j]
            if b % a:
                g = gcd(a, b)
                d[i], d[j] = g, a // g * b
    return (1,) * (len(diag) - len(d)) + tuple(d), len(diag)


def _composite_is_zero(key: tuple[int, int], first: SparseIntMatrix, second: SparseIntMatrix) -> bool:
    """Whether block ``key`` = (i, j) followed by block (i+1, j) is 0.

    Row r of the composite B_(i+1) B_i is the sum, over the entries
    (r, mid) of row r of B_(i+1), of B_(i+1)[r, mid] times row mid of
    B_i, so the composite is read row by row from the row storage.
    """
    if not first.data or not second.data:
        return True
    if first.rows != second.cols:
        raise ValueError(f"shape mismatch in composition at ({key[0]},{key[1]})")
    mids = first.data
    for row in second.data.values():
        acc: dict[int, int] = {}
        for mid, w in row.items():
            src = mids.get(mid)
            if src:
                for c, v in src.items():
                    acc[c] = acc.get(c, 0) + w * v
        if any(acc.values()):
            return False
    return True


@dataclass
class GradedComplex:
    """Bigraded chain complex with degree-preserving differentials.

    ``dims[(i, j)]`` is the rank of the (i, j) chain group and
    ``diff[(i, j)]`` the block mapping it into (i+1, j).  The shift pair
    (s, l) is applied to output indices when homology is computed.
    """

    dims: dict[tuple[int, int], int] = field(default_factory=dict)
    diff: dict[tuple[int, int], SparseIntMatrix] = field(default_factory=dict)
    shift: tuple[int, int] = (0, 0)
    source: str = ""

    def strands(self) -> Iterator[tuple[tuple[int, int], SparseIntMatrix]]:
        """A copy of each block, keyed by (i, j), in strand order (j, then
        i): the form ``strand_homology`` takes over, the complex left as
        it is."""
        for key in sorted(self.diff, key=lambda k: (k[1], k[0])):
            blk = self.diff[key]
            yield key, SparseIntMatrix._of_rows(blk.rows, blk.cols, {r: row.copy() for r, row in blk.data.items()})

    def total_dim(self) -> int:
        return sum(self.dims.values())


class CubeStates:
    """The parts of a finite set at every vertex of a cube.

    The elements are 0..size-1.  At vertex ``mask``, coordinate ``pos``
    joins the element pairs ``joins[pos][(mask >> pos) & 1]``; the parts
    are the classes of joined elements, numbered by their least element.
    Khovanov cubes join arc labels into circles (each crossing joins two
    pairs, by its smoothing), graph cubes join edge ends into components
    (an edge joins its ends when present and nothing when absent).
    """

    def __init__(self, size: int, joins):
        self.size = size
        self.joins = joins

    def state(self, mask: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """(part count, element -> part, part -> least element), worked out
        afresh on each call."""
        parent = list(range(self.size))
        for pos, pairs in enumerate(self.joins):
            for a, b in pairs[(mask >> pos) & 1]:
                # union-find with path halving, written out: this is hot
                while parent[a] != a:
                    parent[a] = parent[parent[a]]
                    a = parent[a]
                while parent[b] != b:
                    parent[b] = parent[parent[b]]
                    b = parent[b]
                if a < b:
                    parent[b] = a
                elif b < a:
                    parent[a] = b
        # every root is the least element of its class
        part = [0] * self.size
        mins: list[int] = []
        for x in range(self.size):
            r = parent[x]
            while parent[r] != r:
                r = parent[r]
            if r == x:
                part[x] = len(mins)
                mins.append(x)
            else:
                part[x] = part[r]
        return len(mins), tuple(part), tuple(mins)


@dataclass(frozen=True)
class CubeSpec:
    """One theory's generators and edge maps on a cube of part states.

    A generator of a state is a labeling of its parts by integers 0..top
    (any integer >= 0 when ``top`` is None).  With i the state's cube
    degree, k its part count and t the sum of its labels, the generator
    has degree j = a i + b k - c t, for ``grading`` = (a, b, c).  An edge
    adds one coordinate and merges two parts, splits one, or runs inside
    one; its map carries every other label to the matching target part,
    and ``merge(x, y)`` lists the labels of the merged part, ``split(x)``
    the label pairs of the two new parts (lower-numbered part first), and
    ``inside(x)`` the new labels of the part, each with coefficient 1.
    Every map must keep j.

    The labelings and the edge tables are kept on the spec, so every
    complex built from one spec shares them.  The edge tables (``_edges``)
    are the cube engine's cache: it looks a table up there and calls
    ``edge_map`` only on a miss.
    """

    top: int | None
    grading: tuple[int, int, int]
    merge: Callable[[int, int], Iterable[int]]
    split: Callable[[int], Iterable[tuple[int, int]]] | None = None
    inside: Callable[[int], Iterable[int]] | None = None
    _labelings: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _edges: defaultdict = field(default_factory=lambda: defaultdict(dict), init=False, repr=False, compare=False)

    def labels(self, k: int, t: int) -> list[tuple[int, ...]]:
        """The labelings of k parts with label sum t, in lexicographic order."""
        out = self._labelings.get((k, t))
        if out is None:
            if k == 0:
                out = [()] if t == 0 else []
            else:
                first = t if self.top is None else min(t, self.top)
                out = [(x,) + rest for x in range(first + 1) for rest in self.labels(k - 1, t - x)]
            self._labelings[(k, t)] = out
        return out

    def edge_map(self, shape: tuple[int, int, tuple[int, ...]], tt: int) -> tuple:
        """The map of an edge of ``shape`` into the labelings of sum tt.

        ``shape`` = (target part count, the source part the edge touches,
        the target part of each source part).  The result is (source label
        sum, entries), where entries is the flat tuple (target rank, source
        rank, value, target rank, ...) in increasing order, or () when the
        map is 0 there.  A flat tuple of ints is the smallest form that
        replays with no per-row work.  It is stored in ``_edges[shape]``,
        which the caller looks up first.
        """
        a, b, c = self.grading
        tk, p, image = shape
        k = len(image)
        shift, rem = divmod(a + b * (tk - k), c)
        if rem:
            raise ValueError("an edge map cannot keep the degree")
        if tk == k - 1:
            q = next(s for s in range(k) if s != p and image[s] == image[p])
            slots, rule = (image[p],), lambda lab: ((v,) for v in self.merge(lab[p], lab[q]))
        elif tk == k + 1 and self.split is not None:
            hole = (set(range(tk)) - set(image)).pop()
            slots, rule = tuple(sorted((image[p], hole))), lambda lab: self.split(lab[p])
        elif tk == k and self.inside is not None:
            slots, rule = (image[p],), lambda lab: ((v,) for v in self.inside(lab[p]))
        else:
            raise ValueError(f"no edge map from {k} parts to {tk}")
        t = tt - shift
        rank = {x: r for r, x in enumerate(self.labels(tk, tt))}
        counts: dict[tuple[int, int], int] = {}
        for r, lab in enumerate(self.labels(k, t)):
            for new in rule(lab):
                target = [0] * tk
                for s, x in enumerate(lab):
                    target[image[s]] = x
                for slot, x in zip(slots, new):
                    target[slot] = x
                if sum(target) != tt:
                    raise ValueError("an edge map does not keep the degree")
                key = (rank[tuple(target)], r)
                counts[key] = counts.get(key, 0) + 1
        flat = tuple(x for (tr, r), v in sorted(counts.items()) for x in (tr, r, v))
        out = self._edges[shape][tt] = (t, flat) if flat else ()
        return out


def _masks(n: int, i: int) -> list[int]:
    """The n-bit masks with i bits set, in increasing order."""
    return sorted(map(sum, combinations([1 << p for p in range(n)], i)))


def cube_blocks(
    spec: CubeSpec,
    states: CubeStates,
    columns: tuple[int, int] | None = None,
    window: tuple[int, int] | None = None,
) -> tuple[dict[tuple[int, int], int], Callable[..., Iterator[tuple[tuple[int, int], SparseIntMatrix]]]]:
    """The cube complex of ``spec`` over the vertices of ``states``, as the
    ranks of its chain groups and ``blocks(js=None)``, which makes its
    nonzero blocks one at a time: of every strand, or of the j in ``js``.

    Both take cube indices: cube degrees ``columns`` = (lo, hi) are kept
    (all by default), with the edges from degree lo up to degree hi, and
    only the generators of degree j in ``window`` when it is given.  Only
    the states of the kept degrees are listed.

    Generator order: block (i, j) lists the states of cube degree i by
    increasing mask, and each state's labelings of the one label sum that
    gives j in lexicographic order.  So a generator's position is its
    state's offset for that label sum plus the rank of its labeling, found
    by arithmetic, with no lookup per generator.  The ranks and positions
    are worked out before the first block.

    The blocks come keyed by (i, j) in strand order: j, then i.  The
    differential keeps j, so each j-strand is a complex of its own, and a
    consumer that takes each block over as it comes holds only a strand's
    last blocks, never the whole complex.

    Edge shapes: an edge's map on labelings depends only on the part
    counts, where each source part lands and the part the edge touches,
    not on the state.  ``spec.edge_map`` tabulates each shape's map once
    per target label sum, and the tables stay on the spec for later
    calls; all that the blocks read are made here, with the edges.  Each
    table is replayed on every edge of its shape with the edge's cube
    sign (-1)^(number of set coordinates below it), which makes every
    square anticommute.  Each state's incoming edges (shape,
    sign, source positions) are worked out once, with the positions, and
    serve every strand the state is in; the parts of the states are not
    read after that.

    Block (i, j) is written in its row storage directly: the states of
    degree i + 1 with generators at j are walked by increasing mask, and
    each of their generators' rows is filled from the edges coming in, so
    every row is made once, whole, and the rows come in increasing order.
    Row and column indices are ints taken from one shared list, so equal
    indices share one object.  No entry is written twice: a row and a
    column fix the target and the source state, hence the edge, and each
    table sums repeated targets of one labeling.
    """
    a, b, c = spec.grading
    top = spec.top
    if top is None and window is None:
        raise ValueError("unbounded labels need a degree window")
    n = len(states.joins)
    lo, hi = (0, n) if columns is None else (columns[0], min(columns[1], n))
    labels, state, tables, edge_map = spec.labels, states.state, spec._edges, spec.edge_map
    # the element whose part an edge touches: joined when its coordinate is 1
    anchor = [pairs[1][0][0] for pairs in states.joins]
    dims: dict[tuple[int, int], int] = {}
    ints: list[int] = []  # ints[p] is p: one object per index value
    # per state, per label sum t: the position of its first generator in
    # its block, or None where it has none
    firsts: dict[int, list[int | None]] = {}
    # per (i, j): the states with generators there, by increasing mask,
    # each followed by its label sum, first position and generator count
    holders: dict[tuple[int, int], list[int]] = {}
    # per state above degree lo with generators: (the edge tables of its
    # shape, cube sign, source firsts) for each edge coming in
    edges: dict[int, tuple] = {}
    below: dict[int, tuple] = {}  # the states of degree i - 1
    for i in range(lo, hi + 1):
        here = {mask: state(mask) for mask in _masks(n, i)}
        for mask, (k, tpart, _) in here.items():
            base = a * i + b * k
            t_hi = top * k if top is not None else (base - window[0]) // c
            out = firsts[mask] = []
            live = set()  # the label sums with generators
            for t in range(t_hi + 1):
                j = base - c * t
                count = len(labels(k, t)) if window is None or window[0] <= j <= window[1] else 0
                if not count:
                    out.append(None)
                    continue
                off = dims.get((i, j), 0)
                dims[(i, j)] = off + count
                if len(ints) < off + count:
                    ints.extend(range(len(ints), off + count))
                out.append(ints[off])
                live.add(t)
                holders.setdefault((i, j), []).extend((mask, t, ints[off], count))
            if i == lo or not live:  # no block ends here
                continue
            into: list = []
            rest = mask
            while rest:
                bit = rest & -rest
                rest ^= bit
                _, part, mins = below[mask ^ bit]
                shape = (k, part[anchor[bit.bit_length() - 1]], tuple(map(tpart.__getitem__, mins)))
                table = tables[shape]
                if not table.keys() >= live:
                    for tt in live - table.keys():
                        edge_map(shape, tt)
                into += (table, -1 if (mask & (bit - 1)).bit_count() & 1 else 1, firsts[mask ^ bit])
            edges[mask] = tuple(into)
        below = here

    def blocks(js: Iterable[int] | None = None) -> Iterator[tuple[tuple[int, int], SparseIntMatrix]]:
        keep = None if js is None else set(js)
        keys = (k for k in dims if (k[0] + 1, k[1]) in dims and (keep is None or k[1] in keep))
        for i, j in sorted(keys, key=lambda k: (k[1], k[0])):
            data: dict[int, dict[int, int]] = {}
            fields = iter(holders[(i + 1, j)])
            for tmask, tt, first, count in zip(fields, fields, fields, fields):
                rows = ints[first:first + count]
                out = [{} for _ in rows]
                it = iter(edges[tmask])
                for table, sign, sfirsts in zip(it, it, it):
                    group = table[tt]
                    if group and group[0] < len(sfirsts):
                        off = sfirsts[group[0]]
                        if off is not None:
                            flat = iter(group[1])
                            for tr, r, v in zip(flat, flat, flat):
                                out[tr][ints[off + r]] = sign * v
                for p, row in zip(rows, out):
                    if row:
                        data[p] = row
            if data:
                yield (i, j), SparseIntMatrix._of_rows(dims[(i + 1, j)], dims[(i, j)], data)

    return dims, blocks


def cube_complex(
    spec: CubeSpec,
    states: CubeStates,
    window: tuple[int, int] | None = None,
    source: str = "",
) -> GradedComplex:
    """The whole cube complex of ``cube_blocks``, every block collected:
    for callers that read the complex itself, not only its homology."""
    dims, blocks = cube_blocks(spec, states, None, window)
    return GradedComplex(dims, dict(blocks()), source=source)


def cube_homology(
    spec: CubeSpec,
    states: CubeStates,
    window: tuple[int, int] | None = None,
    source: str = "",
    shift: tuple[int, int] = (0, 0),
    irange: tuple[int, int] | None = None,
) -> HomologyTable:
    """The homology of ``cube_complex`` moved by ``shift``, in the degrees
    j of ``window`` and i of ``irange`` of the table (both after
    ``shift``; all by default): the blocks of ``cube_blocks`` go to the
    strand pass of ``strand_homology`` as they are built, and no whole
    complex is.

    This is the one place where a window is moved into cube indices: the
    shift is taken off both, only the generators of the j-window are
    built, and only the cube degrees one beyond the i-range on each side,
    whose groups and edges give the homology in it.  The table is then
    cut to ``irange``.

    Once ``cube_blocks`` has worked out the positions and edges, the
    j-strands are split longest-first into two sets of about equal
    generators.  When both hold at least ``_FORK_MIN`` generators, the
    strand pass runs on each set through ``forkjoin.fork_join``: where a
    worker may be forked, it runs the pass on one set while this process
    runs it on the other, each pinned to a CPU of its own (the first two
    of this process's affinity mask, which is put back after the join),
    and sends the pass's result (cancelled units, Smith forms, bad
    blocks) back through a pipe (``marshal``); otherwise, or when the
    worker sends nothing back, both passes run here, one after the
    other.  One table is assembled from both.  Smaller cubes take one
    pass here over every strand.  The table is the same either way.
    """
    s, l = shift
    columns = None if irange is None else (max(0, irange[0] - s - 1), irange[1] - s + 1)
    dims, blocks = cube_blocks(spec, states, columns, None if window is None else (window[0] - l, window[1] - l))
    halves = _halves(dims)
    if halves is None:
        table = strand_homology(dims, blocks(), shift, source)
    else:
        mine, theirs = halves
        (units, snf, bad), (w_units, w_snf, w_bad) = fork_join(
            lambda: _strand_pass(blocks(mine)), lambda: _strand_pass(blocks(theirs))
        )
        table = _table(dims, units | w_units, snf | w_snf, bad + w_bad, shift, source)
    return table if irange is None else table.restrict_i(*irange)


_FORK_MIN = 3000  # generators on each side of the split before a worker is forked


def _halves(dims: Mapping[tuple[int, int], int]) -> tuple[list[int], list[int]] | None:
    # the j of the strands in two sets, longest strand first onto the
    # lighter set, or None when either would hold under _FORK_MIN generators
    if sum(dims.values()) < 2 * _FORK_MIN:
        return None
    per: dict[int, int] = {}
    for (_, j), n in dims.items():
        per[j] = per.get(j, 0) + n
    sides: tuple[list[int], list[int]] = ([], [])
    load = [0, 0]
    for j in sorted(per, key=lambda j: (-per[j], j)):
        k = load[1] < load[0]
        sides[k].append(j)
        load[k] += per[j]
    return sides if min(load) >= _FORK_MIN else None


@dataclass
class HomologyTable:
    """Free rank plus torsion invariant factors per bidegree (i, j)."""

    entries: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = field(default_factory=dict)

    def rank(self, i: int, j: int) -> int:
        return self.entries.get((i, j), (0, ()))[0]

    def group(self, i: int, j: int) -> tuple[int, tuple[int, ...]]:
        return self.entries.get((i, j), (0, ()))

    def is_empty(self) -> bool:
        return not self.entries

    def restrict_i(self, lo: int, hi: int) -> "HomologyTable":
        sel = {k: v for k, v in self.entries.items() if lo <= k[0] <= hi}
        return HomologyTable(sel)

    def to_json(self) -> str:
        rows = [
            {"i": i, "j": j, "rank": r, "torsion": list(t)}
            for (i, j), (r, t) in sorted(self.entries.items())
        ]
        return json.dumps(rows, separators=(",", ":"))

    def to_csv(self) -> str:
        lines = ["i,j,rank,torsion"]
        for (i, j), (r, t) in sorted(self.entries.items()):
            lines.append(f"{i},{j},{r},{';'.join(str(x) for x in t)}")
        return "\n".join(lines) + "\n"

    def pretty(self) -> str:
        if not self.entries:
            return "(empty homology table)\n"
        lines = [f"{'i':>4} {'j':>4}  group"]
        for (i, j), (r, t) in sorted(self.entries.items()):
            parts = []
            if r == 1:
                parts.append("Z")
            elif r > 1:
                parts.append(f"Z^{r}")
            parts.extend(f"Z_{x}" for x in t)
            lines.append(f"{i:>4} {j:>4}  {' + '.join(parts)}")
        return "\n".join(lines) + "\n"


def strand_homology(
    dims: Mapping[tuple[int, int], int],
    blocks: Iterable[tuple[tuple[int, int], SparseIntMatrix]],
    shift: tuple[int, int] = (0, 0),
    source: str = "",
) -> HomologyTable:
    """Homology per (i, j) of the complex with chain group ranks ``dims``
    and the nonzero ``blocks`` in strand order (j, then i): free rank and
    torsion, exact over Z, at (i, j) moved by ``shift``.  ``cube_homology``
    feeds it a cube's blocks as they are built (or runs its strand pass
    on half of them, with a worker on the other half), ``graded_homology``
    a stored complex's.

    A ±1 entry from generator x of C_i to y of C_{i+1} is cancelled by
    Gaussian elimination: its block becomes the Schur complement of the
    entry, the block before loses row x and the block after column y,
    and what is left is homotopy equivalent over Z.  Block (i, j) drops
    the columns y that block (i-1, j) cancelled, is checked against block
    (i+1, j) for d^2 = 0, then loses its ±1 entries alone in their row in
    one sweep and its other units by least Markowitz cost.  The check of
    the reduced block is exact: the row operations on C_i leave the other
    columns alone and, as d^2 = 0 held into C_i, make the dropped ones 0.

    Once block (i, j) is cancelled, the block (i-1, j) is settled: it
    drops the rows that (i, j) cancelled, and the Smith normal form of
    what is left, in its own numbering, gives its rank and invariant
    factors.  Then free = dim - units cancelled out and in - rank out and
    in, and the torsion is the non-unit factors of the block coming in.

    Each block's rows are taken over, not copied, and changed in place,
    so at most two blocks' rows (the held one and the one arriving) and
    the working forms of the two blocks before them are alive at once.
    Cancelling is sound only on a chain complex: after a block whose
    composite with the next is not 0, nothing more is cancelled or
    dropped, the checks go on, and a ValueError names every such block.
    """
    return _table(dims, *_strand_pass(blocks), shift, source)


def _strand_pass(blocks: Iterable[tuple[tuple[int, int], SparseIntMatrix]]):
    """The d^2 check and the cancellation of ``strand_homology`` over
    ``blocks``: the units cancelled and the Smith form (factors, rank) of
    each settled block, and the blocks whose composite with the next is
    not 0."""
    units: dict[tuple[int, int], int] = {}  # per block, the units cancelled
    snf: dict[tuple[int, int], tuple[tuple[int, ...], int]] = {}
    bad: list[tuple[int, int]] = []
    prev = None  # (key, working form, row count, column count)

    def settle(drop: Iterable[int]):
        # the held block's residue, less the rows cancelled one step on
        key, st, n_rows, n_cols = prev
        rows = st.rows
        for r in drop:
            rows.pop(r, None)
        if rows:
            snf[key] = smith_normal_form(SparseIntMatrix._of_rows(n_rows, n_cols, rows))

    def cancel(key: tuple[int, int], blk: SparseIntMatrix) -> set[int]:
        # the block's units cancelled; returns the rows they took
        nonlocal prev
        if prev is not None and prev[0] != (key[0] - 1, key[1]):
            settle(())
            prev = None
        st = _Elimination(blk.data)
        pivots = st.swept + st.cancel_units()
        units[key] = len(pivots)
        if prev is not None:
            settle(c for _, c in pivots)
        prev = (key, st, blk.rows, blk.cols)
        return {r for r, _ in pivots}

    held = None  # the last block, checked once the next one comes
    for key, blk in blocks:
        follows = held is not None and held[0] == (key[0] - 1, key[1])
        if follows and not _composite_is_zero(held[0], held[1], blk):
            bad.append(held[0])
        if held is not None and not bad:
            targets = cancel(*held)
            if follows:  # blk's columns lose the generators cancelled into them
                for r in [r for r, row in blk.data.items() if not targets.isdisjoint(row)]:
                    row = blk.data[r]
                    for c in targets.intersection(row):
                        del row[c]
                    if not row:
                        del blk.data[r]
        held = key, blk
    if held is not None and not bad:
        cancel(*held)
        settle(())
    return units, snf, bad


def _table(dims, units, snf, bad, shift, source) -> HomologyTable:
    # the homology table from a strand pass's results over every strand
    if bad:
        raise ValueError(f"d^2 != 0 at blocks {sorted(bad)} of {source or 'complex'}")
    s, l = shift
    entries: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
    for (i, j) in sorted(dims):
        factors_in, rank_in = snf.get((i - 1, j), ((), 0))
        free = (
            dims[(i, j)] - units.get((i, j), 0) - units.get((i - 1, j), 0)
            - snf.get((i, j), ((), 0))[1] - rank_in
        )
        torsion = tuple(f for f in factors_in if f > 1)
        if free < 0:
            raise ArithmeticError(f"negative free rank at ({i},{j})")
        if free or torsion:
            entries[(i + s, j + l)] = (free, torsion)
    return HomologyTable(entries)


def graded_homology(c: GradedComplex) -> HomologyTable:
    """Homology per (i, j) of a stored complex: ``strand_homology`` of a
    copy of its blocks, so the complex itself is not changed."""
    return strand_homology(c.dims, c.strands(), c.shift, c.source)


def euler_characteristic(obj) -> LaurentPoly:
    """Graded Euler characteristic, as a one-variable Laurent polynomial.

    Accepts a GradedComplex (alternating sum of chain ranks) or a
    HomologyTable (alternating sum of free ranks); shifts are applied.
    """
    out: dict[int, int] = {}
    if isinstance(obj, GradedComplex):
        s, l = obj.shift
        for (i, j), dim in obj.dims.items():
            if dim:
                e = j + l
                out[e] = out.get(e, 0) + (dim if (i + s) % 2 == 0 else -dim)
    elif isinstance(obj, HomologyTable):
        for (i, j), (rank, _) in obj.entries.items():
            if rank:
                out[j] = out.get(j, 0) + (rank if i % 2 == 0 else -rank)
    else:
        raise TypeError(f"expected GradedComplex or HomologyTable, got {type(obj)!r}")
    return LaurentPoly.from_terms(("q",), out)


def poincare_polynomial(t: HomologyTable) -> LaurentPoly:
    """Two-variable Poincare polynomial: sum of t^i q^j free ranks."""
    return LaurentPoly.from_terms(
        ("t", "q"), {(i, j): rank for (i, j), (rank, _) in t.entries.items() if rank}
    )
