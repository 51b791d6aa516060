"""Fixed reference kernel that time measurements are divided by.

A sparse Gaussian elimination over GF(p) on a fixed-seed matrix, kept in
dicts of dicts like the library's own sparse Smith normal form, so that a
change in host speed slows it about as much as it slows the workloads.
It is stdlib-only and never imports linkhom.  Every call returns the same
(rank, checksum) pair, which the caller asserts, so the work can never
be skipped.
"""

from __future__ import annotations

import random

PRIME = 2147483647
SIZE = 140
PER_ROW = 5
SEED = 20061017

# Result of ``kernel()`` on the matrix below; a different value means the
# kernel was altered and earlier normalized figures no longer compare.
EXPECTED = (138, 472114367)


def _matrix() -> tuple[tuple[tuple[int, int], ...], ...]:
    rng = random.Random(SEED)
    rows = []
    for _ in range(SIZE):
        row = {rng.randrange(SIZE): rng.randrange(1, PRIME) for _ in range(PER_ROW)}
        rows.append(tuple(sorted(row.items())))
    return tuple(rows)


_MATRIX = _matrix()


def kernel() -> tuple[int, int]:
    """Eliminate a fresh copy of the matrix; return (rank, checksum)."""
    rows = [dict(r) for r in _MATRIX]
    cols: dict[int, set[int]] = {}
    for ri, r in enumerate(rows):
        for c in r:
            cols.setdefault(c, set()).add(ri)
    alive = set(range(len(rows)))
    rank = 0
    checksum = 0
    while alive:
        pr = min(alive, key=lambda r: (len(rows[r]), r))
        alive.discard(pr)
        row = rows[pr]
        if not row:
            continue
        pc = min(row)
        inv = pow(row[pc], PRIME - 2, PRIME)
        for r2 in sorted(cols[pc] & alive):
            row2 = rows[r2]
            f = row2[pc] * inv % PRIME
            for c, v in row.items():
                nv = (row2.get(c, 0) - f * v) % PRIME
                if nv:
                    if c not in row2:
                        cols.setdefault(c, set()).add(r2)
                    row2[c] = nv
                else:
                    row2.pop(c, None)
                    cols[c].discard(r2)
        for c in row:
            cols[c].discard(pr)
        rank += 1
        checksum = (checksum * 31 + row[pc] + pc) % PRIME
    return rank, checksum
