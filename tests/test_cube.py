"""The cube engine against per-generator reference builders, block by block.

The references are the builders the engine replaced, trimmed: one
(state, labeling) -> position dict per block, and every edge's map worked
out afresh on every generator from the circles or components it touches.
"""

from itertools import product

import pytest

from linkhom.corpus import corpus_diagrams
from linkhom.graphhom import Multigraph, _graph_states
from linkhom.homcore import GradedComplex, SparseIntMatrix, cube_blocks
from linkhom.khovanov import _KHOVANOV, _states, build_khovanov_complex
from linkhom.linkdiag import braid_closure

from complexes import pn_complex, qn_complex

PRISM = Multigraph(6, ((1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4), (1, 4), (2, 5), (3, 6)))
THETA = Multigraph(6, ((1, 3), (3, 2), (1, 4), (4, 2), (1, 5), (5, 6), (6, 2)))
K4 = Multigraph(4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)))
C4_DOUBLE = Multigraph(4, ((1, 2), (1, 2), (2, 3), (3, 4), (3, 4), (4, 1)))


def compositions(total, parts):
    # nonnegative vectors of the given length and sum, in lexicographic order
    if parts == 0:
        return [()] if total == 0 else []
    return [(x,) + rest for x in range(total + 1) for rest in compositions(total - x, parts - 1)]


def ref_complex(states, n, gens, targets, columns=None):
    """Positions by dict, edges generator by generator, entries summed in a dict.

    ``gens(i, k)`` lists (j, labeling) of a state with k parts in cube
    degree i; ``targets(mask, e, labeling)`` lists the target labelings
    of the edge that sets coordinate e.
    """
    lo, hi = (0, n) if columns is None else columns
    pos = {}
    for mask in sorted(range(1 << n), key=int.bit_count):
        i = mask.bit_count()
        if lo <= i <= hi:
            for j, lab in gens(i, states.state(mask)[0]):
                block = pos.setdefault((i, j), {})
                block[(mask, lab)] = len(block)
    cplx = GradedComplex(dims={key: len(block) for key, block in pos.items()})
    blocks = {}
    for (i, j), block in pos.items():
        rows = pos.get((i + 1, j), {})
        for (mask, lab), col in block.items():
            for e in range(n):
                if i == hi or (mask >> e) & 1:
                    continue
                sign = -1 if (mask & ((1 << e) - 1)).bit_count() & 1 else 1
                for tlab in targets(mask, e, lab):
                    row = rows.get((mask | (1 << e), tlab))
                    if row is not None:
                        entries = blocks.setdefault((i, j), (len(rows), len(block), {}))[2]
                        entries[(row, col)] = entries.get((row, col), 0) + sign
    matrices = {key: SparseIntMatrix(*shape) for key, shape in blocks.items()}
    cplx.diff = {key: blk for key, blk in matrices.items() if blk.nnz}
    return cplx


def ref_khovanov(d, window=None, columns=None, normalized=False):
    st = _states(d)
    n = d.n_crossings

    def gens(i, k):
        for lab in product((0, 1), repeat=k):  # 1 = X
            j = i + k - 2 * sum(lab)
            if window is None or window[0] <= j <= window[1]:
                yield j, lab

    def targets(mask, e, lab):
        count, cidx, mins = st.state(mask)
        tcount, tcidx, tmins = st.state(mask | (1 << e))
        image = [tcidx[m] for m in mins]
        out = [0] * tcount
        for s in range(count):
            out[image[s]] = lab[s]
        if tcount == count - 1:  # m: the two circles with one image merge
            s1, s2 = [s for s in range(count) if image.count(image[s]) == 2]
            if lab[s1] and lab[s2]:
                return []
            out[image[s1]] = lab[s1] | lab[s2]
            return [tuple(out)]
        src_of = [cidx[m] for m in tmins]  # Delta: one circle splits into t1 < t2
        t1, t2 = [t for t in range(tcount) if src_of.count(src_of[t]) == 2]
        res = []
        for a, b in [(1, 1)] if lab[src_of[t1]] else [(0, 1), (1, 0)]:
            out[t1], out[t2] = a, b
            res.append(tuple(out))
        return res

    cplx = ref_complex(st, n, gens, targets, columns)
    if normalized:
        cplx.shift = (-d.n_minus, d.n_plus - 2 * d.n_minus)
    return cplx


def graph_targets(g, merge, inside):
    st = _graph_states(g)

    def targets(mask, e, lab):
        k, comp, mins = st.state(mask)
        tk, tcomp, _ = st.state(mask | (1 << e))
        image = [tcomp[m] for m in mins]
        u, v = g.edges[e]
        cu, cv = comp[u - 1], comp[v - 1]
        res = []
        for value in inside(lab[cu]) if cu == cv else merge(lab[cu], lab[cv]):
            out = [0] * tk
            for s in range(k):
                out[image[s]] = lab[s]
            out[image[cu]] = value
            res.append(tuple(out))
        return res

    return st, targets


def ref_pn(g, n, variant):
    def gens(i, k):
        for lab in product(range(n + 1), repeat=k):
            yield sum(n - a for a in lab) + n * i, lab

    def inside(a):
        return [n] if variant == "xn" and a == 0 else []

    st, targets = graph_targets(g, lambda a, b: [a + b] if a + b <= n else [], inside)
    return ref_complex(st, g.n_edges, gens, targets)


def ref_qn(g, n, window):
    def gens(i, k):
        for j in range(window[0], window[1] + 1):
            for lab in compositions(k * (n - 1) + i - j, k) if k * (n - 1) + i - j >= 0 else ():
                yield j, lab

    st, targets = graph_targets(g, lambda a, b: [a + b + 2 - n], lambda a: [a + 1])
    return ref_complex(st, g.n_edges, gens, targets)


def assert_same_blocks(got, want, label):
    assert got.shift == want.shift, label
    assert got.dims == want.dims, label
    assert set(got.diff) == set(want.diff), label
    for key, blk in want.diff.items():
        assert (got.diff[key].rows, got.diff[key].cols) == (blk.rows, blk.cols), (label, key)
        assert got.diff[key].entries == blk.entries, (label, key)


@pytest.mark.parametrize(
    "kwargs",
    [{}, {"normalized": True}, {"columns": (0, 4)}, {"window": (0, 4)}],
    ids=["full", "normalized", "irange", "jwindow"],
)
def test_khovanov_blocks_match_reference(kwargs):
    # the windowed cases take the engine's own cube-index columns and
    # window: build_khovanov_complex builds whole complexes only
    nonzero = 0
    for b in corpus_diagrams(max_crossings=8):
        d = braid_closure(b)
        if "columns" in kwargs or "window" in kwargs:
            dims, blocks = cube_blocks(_KHOVANOV, _states(d), kwargs.get("columns"), kwargs.get("window"))
            got = GradedComplex(dims, dict(blocks()))
        else:
            got = build_khovanov_complex(d, **kwargs)
        assert_same_blocks(got, ref_khovanov(d, **kwargs), b.text())
        nonzero += bool(got.diff)
    assert nonzero


def test_graph_blocks_match_reference():
    for g in (PRISM, THETA, K4, C4_DOUBLE):
        for n in (1, 2):
            for variant in ("zero", "xn"):
                assert_same_blocks(pn_complex(g, n, variant), ref_pn(g, n, variant), (g, n, variant))
        for n, window in ((1, (0, 2)), (2, (2, 4)), (2, (3, 4)), (2, (5, 6))):
            assert_same_blocks(qn_complex(g, n, window), ref_qn(g, n, window), (g, n, window))
