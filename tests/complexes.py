"""Whole cube complexes and their homology, for the tests that read a
complex itself: the package streams a cube's blocks into the strand pass
and keeps no whole complex, except ``build_khovanov_complex``'s.  Also
Khovanov homology by the cube path, the oracle of the scan."""

from linkhom.graphhom import _graph_states, _pn_spec, _qn_spec
from linkhom.homcore import GradedComplex, SparseIntMatrix, cube_blocks, cube_homology, strand_homology
from linkhom.khovanov import _KHOVANOV, _states


def cube_complex(spec, states, window=None):
    """Every block of ``cube_blocks``, collected, in cube indices."""
    dims, blocks = cube_blocks(spec, states, None, window)
    return GradedComplex(dims, dict(blocks()))


def pn_complex(g, n, variant="zero"):
    # the complex of graphhom.Pn_homology
    return cube_complex(_pn_spec(n, variant), _graph_states(g))


def qn_complex(g, n, window):
    # the complex of graphhom.Qn_homology
    return cube_complex(_qn_spec(n), _graph_states(g), window)


def strands(c):
    """A copy of each block of ``c``, keyed by (i, j), in strand order (j,
    then i): the form ``strand_homology`` takes over, ``c`` left as it is."""
    for key in sorted(c.diff, key=lambda k: (k[1], k[0])):
        blk = c.diff[key]
        yield key, SparseIntMatrix(blk.rows, blk.cols, blk.entries)


def homology(c):
    """The homology of a stored complex, which is not changed."""
    return strand_homology(c.dims, strands(c), c.shift)


def cube_khovanov(d, jwindow=None, irange=None):
    """``khovanov_homology(d, jwindow, irange)`` by the cube of resolutions,
    which forks a strand worker on a large cube."""
    return cube_homology(_KHOVANOV, _states(d), jwindow, (-d.n_minus, d.n_plus - 2 * d.n_minus), irange)
