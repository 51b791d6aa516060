"""Exact polynomial and homological invariants of links and graphs.

Everything is computed over the integers: Kauffman brackets (by a scan),
Jones and HOMFLYPT polynomials, integral Khovanov homology with torsion,
and the dichromatic/Tutte polynomials of multigraphs together with their
categorified chain complexes.
"""

from .homcore import (
    GradedComplex,
    HomologyTable,
    SparseIntMatrix,
    euler_characteristic,
    poincare_polynomial,
    smith_normal_form,
)
from .homflypt import (
    HeckeElement,
    HomflyValue,
    hecke_normal_form,
    homfly_F,
    homfly_G,
    markov_trace,
    specialize_Gn,
    wide_edge_expand,
)
from .graphhom import (
    Multigraph,
    Pn_homology,
    Qn_homology,
    dichromatic,
    dichromatic_DG,
    enhanced_homology,
    parse_graph,
    polygon_reference,
    specialize_Pn,
    specialize_Qn,
    tutte,
)
from .khovanov import (
    build_khovanov_complex,
    jones_normalized,
    jones_unnormalized,
    kauffman_bracket,
    khovanov_homology,
    les_check,
    stable_poincare,
    stability_check,
    torus_diagram,
    width_report,
)
from .linkdiag import (
    BraidWord,
    Diagram,
    InputError,
    braid_closure,
    conjugate,
    markov_reduce,
    mirror,
    parse_braid,
    parse_pd,
    resolve_crossing,
    stabilize,
)
from .polyalg import LaurentPoly, RationalFn, quantum_integer

__version__ = "0.1.0"
