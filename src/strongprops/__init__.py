"""Strong spectral properties of real matrices: verification and
constructive realization.

The library verifies the strong properties SSP, SMP, SAP (symmetric,
relative to a graph) and nSSP (general, relative to a sign pattern), and
uses them constructively: a matrix with a strong property realizes every
nearby spectrum, ordered multiplicity list, partial inertia, rank,
distinct-eigenvalue count, or similarity class within the same pattern,
computed here by Gauss-Newton solves of explicit perturbation maps.  On
top of that sit certification pipelines for spectrally and inertially
arbitrary sign patterns.
"""

__version__ = "0.1.0"

from .arbitrary import (
    Certificate,
    ConjInvariantSpectrum,
    Evidence,
    certify_inertially_arbitrary,
    certify_spectrally_arbitrary,
    is_nilpotent,
    nilpotency_norms,
    nilpotent_nearby,
    nj_jacobian_diagnostic,
    raise_nilpotent_index,
)
from .bifurcation import (
    PerturbationMap,
    RealizationResult,
    default_trust_radius,
    realize_inertia,
    realize_multiplicity_list,
    realize_q,
    realize_rank,
    realize_similar,
    realize_spectrum,
    realize_superpattern,
    sap_map,
    similarity_map,
    smp_map,
    solve_to_target,
    ssp_map,
    superpattern_map,
)
from .errors import (
    HypothesisFailure,
    InputError,
    InternalCheckError,
    NoConvergence,
    NotARefinement,
    NotASuperpattern,
    NotInClass,
    ParseError,
    PatternViolation,
    PropertyNotPreserved,
    StrongPropsError,
    SurjectivityFailure,
    TargetError,
    UnreachableInertia,
)
from .numerics import (
    DEFAULT_TOL,
    EigenDecomposition,
    RealSchurForm,
    Tolerances,
    char_poly,
    char_poly_faddeev,
    lstsq_min_norm,
    nullspace,
    poly_from_spectrum,
    rank,
    real_schur,
    sym_eig,
)
from .patterns import (
    Graph,
    OrderedMultiplicityList,
    PatternBasis,
    SignPattern,
    cycle_spectrum_admissible,
    inertia,
    is_superpattern,
    matrix_in_graph_class,
    matrix_in_sign_class,
    ordered_multiplicity_list,
    parse_graph_text,
    parse_matrix_text,
    parse_sign_pattern_text,
    pin,
    refines,
    rin,
)
from .verifiers import (
    StrongPropertyReport,
    verify_nssp,
    verify_property,
    verify_sap,
    verify_smp,
    verify_ssp,
)
