"""Symplectic-orbit classification of pure quantum states.

The local-unitary orbit of a pure state inherits the Fubini-Study
symplectic form of projective space; its degeneracy dimension D is zero
exactly on the nonentangled orbit and grades entanglement elsewhere.  The
package computes moment-map images, Schmidt data, closed-form dimension
counts from spectral multiplicities, weight-vector symplecticity tests,
and a numerical rank oracle that cross-checks every formula.
"""

from .errors import (
    AmbiguousClustering,
    DimensionMismatch,
    EnumerationTooLarge,
    Inconsistency,
    NotAWeightVector,
    NotBipartite,
    NotNormalized,
    OrbitentError,
    RankUnstable,
    SymmetryViolation,
    ZeroState,
)
from .io import load_state, save_state, state_from_document, state_to_document
from .lie import (
    KSVerdict,
    LieBasis,
    Sl2Triple,
    WeightVector,
    cartan_basis,
    highest_weight_vector,
    kostant_sternberg_check,
    rep_action,
    sl2_triples,
    su_basis,
    weight_table,
)
from .measure import (
    DEFAULT_CLUSTER_TOL,
    DegeneracyReport,
    SpectrumClustering,
    cluster_spectrum,
    coadjoint_dimension,
    degeneracy_bipartite,
    degeneracy_bounds,
    orbit_dimension_bipartite,
    separability_test,
)
from .moment import (
    MomentImage,
    ReducedMatrices,
    SchmidtData,
    canonical_form,
    moment_image,
    reduced_matrices,
    schmidt,
)
from .oracle import (
    DEFAULT_RANK_TOL,
    ConsistencyRecord,
    DegeneracyRank,
    TangentFrame,
    degeneracy_rank,
    fubini_study_omega,
    tangent_frame,
    verify_against_formula,
)
from .report import (
    BOSON_PRODUCT,
    BOSON_SYMMETRIC_SIMPLE,
    ORACLE_OFF,
    ORACLE_ONLY,
    ORACLE_VERIFY,
    analyze_state,
)
from .sampling import (
    random_local_unitaries,
    random_product_state,
    random_special_unitary,
    random_state,
)
from .states import (
    BOSONIC,
    DISTINGUISHABLE,
    FERMIONIC,
    LocalUnitaryTuple,
    StateTensor,
    apply_local,
    build_state,
    special_unitary,
    symmetrize,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousClustering", "DimensionMismatch", "EnumerationTooLarge",
    "Inconsistency", "NotAWeightVector", "NotBipartite", "NotNormalized",
    "OrbitentError", "RankUnstable", "SymmetryViolation", "ZeroState",
    "load_state", "save_state", "state_from_document", "state_to_document",
    "KSVerdict", "LieBasis", "Sl2Triple", "WeightVector", "cartan_basis",
    "highest_weight_vector", "kostant_sternberg_check", "rep_action",
    "sl2_triples", "su_basis", "weight_table",
    "DEFAULT_CLUSTER_TOL", "DegeneracyReport", "SpectrumClustering",
    "cluster_spectrum", "coadjoint_dimension", "degeneracy_bipartite",
    "degeneracy_bounds", "orbit_dimension_bipartite", "separability_test",
    "MomentImage", "ReducedMatrices", "SchmidtData", "canonical_form",
    "moment_image", "reduced_matrices", "schmidt",
    "DEFAULT_RANK_TOL", "ConsistencyRecord", "DegeneracyRank", "TangentFrame",
    "degeneracy_rank", "fubini_study_omega", "tangent_frame",
    "verify_against_formula",
    "BOSON_PRODUCT", "BOSON_SYMMETRIC_SIMPLE", "ORACLE_OFF", "ORACLE_ONLY",
    "ORACLE_VERIFY", "analyze_state",
    "random_local_unitaries", "random_product_state",
    "random_special_unitary", "random_state",
    "BOSONIC", "DISTINGUISHABLE", "FERMIONIC", "LocalUnitaryTuple",
    "StateTensor", "apply_local", "build_state", "special_unitary",
    "symmetrize",
    "__version__",
]
