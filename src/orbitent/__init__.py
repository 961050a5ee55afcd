"""Symplectic-orbit classification of pure quantum states.

The local-unitary orbit of a pure state inherits the Fubini-Study
symplectic form of projective space; its degeneracy dimension D is zero
exactly on the nonentangled orbit and grades entanglement elsewhere.  The
package computes reduced matrices, Schmidt data, closed-form dimension
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
    ReducedMatrices,
    SchmidtData,
    canonical_form,
    reduced_matrices,
    schmidt,
)
from .oracle import (
    DegeneracyRank,
    degeneracy_rank,
    fubini_study_omega,
    verify_against_formula,
)
from .report import (
    BOSON_PRODUCT,
    BOSON_SYMMETRIC_SIMPLE,
    ConsistencyRecord,
    ORACLE_OFF,
    ORACLE_VERIFY,
    analyze_state,
    analyze_states,
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
    StateStack,
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
    "KSVerdict", "LieBasis", "Sl2Triple", "WeightVector",
    "highest_weight_vector", "kostant_sternberg_check", "rep_action",
    "sl2_triples", "su_basis", "weight_table",
    "DEFAULT_CLUSTER_TOL", "DegeneracyReport", "SpectrumClustering",
    "cluster_spectrum", "coadjoint_dimension", "degeneracy_bipartite",
    "degeneracy_bounds", "orbit_dimension_bipartite", "separability_test",
    "ReducedMatrices", "SchmidtData", "canonical_form", "reduced_matrices",
    "schmidt",
    "DegeneracyRank", "degeneracy_rank",
    "fubini_study_omega", "verify_against_formula",
    "BOSON_PRODUCT", "BOSON_SYMMETRIC_SIMPLE", "ConsistencyRecord",
    "ORACLE_OFF", "ORACLE_VERIFY", "analyze_state",
    "analyze_states",
    "random_local_unitaries", "random_product_state",
    "random_special_unitary", "random_state",
    "BOSONIC", "DISTINGUISHABLE", "FERMIONIC", "LocalUnitaryTuple",
    "StateStack", "StateTensor", "apply_local", "build_state", "special_unitary",
    "symmetrize",
    "__version__",
]
