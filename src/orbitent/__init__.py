"""Symplectic-orbit classification of pure quantum states.

The local-unitary orbit of a pure state inherits the Fubini-Study
symplectic form of projective space; its degeneracy dimension D is zero
exactly on the nonentangled orbit and grades entanglement elsewhere.  The
package computes reduced matrices, Schmidt data, closed-form dimension
counts from spectral multiplicities, weight-vector symplecticity tests,
and a numerical rank oracle that cross-checks every formula.

The names of ``__all__`` are exported lazily (PEP 562): ``import
orbitent`` loads no submodule, and the first read of a name imports the
submodule that defines it and binds the same object here.  The names of
``exact`` (symmetry classes, the dims rule, the parser's constants and the
Kostant-Sternberg test) and of ``errors`` need no numpy; every other name
loads numpy with its submodule.  ``from orbitent import *`` and
``dir(orbitent)`` see every name.
"""

import importlib

__version__ = "0.1.0"

#: submodule -> the names it exports here
_EXPORTS = {
    "errors": (
        "AmbiguousClustering", "DimensionMismatch", "EnumerationTooLarge",
        "Inconsistency", "NotAWeightVector", "NotBipartite", "NotNormalized",
        "OrbitentError", "RankUnstable", "SymmetryViolation", "ZeroState"),
    "io": ("load_state", "save_state", "state_from_document", "state_to_document"),
    "exact": (
        "KSVerdict", "Sl2Triple", "WeightVector", "highest_weight_vector",
        "kostant_sternberg_check", "sl2_triples", "weight_table",
        "DEFAULT_CLUSTER_TOL", "BOSON_PRODUCT", "BOSON_SYMMETRIC_SIMPLE",
        "ORACLE_OFF", "ORACLE_VERIFY", "BOSONIC", "DISTINGUISHABLE", "FERMIONIC"),
    "lie": ("LieBasis", "rep_action", "su_basis"),
    "measure": (
        "DegeneracyReport", "SpectrumClustering", "cluster_spectrum",
        "coadjoint_dimension", "degeneracy_bipartite", "degeneracy_bounds",
        "orbit_dimension_bipartite", "separability_test"),
    "moment": (
        "ReducedMatrices", "SchmidtData", "canonical_form", "reduced_matrices",
        "schmidt"),
    "oracle": (
        "DegeneracyRank", "degeneracy_rank", "fubini_study_omega",
        "verify_against_formula"),
    "report": ("ConsistencyRecord", "analyze_state", "analyze_states"),
    "sampling": (
        "random_local_unitaries", "random_product_state",
        "random_special_unitary", "random_state"),
    "states": (
        "LocalUnitaryTuple", "StateStack", "StateTensor", "apply_local",
        "build_state", "special_unitary", "symmetrize"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
