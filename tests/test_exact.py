"""The numpy-free layer: lazy package exports, a CLI that loads only what
its command runs, and the sparse weight path against the dense one."""

import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import orbitent
from orbitent import BOSONIC, DISTINGUISHABLE, FERMIONIC, build_state, kostant_sternberg_check
from orbitent.exact import index_charges, weight_table
from orbitent.oracle import _charge_table

from rank_references import (
    dense_basis_indices,
    dense_basis_tensor,
    dense_ks_check,
    dense_weight,
)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(orbitent.__file__)))

#: each exported name and the module the package imported it from before
#: its exports became lazy: every such import path must give the same object
IMPORT_PATHS = {
    "errors": ["AmbiguousClustering", "DimensionMismatch", "EnumerationTooLarge",
               "Inconsistency", "NotAWeightVector", "NotBipartite", "NotNormalized",
               "OrbitentError", "RankUnstable", "SymmetryViolation", "ZeroState"],
    "io": ["load_state", "save_state", "state_from_document", "state_to_document"],
    "lie": ["KSVerdict", "LieBasis", "Sl2Triple", "WeightVector",
            "highest_weight_vector", "kostant_sternberg_check", "rep_action",
            "sl2_triples", "su_basis", "weight_table"],
    "measure": ["DEFAULT_CLUSTER_TOL", "DegeneracyReport", "SpectrumClustering",
                "cluster_spectrum", "coadjoint_dimension", "degeneracy_bipartite",
                "degeneracy_bounds", "orbit_dimension_bipartite", "separability_test"],
    "moment": ["ReducedMatrices", "SchmidtData", "canonical_form", "reduced_matrices",
               "schmidt"],
    "oracle": ["DegeneracyRank", "degeneracy_rank", "fubini_study_omega",
               "verify_against_formula"],
    "report": ["BOSON_PRODUCT", "BOSON_SYMMETRIC_SIMPLE", "ConsistencyRecord",
               "ORACLE_OFF", "ORACLE_VERIFY", "analyze_state", "analyze_states"],
    "sampling": ["random_local_unitaries", "random_product_state",
                 "random_special_unitary", "random_state"],
    "states": ["BOSONIC", "DISTINGUISHABLE", "FERMIONIC", "LocalUnitaryTuple",
               "StateStack", "StateTensor", "apply_local", "build_state",
               "special_unitary", "symmetrize"],
}

#: names that moved to ``exact`` and stay importable from their old module
MOVED = {
    "states": ["DISTINGUISHABLE", "BOSONIC", "FERMIONIC", "SYMMETRY_CLASSES",
               "check_dims", "is_integral", "acting_dims", "permutation_sign"],
    "measure": ["DEFAULT_CLUSTER_TOL"],
    "report": ["ORACLE_MODES", "ORACLE_OFF", "ORACLE_VERIFY", "BOSON_CONVENTIONS",
               "BOSON_SYMMETRIC_SIMPLE", "BOSON_PRODUCT"],
    "lie": ["Sl2Triple", "sl2_triples", "WeightVector", "weight_table",
            "highest_weight_vector", "KSVerdict", "kostant_sternberg_check",
            "MAX_ENUMERATION"],
}


def fresh(*args, **kwargs):
    """Run a fresh interpreter with this checkout's sources on its path."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=True, **kwargs)


def imported_modules(importtime_stderr):
    """The module names of ``-X importtime`` lines."""
    return {line.rsplit("|", 1)[1].strip() for line in importtime_stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


def loads(modules, package):
    return any(m == package or m.startswith(package + ".") for m in modules)


def test_ks_check_entry_path_loads_no_numpy():
    proc = fresh("-X", "importtime", "-m", "orbitent", "ks-check", "--dims", "3,3,3",
                 "--format", "json")
    modules = imported_modules(proc.stderr)
    assert "orbitent.exact" in modules
    assert not loads(modules, "numpy")
    assert len(json.loads(proc.stdout)["rows"]) == 27


def test_schmidt_loads_neither_the_oracle_nor_sampling(tmp_path):
    path = tmp_path / "bell.json"
    orbitent.save_state(build_state([[0, 1], [1, 0]]), path)
    proc = fresh("-X", "importtime", "-m", "orbitent", "schmidt", "--input", str(path),
                 "--format", "json")
    modules = imported_modules(proc.stderr)
    assert "orbitent.moment" in modules
    assert not {"orbitent.oracle", "orbitent.sampling"} & modules
    assert json.loads(proc.stdout)["multiplicities"] == [2]


def test_import_of_the_package_loads_no_numpy():
    code = ("import sys, orbitent; "
            "print(any(m == 'numpy' or m.startswith('numpy.') for m in sys.modules))")
    assert fresh("-c", code).stdout.strip() == "False"


def test_every_export_resolves_and_is_listed():
    for name in orbitent.__all__:
        getattr(orbitent, name)
    assert set(orbitent.__all__) <= set(dir(orbitent))
    assert sorted(orbitent.__all__) == sorted(
        [name for names in IMPORT_PATHS.values() for name in names] + ["__version__"])
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        orbitent.nonexistent  # noqa: B018


def test_star_import_binds_the_objects_of_every_import_path():
    namespace = {}
    exec("from orbitent import *", namespace)
    for module, names in IMPORT_PATHS.items():
        owner = importlib.import_module(f"orbitent.{module}")
        for name in names:
            assert namespace[name] is getattr(owner, name) is getattr(orbitent, name), name


def test_moved_names_are_reexported_as_the_same_objects():
    exact = importlib.import_module("orbitent.exact")
    for module, names in MOVED.items():
        owner = importlib.import_module(f"orbitent.{module}")
        for name in names:
            assert getattr(owner, name) is getattr(exact, name), (module, name)


#: the classes whose every weight vector the sparse path must get right
WEIGHT_CLASSES = [
    ((2, 2, 2), DISTINGUISHABLE), ((3, 4), DISTINGUISHABLE), ((2,) * 6, DISTINGUISHABLE),
    ((3,) * 3, BOSONIC), ((4,) * 3, BOSONIC), ((2,) * 4, BOSONIC),
    ((5,) * 3, FERMIONIC), ((6,) * 3, FERMIONIC),
]


def reference_label(indices, symmetry):
    sep = {DISTINGUISHABLE: "*", BOSONIC: ".", FERMIONIC: "^"}[symmetry]
    return sep.join(f"e{i + 1}" for i in indices)


@pytest.mark.parametrize("dims, symmetry", WEIGHT_CLASSES)
def test_sparse_weight_path_matches_the_dense_one(dims, symmetry):
    table = weight_table(dims, symmetry)
    indices = list(dense_basis_indices(dims, symmetry))
    assert len(table) == len(indices)
    for wv, idx in zip(table, indices):
        ints = dense_basis_tensor(idx, dims, symmetry)
        weight = dense_weight(ints, symmetry)
        verdict = kostant_sternberg_check(wv)
        witness = verdict.witness and (verdict.witness.party, verdict.witness.i,
                                       verdict.witness.j)
        assert (wv.label, wv.weight) == (reference_label(idx, symmetry), weight)
        assert (verdict.symplectic, witness) == dense_ks_check(ints, weight, symmetry)
        assert wv.int_coeffs.dtype == np.int64 and np.array_equal(wv.int_coeffs, ints)
        reference = build_state(ints.astype(complex), symmetry)
        assert wv.state.symmetry == symmetry
        assert np.array_equal(wv.state.coeffs, reference.coeffs)


def test_weight_vectors_build_their_arrays_only_when_read():
    wv = weight_table((3, 3), BOSONIC)[1]
    assert wv.support == {(0, 1): 1, (1, 0): 1}
    assert "int_coeffs" not in vars(wv) and "state" not in vars(wv)
    assert not kostant_sternberg_check(wv).symplectic
    assert "int_coeffs" not in vars(wv) and "state" not in vars(wv)
    assert wv.state is wv.state and wv.int_coeffs is wv.int_coeffs
    with pytest.raises(AttributeError):
        wv.label = "other"


@pytest.mark.parametrize("dims, symmetry", WEIGHT_CLASSES)
def test_vectorized_charges_match_the_exact_ones(dims, symmetry):
    """The oracle's charge table (``oracle._charge_table``, ones last) and
    the exact weight path (``exact.index_charges``) agree on every basis
    state."""
    digits = np.indices(dims).reshape(len(dims), -1)
    table = _charge_table(dims, symmetry)[:-1].astype(int).T.tolist()
    for index, charges in zip(digits.T.tolist(), table):
        assert index_charges(index, dims, symmetry) == tuple(charges)
