"""JSON state document round trips."""

import json

import numpy as np
import pytest

from orbitent import (
    DimensionMismatch,
    load_state,
    random_state,
    save_state,
    state_from_document,
)


def test_document_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    state = random_state((2, 3), rng=rng)
    path = tmp_path / "state.json"
    save_state(state, path)
    loaded = load_state(path)
    assert loaded.dims == state.dims
    assert loaded.symmetry == state.symmetry
    assert np.allclose(loaded.coeffs, state.coeffs)


def test_document_is_valid_json_with_pair_leaves(tmp_path):
    state = random_state((2, 2), "bosonic", rng=np.random.default_rng(5))
    path = tmp_path / "state.json"
    save_state(state, path)
    doc = json.loads(path.read_text())
    assert doc["symmetry"] == "bosonic"
    leaf = doc["coeffs"][0][1]
    assert isinstance(leaf, list) and len(leaf) == 2


def test_flat_coefficients_accepted():
    doc = {
        "symmetry": "distinguishable",
        "dims": [2, 2],
        "coeffs_flat": [[0, 0], [1, 0], [1, 0], [0, 0]],
    }
    state = state_from_document(doc)
    assert np.allclose(state.coeffs,
                       np.array([[0, 1], [1, 0]]) / np.sqrt(2))


def test_bare_real_leaves_accepted():
    doc = {"symmetry": "distinguishable", "dims": [2, 2],
           "coeffs": [[1, 0], [0, 1]]}
    state = state_from_document(doc)
    assert np.allclose(state.coeffs, np.eye(2) / np.sqrt(2))


def test_shape_mismatch_rejected():
    doc = {"symmetry": "distinguishable", "dims": [2, 2],
           "coeffs": [[1, 0, 0], [0, 1, 0]]}
    with pytest.raises(DimensionMismatch):
        state_from_document(doc)
    flat = {"symmetry": "distinguishable", "dims": [2, 2],
            "coeffs_flat": [[1, 0]] * 3}
    with pytest.raises(DimensionMismatch):
        state_from_document(flat)


def test_missing_keys_rejected():
    with pytest.raises(ValueError):
        state_from_document({"dims": [2, 2], "coeffs": [[1, 0], [0, 0]]})
    with pytest.raises(ValueError):
        state_from_document({"symmetry": "distinguishable", "dims": [2, 2]})


MALFORMED_DOCUMENTS = {
    "boolean-coefficients": {"dims": [2, 2], "coeffs": [[True, False], [False, True]]},
    "string-dims": {"dims": "22", "coeffs": [[1, 0], [0, 1]]},
    "non-integral-dims": {"dims": [2.9, 2], "coeffs": [[1, 0], [0, 1]]},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_DOCUMENTS))
def test_malformed_document_rejected(name):
    doc = dict(MALFORMED_DOCUMENTS[name], symmetry="distinguishable")
    with pytest.raises(ValueError):
        state_from_document(doc)


def test_deeply_nested_dims_refused_before_parsing():
    # one axis per party: numpy holds at most 64, and a 900-deep document
    # would otherwise overflow the stack in the nested parser
    coeffs = 1.0
    for _ in range(900):
        coeffs = [coeffs]
    doc = {"symmetry": "distinguishable", "dims": [1] * 900, "coeffs": coeffs}
    with pytest.raises(ValueError, match="at most 64"):
        state_from_document(doc)
