"""State construction, local action, and symmetrization."""

import numpy as np
import pytest

from orbitent import (
    BOSONIC,
    DISTINGUISHABLE,
    FERMIONIC,
    DimensionMismatch,
    LocalUnitaryTuple,
    SymmetryViolation,
    ZeroState,
    apply_local,
    build_state,
    random_local_unitaries,
    random_state,
    special_unitary,
    symmetrize,
)

EPS = np.finfo(float).eps


def basis_vec(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def test_build_product_state_already_normalized():
    state = build_state([[1, 0], [0, 0]])
    assert state.dims == (2, 2)
    assert state.norm == pytest.approx(1.0)
    assert state.coeffs[0, 0] == 1.0


def test_build_state_normalizes_by_sqrt2():
    state = build_state([[0, 1], [1, 0]])
    assert state.coeffs[0, 1] == pytest.approx(1 / np.sqrt(2))
    assert state.coeffs[1, 0] == pytest.approx(1 / np.sqrt(2))
    assert state.norm == pytest.approx(1.0)


def test_build_state_symmetric_tensor_fails_fermionic_declaration():
    with pytest.raises(SymmetryViolation):
        build_state([[0, 1], [1, 0]], FERMIONIC)


def test_build_state_rejects_zero_tensor():
    with pytest.raises(ZeroState):
        build_state(np.zeros((2, 2)))


def test_build_state_rejects_nan_entry():
    with pytest.raises(ValueError):
        build_state([[np.nan, 0], [0, 1]])


def test_build_state_normalizes_subnormal_entries():
    # the norm of these entries underflows to zero without the prescale
    state = build_state([[1e-320, 0], [0, 1e-320]])
    assert state.coeffs[0, 0] == state.coeffs[1, 1] == 1 / np.sqrt(2)
    assert state.norm == pytest.approx(1.0)


def test_build_state_normalizes_huge_entries():
    # the squared entries overflow to infinity without the prescale
    state = build_state([[1e300, 0], [0, 1e300]])
    assert state.coeffs[0, 0] == state.coeffs[1, 1] == 1 / np.sqrt(2)
    assert state.norm == pytest.approx(1.0)


def test_build_state_rejects_dim_one_party():
    with pytest.raises(DimensionMismatch):
        build_state(np.ones((1, 2)))


def test_build_state_rejects_unequal_dims_for_bosons():
    with pytest.raises(DimensionMismatch):
        build_state(np.ones((2, 3)), BOSONIC)


def test_bosonic_declaration_verified_not_imposed():
    sym = build_state([[0, 1], [1, 0]], BOSONIC)
    assert sym.symmetry == BOSONIC
    with pytest.raises(SymmetryViolation):
        build_state([[0, 1], [0, 0]], BOSONIC)


def test_fermionic_diagonal_entries_vanish():
    anti = np.array([[0, 1], [-1, 0]], dtype=complex)
    state = build_state(anti, FERMIONIC)
    assert state.coeffs[0, 0] == 0
    bad = anti.copy()
    bad[0, 0] = 0.1
    with pytest.raises(SymmetryViolation):
        build_state(bad, FERMIONIC)


def test_apply_identity_leaves_state_unchanged():
    state = build_state([[0, 1], [1, 0]])
    out = apply_local(state, LocalUnitaryTuple.identity((2, 2)))
    assert np.allclose(out.coeffs, state.coeffs)


def test_apply_local_is_ucvt_for_two_parties():
    rng = np.random.default_rng(7)
    for _ in range(5):
        state = random_state((3, 3), rng=rng)
        g = random_local_unitaries((3, 3), rng=rng)
        out = apply_local(state, g)
        expected = g.blocks[0] @ state.coeffs @ g.blocks[1].T
        assert np.allclose(out.coeffs, expected, atol=1e-12)


def test_swap_phase_fixes_bell_state_projectively():
    bell = build_state([[0, 1], [1, 0]])
    u = np.diag([1j, -1j])
    assert np.linalg.det(u) == pytest.approx(1.0)
    out = apply_local(bell, LocalUnitaryTuple((u, u)))
    assert out.projectively_equals(bell)


def test_apply_local_preserves_norm_within_eps_budget():
    rng = np.random.default_rng(11)
    for dims in [(2, 2), (3, 3), (2, 3, 4), (2, 2, 2, 2)]:
        state = random_state(dims, rng=rng)
        g = random_local_unitaries(dims, rng=rng)
        out = apply_local(state, g)
        budget = 10 * EPS * state.total_dim
        assert abs(out.norm - 1.0) < budget


def test_apply_local_roundtrips_through_inverse():
    rng = np.random.default_rng(13)
    for dims in [(2, 2), (3, 2), (2, 2, 3)]:
        state = random_state(dims, rng=rng)
        g = random_local_unitaries(dims, rng=rng)
        back = apply_local(apply_local(state, g), g.inverse())
        assert np.allclose(back.coeffs, state.coeffs, atol=1e-12)


def test_apply_local_requires_identical_blocks_on_bosons():
    rng = np.random.default_rng(17)
    state = random_state((3, 3), BOSONIC, rng=rng)
    blocks = (np.eye(3, dtype=complex),
              np.diag(np.exp(2j * np.pi * np.array([1, 1, -2]) / 3)))
    with pytest.raises(SymmetryViolation):
        apply_local(state, LocalUnitaryTuple(blocks))
    same = random_local_unitaries((3, 3), BOSONIC, rng=rng)
    out = apply_local(state, same)
    assert out.symmetry == BOSONIC


def test_apply_local_dimension_mismatch():
    state = build_state([[0, 1], [1, 0]])
    with pytest.raises(DimensionMismatch):
        apply_local(state, LocalUnitaryTuple.identity((2, 3)))


def test_symmetrize_fermionic_pair():
    raw = np.outer(basis_vec(2, 0), basis_vec(2, 1))
    state = symmetrize(raw, FERMIONIC)
    expected = np.array([[0, 1], [-1, 0]]) / np.sqrt(2)
    assert np.allclose(state.coeffs, expected)


def test_symmetrize_bosonic_pair():
    raw = np.outer(basis_vec(2, 0), basis_vec(2, 1))
    state = symmetrize(raw, BOSONIC)
    expected = np.array([[0, 1], [1, 0]]) / np.sqrt(2)
    assert np.allclose(state.coeffs, expected)


def test_symmetrize_repeated_index_vanishes_for_fermions():
    raw = np.outer(basis_vec(2, 0), basis_vec(2, 0))
    with pytest.raises(ZeroState):
        symmetrize(raw, FERMIONIC)


@pytest.mark.parametrize("scale", [1e300, 1e-320])
def test_symmetrize_normalizes_extreme_scales(scale):
    e1, e2 = basis_vec(2, 0), basis_vec(2, 1)
    state = symmetrize(scale * np.outer(e1, e2), BOSONIC)
    assert state.coeffs[0, 1] == state.coeffs[1, 0] == 1 / np.sqrt(2)
    assert state.norm == pytest.approx(1.0)
    with pytest.raises(ZeroState):
        symmetrize(scale * np.outer(e1, e1), FERMIONIC)


def test_symmetrize_is_projectively_idempotent():
    rng = np.random.default_rng(19)
    for sym in (BOSONIC, FERMIONIC):
        raw = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        once = symmetrize(raw, sym)
        twice = symmetrize(once.coeffs, sym)
        assert twice.projectively_equals(once)


def test_unitary_tuple_rejects_unit_modulus_det_without_request():
    u = np.diag([1j, 1.0])  # unitary, det = 1j
    with pytest.raises(ValueError):
        LocalUnitaryTuple((u,))
    fixed = LocalUnitaryTuple.from_blocks((u,), fix_determinant=True)
    assert np.linalg.det(fixed.blocks[0]) == pytest.approx(1.0)


def test_unitary_tuple_rejects_nonunitary():
    with pytest.raises(ValueError):
        LocalUnitaryTuple((np.array([[1.0, 1.0], [0.0, 1.0]]),))


def test_special_unitary_rescales_phase():
    u = np.diag([np.exp(0.3j), np.exp(0.5j)])
    su = special_unitary(u)
    assert np.linalg.det(su) == pytest.approx(1.0)


def test_distinguishable_ignores_exchange_checks():
    state = build_state([[0.3, 0.1], [0.9, 0.2]], DISTINGUISHABLE)
    assert state.symmetry == DISTINGUISHABLE
