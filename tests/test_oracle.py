"""Tangent frames, the restricted symplectic form, and formula cross-checks."""

import numpy as np
import pytest

from orbitent import (
    BOSONIC,
    FERMIONIC,
    EnumerationTooLarge,
    NotNormalized,
    apply_local,
    build_state,
    degeneracy_rank,
    fubini_study_omega,
    random_local_unitaries,
    random_state,
    su_basis,
    symmetrize,
    tangent_frame,
    verify_against_formula,
)
from orbitent.oracle import _stable_rank
from orbitent.errors import RankUnstable


def bell_state():
    return build_state([[0, 1], [1, 0]])


def test_omega_vanishes_on_equal_arguments():
    a = su_basis((2, 2)).elements[1]
    mats = (a.matrix, None)
    state = random_state((2, 2), rng=np.random.default_rng(3))
    assert fubini_study_omega(state, mats, mats) == pytest.approx(0.0, abs=1e-12)


def test_omega_sign_convention_on_bloch_sphere():
    """v = e1 in C^2, A = i(E12+E21), B = E12-E21: omega = -1."""
    e12 = np.zeros((2, 2)); e12[0, 1] = 1
    e21 = np.zeros((2, 2)); e21[1, 0] = 1
    a = 1j * (e12 + e21)
    b = e12 - e21
    v = np.array([1.0, 0.0], dtype=complex)
    assert fubini_study_omega(v, (a,), (b,)) == pytest.approx(-1.0)


def test_omega_zero_on_bell_tangent_pairs():
    bell = bell_state()
    basis = su_basis((2, 2))
    for x in basis.elements:
        for y in basis.elements:
            mx = [None, None]; mx[x.party] = x.matrix
            my = [None, None]; my[y.party] = y.matrix
            val = fubini_study_omega(bell, tuple(mx), tuple(my))
            assert abs(val) < 1e-12


def test_omega_requires_unit_vector():
    with pytest.raises(NotNormalized):
        fubini_study_omega(np.array([2.0, 0.0]), (np.eye(2) * 1j,),
                           (np.eye(2) * 1j,))


def test_omega_two_evaluations_agree_on_random_triples():
    rng = np.random.default_rng(5)
    basis = su_basis((2, 3))
    for _ in range(50):
        state = random_state((2, 3), rng=rng)
        x, y = rng.choice(len(basis.elements), size=2)
        ex, ey = basis.elements[x], basis.elements[y]
        mx = [None, None]; mx[ex.party] = ex.matrix
        my = [None, None]; my[ey.party] = ey.matrix
        fubini_study_omega(state, tuple(mx), tuple(my))  # raises on mismatch


def test_tangent_frame_product_and_bell():
    prod = build_state([[1, 0], [0, 0]])
    assert tangent_frame(prod).rank == 4
    assert tangent_frame(bell_state()).rank == 3


def test_tangent_rows_orthogonal_to_base_point():
    state = random_state((3, 2), rng=np.random.default_rng(7))
    frame = tangent_frame(state)
    v = state.coeffs.reshape(-1)
    for row in frame.tangents:
        assert abs(np.vdot(v, row)) < 1e-12


def test_degeneracy_rank_product_and_bell():
    assert degeneracy_rank(build_state([[1, 0], [0, 0]])).as_tuple() == (4, 4, 0)
    assert degeneracy_rank(bell_state()).as_tuple() == (3, 0, 3)


def test_degeneracy_rank_ghz_and_w_regression():
    """Ground-truth ranks recorded from the oracle, frozen as regression."""
    ghz = np.zeros((2, 2, 2)); ghz[0, 0, 0] = ghz[1, 1, 1] = 1
    assert degeneracy_rank(build_state(ghz)).as_tuple() == (7, 0, 7)
    w = np.zeros((2, 2, 2)); w[1, 0, 0] = w[0, 1, 0] = w[0, 0, 1] = 1
    assert degeneracy_rank(build_state(w)).as_tuple() == (8, 6, 2)


def test_degeneracy_rank_even_symplectic_rank():
    rng = np.random.default_rng(11)
    for dims in [(2, 2), (3, 3), (2, 2, 2)]:
        for _ in range(5):
            rank = degeneracy_rank(random_state(dims, rng=rng))
            assert rank.symplectic_rank % 2 == 0
            assert rank.degeneracy >= 0


def test_bosonic_pair_not_symplectic():
    pair = symmetrize(np.outer([1, 0, 0], [0, 1, 0]), BOSONIC)
    rank = degeneracy_rank(pair)
    assert rank.degeneracy >= 1
    assert rank.as_tuple() == (6, 4, 2)


def test_fermionic_slater_symplectic():
    slater = symmetrize(np.outer([1, 0, 0, 0], [0, 1, 0, 0]), FERMIONIC)
    assert degeneracy_rank(slater).as_tuple() == (8, 8, 0)


def test_one_dimensional_wedge_space_is_a_fixed_point():
    slater = symmetrize(np.outer([1, 0], [0, 1]), FERMIONIC)
    assert degeneracy_rank(slater).as_tuple() == (0, 0, 0)


def test_ranks_invariant_under_local_unitaries():
    rng = np.random.default_rng(13)
    for dims, sym in [((2, 2), "distinguishable"), ((3, 3), BOSONIC)]:
        state = random_state(dims, sym, rng=rng)
        base = degeneracy_rank(state).as_tuple()
        for _ in range(3):
            g = random_local_unitaries(dims, sym, rng=rng)
            assert degeneracy_rank(apply_local(state, g)).as_tuple() == base


def test_highest_weight_orbit_symplectic_all_classes():
    from orbitent import highest_weight_vector
    for n in (2, 3, 4):
        for m in (2, 3):
            hw = highest_weight_vector((n,) * m)
            assert degeneracy_rank(hw.state).degeneracy == 0
            hwb = highest_weight_vector((n,) * m, BOSONIC)
            assert degeneracy_rank(hwb.state).degeneracy == 0
            if m <= n:
                hwf = highest_weight_vector((n,) * m, FERMIONIC)
                assert degeneracy_rank(hwf.state).degeneracy == 0


def test_verify_against_formula_bipartite_and_bounds():
    rng = np.random.default_rng(17)
    rec = verify_against_formula(random_state((2, 2), rng=rng))
    assert rec.passed and rec.mode == "exact"
    rec = verify_against_formula(random_state((2, 2, 2), rng=rng))
    assert rec.passed and rec.mode == "bounds"
    assert rec.to_json_dict()["observed"]["degeneracy"] >= 0


def test_verify_against_formula_two_qutrit_multiplicity_pattern():
    # singular values (1/sqrt2, 1/2, 1/2): multiplicities (1, 2), D = 4
    c = np.diag([1 / np.sqrt(2), 0.5, 0.5])
    rec = verify_against_formula(build_state(c))
    assert rec.expected["degeneracy"] == 4
    assert rec.expected["orbit_dim"] == 12
    assert rec.expected["coadjoint_dim"] == 8


def test_verify_against_formula_checks_coadjoint_without_closed_form():
    rng = np.random.default_rng(19)
    for dims, symmetry in [((3, 3), BOSONIC), ((4, 4, 4), FERMIONIC),
                           ((2, 3), "distinguishable")]:
        rec = verify_against_formula(random_state(dims, symmetry, rng=rng))
        assert rec.passed and rec.mode == "coadjoint"
        assert rec.observed["coadjoint_dim"] == rec.expected["coadjoint_dim"]


def test_oracle_size_guard():
    with pytest.raises(EnumerationTooLarge):
        tangent_frame(build_state(np.ones((2,) * 13)))


def test_stable_rank_guard():
    assert _stable_rank([1.0, 0.5, 1e-12], 1e-8, "test") == 2
    with pytest.raises(RankUnstable):
        _stable_rank([1.0, 5e-8], 1e-8, "test")
    assert _stable_rank(np.zeros(3), 1e-8, "test") == 0
    # pure float noise reads as rank zero thanks to the metric floor
    assert _stable_rank([1e-17, 2e-17], 1e-8, "test") == 0


@pytest.mark.parametrize("factor, rank", [
    (8.0, None), (12.0, 2), (1 / 8, None), (1 / 12, 1)])
def test_stable_rank_refused_within_factor_ten_of_the_cut(factor, rank):
    tol = 1e-8  # the cut is tol times the largest value, 1
    values = [1.0, factor * tol]
    if rank is None:
        with pytest.raises(RankUnstable):
            _stable_rank(values, tol, "test")
    else:
        assert _stable_rank(values, tol, "test") == rank


@pytest.mark.parametrize("rank_tol", [0.0, 0.5])
def test_rank_tolerance_outside_range_is_refused(rank_tol):
    with pytest.raises(ValueError):
        degeneracy_rank(bell_state(), rank_tol=rank_tol)
    with pytest.raises(ValueError):
        tangent_frame(bell_state(), rank_tol=rank_tol)
