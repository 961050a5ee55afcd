"""Generator rows, the pulled-back metric and symplectic form, and formula
cross-checks."""

import functools

import numpy as np
import pytest

from orbitent import (
    BOSONIC,
    DISTINGUISHABLE,
    FERMIONIC,
    EnumerationTooLarge,
    NotNormalized,
    StateStack,
    apply_local,
    build_state,
    degeneracy_rank,
    fubini_study_omega,
    random_local_unitaries,
    random_state,
    su_basis,
    symmetrize,
    verify_against_formula,
)
from orbitent.oracle import DEFAULT_RANK_TOL, _generator_rows, _stable_rank
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


def test_projection_is_the_moment_map_term():
    """Projecting R_a = A_a v to t_a = R_a - v<v|R_a> leaves Im<R_a|R_b>
    and takes alpha_a alpha_b, alpha_a = Im<v|A_a v>, off Re<R_a|R_b>."""
    for dims, symmetry in [((3, 2), DISTINGUISHABLE), ((3, 3), BOSONIC)]:
        state = random_state(dims, symmetry, rng=np.random.default_rng(7))
        v = state.coeffs.reshape(-1)
        rows = _generator_rows(state)
        pairing = rows @ v.conj()
        assert np.abs(pairing.real).max() < 1e-15
        tangents = rows - np.outer(pairing, v)
        raw = rows.conj() @ rows.T
        projected = tangents.conj() @ tangents.T
        alpha = pairing.imag
        assert np.allclose(projected.real, raw.real - np.outer(alpha, alpha),
                           rtol=0, atol=1e-14)
        assert np.allclose(projected.imag, raw.imag, rtol=0, atol=1e-14)


def dense_generator(mats, dims):
    """Dense sum_k I (x) ... (x) A_k (x) ... (x) I, built with np.kron."""
    return sum(functools.reduce(np.kron, [m if j == k else np.eye(n)
                                          for j, n in enumerate(dims)])
               for k, m in enumerate(mats) if m is not None)


@pytest.mark.parametrize("dims,symmetry", [((2, 2, 2), DISTINGUISHABLE),
                                           ((3, 5), DISTINGUISHABLE),
                                           ((3, 3), BOSONIC),
                                           ((4, 4, 4), FERMIONIC)])
def test_tangent_rows_match_dense_kronecker_generators(dims, symmetry):
    """su(N_k) at party k, or su(N) on every slot at once."""
    if symmetry == DISTINGUISHABLE:
        placed = [[el.matrix if j == el.party else None for j in range(len(dims))]
                  for el in su_basis(dims).elements]
    else:
        placed = [[el.matrix] * len(dims) for el in su_basis(dims[:1]).elements]
    state = random_state(dims, symmetry, rng=np.random.default_rng(13))
    v = state.coeffs.reshape(-1)
    expected = [dense_generator(mats, dims) @ v for mats in placed]
    rows = _generator_rows(state)
    assert rows.shape == (len(expected), v.size)
    assert np.allclose(rows, expected, rtol=0, atol=1e-13)


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
        degeneracy_rank(build_state(np.ones((2,) * 13)))


def test_generator_guard_refuses_before_building_the_basis(monkeypatch):
    def no_basis(dims):
        raise AssertionError(f"su_basis({dims}) built for a refused state")

    monkeypatch.setattr("orbitent.oracle.su_basis", no_basis)
    with pytest.raises(EnumerationTooLarge, match="286 generators"):
        degeneracy_rank(build_state(np.eye(12)))


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


def test_degeneracy_rank_of_a_stack_matches_each_state():
    rng = np.random.default_rng(21)
    bell = build_state([[0, 1], [1, 0]])
    product = build_state([[1, 0], [0, 0]])
    states = [random_state((2, 2), rng=rng), bell, product,
              random_state((2, 2), rng=rng), bell]
    ranks = degeneracy_rank(StateStack.of(states))
    assert [r.as_tuple() for r in ranks] == [
        degeneracy_rank(s).as_tuple() for s in states]
    # three orbit ranks in one stack
    assert [r.orbit_dim for r in ranks] == [5, 3, 4, 5, 3]


@pytest.mark.parametrize("dims, symmetry", [
    ((2, 2, 2), DISTINGUISHABLE), ((3, 5), DISTINGUISHABLE),
    ((3, 3), BOSONIC), ((4, 4, 4), FERMIONIC)])
def test_tangent_rows_of_a_stack_match_each_state(dims, symmetry):
    rng = np.random.default_rng(22)
    states = [random_state(dims, symmetry, rng=rng) for _ in range(4)]
    rows = _generator_rows(StateStack.of(states))
    for b, state in enumerate(states):
        assert np.allclose(rows[b], _generator_rows(state), rtol=0, atol=1e-15)


def reference_ranks(state, rank_tol=DEFAULT_RANK_TOL):
    """The projected-frame oracle: project each generator image onto the
    tangent space, span that space with the Gram eigenvectors above the
    rank cut, whiten them, restrict omega to the orthonormal frame and read
    s off its singular values."""
    rows = _generator_rows(state)
    v = state.coeffs.reshape(1, -1)
    tangents = rows - (rows @ v.conj().T) * v
    overlap = tangents.conj() @ tangents.T
    evals, evecs = np.linalg.eigh((overlap.real + overlap.real.T) / 2.0)
    r = int(_stable_rank(evals, rank_tol, "reference Gram matrix"))
    if r == 0:
        return 0, 0, 0
    frame = evecs[:, -r:] / np.sqrt(evals[-r:])
    omega = frame.T @ (-(overlap.imag - overlap.imag.T) / 2.0) @ frame
    sing = np.linalg.svd((omega - omega.T) / 2.0, compute_uv=False)
    s = int(_stable_rank(sing, rank_tol, "reference restricted form"))
    assert s % 2 == 0
    return r, s, r - s


def _basis_tensor(dims, *indices):
    c = np.zeros(dims, dtype=complex)
    for index in indices:
        c[index] = 1.0
    return c


def _power(v, m):
    return functools.reduce(np.multiply.outer, [v] * m)


def degenerate_strata():
    """One state per degenerate stratum of each class, as (name, state)."""
    v = np.array([1.0, 0.5 - 0.5j, 0.25j])
    kernel_23 = np.zeros((2, 3)); kernel_23[0, 0] = 0.8; kernel_23[1, 1] = 0.6
    return [
        ("product", build_state(_basis_tensor((2, 2), (0, 0)))),
        ("bell", bell_state()),
        ("ghz-2", build_state(_basis_tensor((2, 2, 2), (0, 0, 0), (1, 1, 1)))),
        ("ghz-3", build_state(_basis_tensor((3, 3, 3), *[(i, i, i) for i in range(3)]))),
        ("w-3", build_state(_basis_tensor((2, 2, 2), (1, 0, 0), (0, 1, 0), (0, 0, 1)))),
        ("w-4", build_state(_basis_tensor(
            (2,) * 4, *[tuple(int(j == i) for j in range(4)) for i in range(4)]))),
        ("bell-product", build_state(_basis_tensor((2, 2, 3), (0, 1, 0), (1, 0, 0)))),
        ("boson-vv", build_state(_power(v, 2), BOSONIC)),
        ("boson-vvv", build_state(_power(v, 3), BOSONIC)),
        ("slater-4", symmetrize(_basis_tensor((4, 4), (0, 1)), FERMIONIC)),
        ("slater-5", symmetrize(_basis_tensor((5, 5, 5), (0, 1, 2)), FERMIONIC)),
        ("kernel-23", build_state(kernel_23)),
        ("kernel-35", build_state(_basis_tensor((3, 5), (0, 0), (1, 1)))),
    ]


@pytest.mark.parametrize("name", [name for name, _ in degenerate_strata()])
def test_degeneracy_rank_equals_the_projected_frame_reference(name):
    state = dict(degenerate_strata())[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    moved = apply_local(state, random_local_unitaries(state.dims, state.symmetry,
                                                       rng=rng))
    for s in (state, moved):
        assert degeneracy_rank(s).as_tuple() == reference_ranks(s)


def test_stack_of_mixed_orbit_ranks_equals_the_reference():
    rng = np.random.default_rng(23)
    states = [s for _, s in degenerate_strata() if s.dims == (2, 2, 2)]
    states += [build_state(_basis_tensor((2, 2, 2), (0, 0, 0))),
               random_state((2, 2, 2), rng=rng)]
    states = [apply_local(s, random_local_unitaries((2, 2, 2), rng=rng))
              for s in states]
    ranks = [r.as_tuple() for r in degeneracy_rank(StateStack.of(states))]
    assert ranks == [reference_ranks(s) for s in states]
    assert len({r[0] for r in ranks}) == 4


def test_symplectic_rank_above_the_orbit_rank_is_refused():
    """Schmidt weights 1/2 +- 1e-5: the metric's eigenvalues shrink with the
    squared gap and read the Bell orbit (r = 3), while Omega's singular
    values shrink with the gap and read s = 4.  The closed form gives
    (5, 4, 1); the oracle refuses instead of reporting D = -1."""
    d = 1e-5
    state = build_state(np.diag([np.sqrt(0.5 + d), np.sqrt(0.5 - d)]))
    moved = apply_local(state, random_local_unitaries((2, 2),
                                                      rng=np.random.default_rng(31)))
    for s in (state, moved):
        with pytest.raises(RankUnstable, match="rank 4 exceeds the orbit rank 3"):
            degeneracy_rank(s)
        with pytest.raises(RankUnstable):
            verify_against_formula(s)
