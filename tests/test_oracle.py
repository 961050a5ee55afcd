"""Generator rows, the pulled-back metric and symplectic form, and formula
cross-checks."""

import functools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from orbitent import (
    BOSONIC,
    DISTINGUISHABLE,
    FERMIONIC,
    EnumerationTooLarge,
    LocalUnitaryTuple,
    NotNormalized,
    StateStack,
    StateTensor,
    apply_local,
    build_state,
    degeneracy_rank,
    fubini_study_omega,
    kostant_sternberg_check,
    random_local_unitaries,
    random_state,
    rep_action,
    su_basis,
    symmetrize,
    verify_against_formula,
    weight_table,
)
from orbitent import oracle
from orbitent.moment import marginal_eigenbases, reduced_matrices
from orbitent.oracle import (
    _charge_table,
    _kept_pairs,
    _kernel_metric,
    _pair_gather,
    _stable_rank,
)
from orbitent.states import acting_dims, local_product
from orbitent.errors import AmbiguousClustering, RankUnstable
from orbitent.report import analyze_state

from rank_references import (
    all_generators,
    all_rows,
    exact_rank,
    exact_ranks,
    full_pair_gather,
    reference_ranks,
    reference_symplectic_rank,
)


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
    for v in (np.array([2.0, 0.0]), np.full(2, np.nan)):
        with pytest.raises(NotNormalized):
            fubini_study_omega(v, (np.eye(2) * 1j,), (np.eye(2) * 1j,))


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
        rows = all_rows(state)
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
    rows = all_rows(state)
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
    assert rec.expected == {"orbit_dim": 12, "degeneracy": 4}
    assert rec.observed == {"orbit_dim": 12, "coadjoint_dim": 8, "degeneracy": 4}


def test_verify_against_formula_checks_coadjoint_without_closed_form():
    """Without a closed form the record compares nothing (mode "none"): the
    oracle's s is the coadjoint formula of the report's clustering by
    construction, and here it is checked against Omega on all of k."""
    rng = np.random.default_rng(19)
    for dims, symmetry in [((3, 3), BOSONIC), ((4, 4, 4), FERMIONIC),
                           ((2, 3), "distinguishable")]:
        state = random_state(dims, symmetry, rng=rng)
        rec = verify_against_formula(state)
        assert rec.passed and rec.mode == "none" and rec.expected == {}
        assert rec.observed["coadjoint_dim"] == reference_symplectic_rank(state)


def test_byte_budget_refuses_before_any_array_per_state(monkeypatch):
    """The maximally entangled (64, 64) state keeps all 8064 pair
    directions: its rows alone would take 528 MB and its 8190 x 8190
    metric 537 MB.  Once the clustering has fixed the kept pairs, the
    budget refuses it, naming the bytes, before the rotation or any
    gather is built."""
    state = build_state(np.eye(64))
    per_state, per_class = oracle.footprint((64, 64), DISTINGUISHABLE)
    assert per_state > 16 * 8064 * 4096 + 8 * 8190**2
    needed = per_state + per_class

    def unreached(*args, **kwargs):
        raise AssertionError("an array per state built for a refused state")

    monkeypatch.setattr("orbitent.oracle.local_product", unreached)
    monkeypatch.setattr("orbitent.oracle._pair_gather", unreached)
    message = f"needs {needed} bytes .* budget of {oracle.BYTE_BUDGET} bytes"
    with pytest.raises(EnumerationTooLarge, match=message):
        degeneracy_rank(state)
    with pytest.raises(EnumerationTooLarge, match=message):
        analyze_state(state, oracle="verify")


def test_stable_rank_guard():
    assert _stable_rank([1.0, 0.5, 1e-12], "test") == 2
    with pytest.raises(RankUnstable):
        _stable_rank([1.0, 5e-8], "test")
    assert _stable_rank(np.zeros(3), "test") == 0
    # pure float noise reads as rank zero thanks to the metric floor
    assert _stable_rank([1e-17, 2e-17], "test") == 0


@pytest.mark.parametrize("factor, rank", [
    (8.0, None), (12.0, 2), (1 / 8, None), (1 / 12, 1)])
def test_stable_rank_refused_within_factor_ten_of_the_cut(factor, rank):
    tol = 1e-8  # RANK_TOL: the cut is tol times the largest value, 1
    values = [1.0, factor * tol]
    if rank is None:
        with pytest.raises(RankUnstable):
            _stable_rank(values, "test")
    else:
        assert _stable_rank(values, "test") == rank


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
    rows = all_rows(StateStack.of(states))
    for b, state in enumerate(states):
        assert np.allclose(rows[b], all_rows(state), rtol=0, atol=1e-15)


def test_exact_rank_of_integer_matrices():
    rng = np.random.default_rng(41)
    for rank in range(6):
        left = rng.integers(-3, 4, (7, rank))
        right = rng.integers(-3, 4, (rank, 6))
        matrix = left @ right
        assert exact_rank(matrix) == np.linalg.matrix_rank(matrix)
    assert exact_rank(np.zeros((3, 4), dtype=int)) == 0
    # entries past 2**53, where a float rank would round them
    big = 2 ** 60
    assert exact_rank(np.array([[big, big + 1], [big + 1, big + 2]], dtype=object)) == 2
    assert exact_rank(np.array([[big, big + 2], [big // 2, big // 2 + 1]], dtype=object)) == 1


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2)])
def test_exact_ranks_of_sparse_gaussian_integer_states(dims):
    """Entries drawn from {0, 0, 1, -1, i, -i}: exact strata, degenerate
    ones included, with both parts of the coefficients at work."""
    rng = np.random.default_rng(len(dims) * 10 + dims[-1])
    entries = np.array([0, 0, 1, -1, 1j, -1j])
    for _ in range(12):
        c = rng.choice(entries, dims)
        if not c.any():
            continue
        ranks = exact_ranks(c.real.astype(np.int64), c.imag.astype(np.int64))
        state = build_state(c)
        assert ranks == degeneracy_rank(state).as_tuple() == reference_ranks(state)


SPARSE_SHAPES = [(2, 2), (2, 3), (3, 3), (2, 2, 2)]
SCHMIDT_SHAPES = [(3, 3), (4, 4), (3, 4)]


@st.composite
def sparse_entries(draw):
    """A nonzero state with entries from {0, 0, 1, -1, i, -i}."""
    dims = draw(st.sampled_from(SPARSE_SHAPES))
    size = int(np.prod(dims))
    entries = draw(st.lists(st.sampled_from([0, 0, 1, -1, 1j, -1j]),
                            min_size=size, max_size=size))
    c = np.array(entries, dtype=complex).reshape(dims)
    assume(c.any())
    return c


@st.composite
def schmidt_normal_forms(draw):
    """A nonzero integer Schmidt normal form sum_n c_n e_n (x) e_n with
    weights from {0, 1, 2}: repeated weights and kernels, such as (2, 1, 1),
    (1, 1, 0) or (2, 2, 1, 0), reach the degenerate strata where the m_n^2
    and m_0^2 terms count."""
    dims = draw(st.sampled_from(SCHMIDT_SHAPES))
    n = min(dims)
    weights = draw(st.lists(st.sampled_from([0, 1, 2]), min_size=n, max_size=n))
    assume(any(weights))
    c = np.zeros(dims, dtype=complex)
    c[range(n), range(n)] = weights
    return c


def rotated_sparse_states():
    """A sparse state or a Schmidt normal form, and the seed of the random
    local SU that rotates it."""
    return st.tuples(st.one_of(sparse_entries(), schmidt_normal_forms()),
                     st.integers(0, 2 ** 32 - 1))


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(rotated_sparse_states())
def test_rotated_sparse_states_give_the_exact_integers_or_refuse(case):
    """After a random local SU the float route gives the tolerance-free
    (r, s, D) of the unrotated state, or refuses; never a wrong integer."""
    c, seed = case
    exact = exact_ranks(c.real.astype(np.int64), c.imag.astype(np.int64))
    moved = apply_local(build_state(c), random_local_unitaries(c.shape, rng=seed))
    try:
        report = analyze_state(moved, oracle="verify")
    except (AmbiguousClustering, RankUnstable):
        return
    ranks = report.oracle
    assert (ranks["orbit_dim"], ranks["symplectic_rank"], ranks["degeneracy"]) == exact
    assert report.coadjoint_dim == exact[1]
    for value, want in ((report.orbit_dim, exact[0]), (report.degeneracy, exact[2])):
        low, high = value if isinstance(value, tuple) else (value, value)
        assert low <= want <= high


@pytest.mark.parametrize("dims, symmetry", [
    ((2,) * 12, DISTINGUISHABLE), ((3, 5), DISTINGUISHABLE), ((2, 3, 4), DISTINGUISHABLE),
    ((3, 3, 3), BOSONIC), ((6, 6, 6), FERMIONIC)])
def test_the_oracles_rotation_is_apply_local_of_each_state(monkeypatch, dims, symmetry):
    """The oracle rotates a stack by ``states.local_product``, the kernel of
    ``apply_local``: each state's slice equals ``apply_local`` of that state
    with the transposes of its own eigenvector blocks, bit for bit.  They
    are unitary, not special, so that tuple is built without the check."""
    calls = []

    def spy(coeffs, blocks):
        calls.append((blocks, local_product(coeffs, blocks)))
        return calls[-1][1]

    monkeypatch.setattr(oracle, "local_product", spy)
    rng = np.random.default_rng(len(dims))
    stack = StateStack.of([random_state(dims, symmetry, rng=rng) for _ in range(3)])
    degeneracy_rank(stack)
    [(blocks, rotated)] = calls
    for b, state in enumerate(stack):
        g = LocalUnitaryTuple._of_checked(tuple(block[b].T for block in blocks))
        assert np.array_equal(rotated[b], apply_local(state, g).coeffs)


@pytest.mark.parametrize("dims, symmetry", [
    ((3, 3, 3), DISTINGUISHABLE), ((2,) * 4, DISTINGUISHABLE), ((3, 3, 3), BOSONIC),
    ((4, 4, 4), BOSONIC), ((4, 4, 4), FERMIONIC)])
def test_kostant_sternberg_is_exactly_d_zero(dims, symmetry):
    """On every weight vector, ``kostant_sternberg_check`` says symplectic
    exactly when the tolerance-free D is 0, and the oracle's (r, s, D)
    equals the exact ranks."""
    for w in weight_table(dims, symmetry):
        ranks = exact_ranks(w.int_coeffs, np.zeros_like(w.int_coeffs), symmetry)
        assert kostant_sternberg_check(w).symplectic == (ranks[2] == 0), w.label
        assert ranks == degeneracy_rank(w.state).as_tuple(), w.label


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


def near_pair_schmidt_state(n, gap, rng):
    """A rotated n x n Schmidt state whose weights lie well apart, but for
    one pair that differs by ``gap`` times the largest weight."""
    weights = np.arange(1, n) + rng.uniform(0.0, 0.5, n - 1)
    weights = np.append(weights, weights[rng.integers(n - 1)])
    weights[-1] += gap * weights.max()
    state = build_state(np.diag(np.sqrt(weights / weights.sum())))
    return apply_local(state, random_local_unitaries((n, n), rng=rng))


def near_degenerate_strata():
    """Rotated n x n Schmidt states with one pair of weights apart by 2e-6,
    1e-5, 1e-4 or 1e-3 of the largest, as (name, state): decided gaps,
    above the clustering's refusal window, which ends at 1e-6."""
    rng = np.random.default_rng(90)
    return [(f"near-pair-{n}-{gap:.0e}", near_pair_schmidt_state(n, gap, rng))
            for n in (2, 3, 4) for gap in (2e-6, 1e-5, 1e-4, 1e-3)]


@pytest.mark.parametrize("name", [name for name, _ in degenerate_strata()
                                  + near_degenerate_strata()])
def test_degeneracy_rank_equals_the_projected_frame_reference(name):
    """The oracle and the report's coadjoint formula, which share one
    clustering, against the reference, which reads s off Omega on all of
    k: the independent check of s.  Near a degenerate stratum the
    reference's r reads the metric on all of k, whose eigenvalues shrink
    with the squared gap, so only s is compared there; r and D meet the
    closed form inside ``analyze_state(oracle="verify")``."""
    state = dict(degenerate_strata() + near_degenerate_strata())[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    moved = apply_local(state, random_local_unitaries(state.dims, state.symmetry,
                                                       rng=rng))
    for s in (state, moved):
        ranks = degeneracy_rank(s).as_tuple()
        coadjoint = analyze_state(s, oracle="verify").coadjoint_dim
        assert coadjoint == ranks[1] == reference_symplectic_rank(s)
        if not name.startswith("near-pair"):
            assert ranks == reference_ranks(s)


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


def test_stack_with_different_kernel_pairs_per_state_equals_the_reference():
    """At n = 3 the states of one stack keep different pairs of eigenvectors
    in ker Omega: none for generic weights, one pair for weights (a, a, b)
    or (a, b, b), each its own, and all three for the maximally entangled
    state.  The stack pads every state to the union of pairs."""
    rng = np.random.default_rng(29)
    weights = [(0.45, 0.35, 0.2), (0.4, 0.4, 0.2), (0.5, 0.25, 0.25),
               (1 / 3, 1 / 3, 1 / 3), (1.0, 0.0, 0.0), (0.6, 0.4, 0.0)]
    states = [apply_local(build_state(np.diag(np.sqrt(w))),
                          random_local_unitaries((3, 3), rng=rng)) for w in weights]
    ranks = [r.as_tuple() for r in degeneracy_rank(StateStack.of(states))]
    assert ranks == [reference_ranks(s) for s in states]
    assert len({r[0] for r in ranks}) >= 4


@pytest.mark.parametrize("dims, symmetry", [
    ((2, 3, 2), DISTINGUISHABLE), ((3, 3, 3), BOSONIC), ((4, 4, 4), FERMIONIC)])
def test_kept_pairs_gather_equals_the_full_table_at_those_pairs(monkeypatch, dims,
                                                                symmetry):
    """``_pair_gather`` builds only the pair directions it is given, in
    their order, as the rows of the class's full table at those pairs:
    half of them shuffled, all of them, and the last one alone.  A second
    call with the same pairs returns the cached table."""
    monkeypatch.setattr(oracle, "_gathers", {})
    full = full_pair_gather(dims, symmetry)
    rng = np.random.default_rng(len(full))
    for chosen in (rng.permutation(len(full))[:len(full) // 2],
                   np.arange(len(full)), np.arange(len(full) - 1, len(full))):
        table = _pair_gather(dims, symmetry, chosen)
        assert np.array_equal(table, full[chosen])
        assert not table.flags.writeable
        assert _pair_gather(dims, symmetry, chosen.copy()) is table


def test_a_stack_gathers_only_the_pairs_its_states_keep(monkeypatch):
    """A (3, 3) stack of generic weights, weights (a, a, b) and weights
    (a, b, b): each party keeps pair (1, 2) in one state and pair (2, 3) in
    another, never (1, 3).  The one gather built holds the union, the
    directions 0, 1, 4 and 5 of each party, as the full table has them;
    a generic state alone gathers nothing."""
    rng = np.random.default_rng(30)
    weights = [(0.45, 0.35, 0.2), (0.4, 0.4, 0.2), (0.5, 0.25, 0.25)]
    states = [apply_local(build_state(np.diag(np.sqrt(w))),
                          random_local_unitaries((3, 3), rng=rng)) for w in weights]
    monkeypatch.setattr(oracle, "_gathers", {})
    seen, gather = [], oracle._pair_gather

    def recording(dims, symmetry, chosen):
        seen.append((chosen.copy(), gather(dims, symmetry, chosen)))
        return seen[-1][1]

    monkeypatch.setattr("orbitent.oracle._pair_gather", recording)
    ranks = [r.as_tuple() for r in degeneracy_rank(StateStack.of(states))]
    assert ranks == [reference_ranks(s) for s in states]
    [(chosen, table)] = seen
    assert chosen.tolist() == [0, 1, 4, 5, 6, 7, 10, 11]
    assert np.array_equal(table, full_pair_gather((3, 3), DISTINGUISHABLE)[chosen])
    seen.clear()
    degeneracy_rank(states[0])
    assert seen == []


def test_the_gather_cache_is_bounded_in_bytes_and_entries(monkeypatch):
    """Past either bound the least recently used tables go first."""
    dims = (2,) * 6
    monkeypatch.setattr(oracle, "_gathers", {})
    size = _pair_gather(dims, DISTINGUISHABLE, np.arange(2)).nbytes
    monkeypatch.setattr(oracle, "GATHER_CACHE_BYTES", 2 * size)
    pairs = [np.arange(q, q + 2) for q in range(0, 12, 2)]
    for chosen in pairs:
        _pair_gather(dims, DISTINGUISHABLE, chosen)
    assert [key[2] for key in oracle._gathers] == [p.tobytes() for p in pairs[-2:]]
    monkeypatch.setattr(oracle, "GATHER_CACHE_BYTES", 100 * size)
    monkeypatch.setattr(oracle, "GATHER_CACHE_ENTRIES", 3)
    for chosen in pairs[:3] + pairs[:1]:
        _pair_gather(dims, DISTINGUISHABLE, chosen)
    assert [key[2] for key in oracle._gathers] == [p.tobytes() for p in pairs[1:3] + pairs[:1]]


def test_near_bell_schmidt_weights_give_the_closed_form():
    """Schmidt weights 1/2 +- 1e-5: the metric on all of k has eigenvalues
    of order the squared gap and once read the Bell orbit (r = 3) against
    s = 4.  D is read on ker Omega, whose metric stays of order one, so the
    oracle gives the closed form's (5, 4, 1)."""
    d = 1e-5
    state = build_state(np.diag([np.sqrt(0.5 + d), np.sqrt(0.5 - d)]))
    moved = apply_local(state, random_local_unitaries((2, 2),
                                                      rng=np.random.default_rng(31)))
    for s in (state, moved):
        assert degeneracy_rank(s).as_tuple() == (5, 4, 1)
        rec = verify_against_formula(s)
        assert rec.passed and rec.observed["orbit_dim"] == 5


@pytest.mark.parametrize("n", [2, 3, 4])
def test_near_degenerate_schmidt_pair_gives_the_closed_form(n):
    """A pair gap of 1e-6 to 1e-3 of the largest weight: Omega's singular
    values are linear in it, so s reads the distinct weights, and D comes
    from the metric on ker Omega, which does not shrink with the gap.  The
    oracle decides every such state, and agrees with the closed form of
    distinct weights."""
    rng = np.random.default_rng(70 + n)
    expected = (2 * n * n - n - 1, 2 * n * n - 2 * n, n - 1)
    for _ in range(40):
        state = near_pair_schmidt_state(n, 10 ** rng.uniform(-6, -3), rng)
        assert degeneracy_rank(state).as_tuple() == expected
        report = analyze_state(state, oracle="verify")
        assert (report.orbit_dim, report.coadjoint_dim, report.degeneracy) == expected


@pytest.mark.parametrize("n", [2, 3, 4])
def test_below_the_decidable_gaps_the_oracle_refuses_or_is_right(n):
    """A pair gap of 1e-8 to 1e-6 of the largest weight lies inside the
    clustering's refusal window.  The oracle reads ker Omega off that
    clustering, so it refuses the whole band, as the closed form does."""
    rng = np.random.default_rng(80 + n)
    for _ in range(40):
        state = near_pair_schmidt_state(n, 10 ** rng.uniform(-8, -6), rng)
        with pytest.raises(AmbiguousClustering):
            degeneracy_rank(state)
        for oracle in ("off", "verify"):
            with pytest.raises(AmbiguousClustering):
                analyze_state(state, oracle=oracle)


def test_the_changes_example_reads_distinct_weights():
    """(3,3) with weights 0.3331 and 0.3331 + 1e-5: the closed form's
    (14, 12, 2), where the metric on all of k read (12, 12, 0)."""
    weights = [0.3331, 0.3331 + 1e-5]
    weights.append(1.0 - sum(weights))
    state = build_state(np.diag(np.sqrt(weights)))
    assert degeneracy_rank(state).as_tuple() == (14, 12, 2)
    assert verify_against_formula(state).passed


@pytest.mark.parametrize("coeffs", [
    2 * _basis_tensor((2, 2), (0, 0)),
    np.zeros((2, 2)),
    np.array([[np.nan, 0.0], [0.0, 1.0]])], ids=["twice-product", "zero", "nan"])
def test_degeneracy_rank_refuses_a_state_off_the_unit_sphere(coeffs):
    """The raw constructor checks shapes only; the oracle refuses a norm
    off 1 (NaN included) before any arithmetic on the state."""
    state = StateTensor((2, 2), coeffs)
    with pytest.raises(NotNormalized):
        degeneracy_rank(state)
    with pytest.raises(NotNormalized):
        degeneracy_rank(StateStack.of([bell_state(), state]))


@pytest.mark.parametrize("state, count", [
    (random_state((11, 11), rng=np.random.default_rng(3)), 20),
    (build_state(_basis_tensor((2, 2, 2), (0, 0, 0), (1, 1, 1))), 9),
    (build_state(np.eye(3)), 16)], ids=["generic-11x11", "ghz-222", "max-33"])
def test_metric_rows_span_only_the_kernel_of_omega(monkeypatch, state, count):
    """One metric row per (party, kernel direction): N - 1 Cartan
    directions per party for a generic state, and every direction of a
    party whose marginal is maximally mixed (Omega_k = 0)."""
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        seen.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr("orbitent.oracle.np.linalg.eigvalsh", recording)
    degeneracy_rank(state)
    assert seen == [(1, count, count)]


@pytest.mark.parametrize("n", [2, 3, 5])
def test_rotated_directions_are_the_su_basis_in_eigen_coordinates(n):
    """The constant directions E_q are the ``su_basis`` of su(n) in its
    order, so U E_q U^dag, U = conj(evecs), is that basis moved into an
    eigenbasis: a pair direction lies in ker Omega when its two
    eigenvalues share a block (none for n distinct eigenvalues, all for
    one block), and the gather of the pair directions moves x as the basis
    matrices do, with no dense (n^2 - 1, n, n) array; and the charge
    table holds the eigenvalue of each Cartan generator on every basis
    state, divided by i: per party for distinguishable parties, summed over
    the slots otherwise."""
    rng = np.random.default_rng(n)
    basis = np.array([el.matrix for el in su_basis((n,)).elements])
    pair_of = [tuple(np.argwhere(np.triu(el != 0, 1))[0]) for el in basis[n - 1:]]
    assert not _kept_pairs((0, (1,) * n)).any()
    assert _kept_pairs((0, (n,))).all()
    # blocks {0, ..., n - 2} and the kernel {n - 1}
    kept = _kept_pairs((1, (n - 1,)))
    assert kept.shape == (len(pair_of),)
    assert [bool(k) for k in kept] == [j < n - 1 for i, j in pair_of]
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    table = _pair_gather((n,), DISTINGUISHABLE, np.arange(n * (n - 1)))
    assert np.array_equal(np.concatenate([x, -x, 1j * x, [0]])[table[:, 0]], basis[n - 1:] @ x)
    for dims, symmetry in [((n,), DISTINGUISHABLE), ((2, n, 3), DISTINGUISHABLE),
                           ((n, n), BOSONIC), ((n,) * 3, BOSONIC)]:
        group = acting_dims(dims, symmetry)
        cartan = [mats for mats, el in zip(all_generators(StateTensor(dims, np.ones(dims),
                                                                      symmetry)),
                                           su_basis(group).elements)
                  if ".iH" in el.label]
        ones = np.ones(dims, dtype=complex)
        expected = np.array([rep_action(mats, ones).reshape(-1) / 1j for mats in cartan])
        table = _charge_table(dims, symmetry)
        assert np.array_equal(table[:-1], expected.real)
        assert np.array_equal(table[-1], np.ones(ones.size))
        assert not expected.imag.any()


def _factor_offsets(dims):
    offsets = np.cumsum([0, *(n * n - 1 for n in dims)])
    return list(zip(offsets[:-1], offsets[1:]))


@pytest.mark.parametrize("dims", [(2, 3, 4), (3, 3, 3), (2,) * 6])
def test_cross_factor_blocks_of_the_overlap_vanish(dims):
    """Generators of different parties commute, so A_a^dag B_b is Hermitian
    and Im<A_a v|B_b v> = 0: Omega is block diagonal, one block per party."""
    state = random_state(dims, rng=np.random.default_rng(len(dims)))
    rows = all_rows(state)
    im = (rows.conj() @ rows.T).imag
    for k, (a, b) in enumerate(_factor_offsets(dims)):
        for l, (c, d) in enumerate(_factor_offsets(dims)):
            if k != l:
                assert np.abs(im[a:b, c:d]).max() <= 1e-14
            else:
                assert np.abs(im[a:b, c:d]).max() > 1e-3


def split_cases():
    """States whose acting factors are split into dim groups: equal dims
    that are not adjacent, and factors in different strata."""
    rng = np.random.default_rng(41)
    return [
        ("generic-232", random_state((2, 3, 2), rng=rng)),
        ("generic-3232", random_state((3, 2, 3, 2), rng=rng)),
        ("generic-234", random_state((2, 3, 4), rng=rng)),
        # parties 1-2 maximally mixed, party 3 pure: a kernel of 2
        ("bell-x-qutrit", build_state(_basis_tensor((2, 2, 3), (0, 0, 1), (1, 1, 1)))),
        ("bell-13-x-qutrit", build_state(_basis_tensor((2, 3, 2), (0, 2, 0), (1, 2, 1)))),
    ]


@pytest.mark.parametrize("name", [name for name, _ in split_cases()])
def test_split_symplectic_rank_equals_the_projected_frame_reference(name):
    state = dict(split_cases())[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    moved = apply_local(state, random_local_unitaries(state.dims, rng=rng))
    for s in (state, moved):
        assert degeneracy_rank(s).as_tuple() == reference_ranks(s)


def test_bell_times_qutrit_adds_the_factor_ranks():
    """rho_1 = rho_2 = I/2 are fixed by SU(2), so only the qutrit's KKS
    form counts: its orbit through a rank-one projector is CP^2, s = 4."""
    state = dict(split_cases())["bell-x-qutrit"]
    assert degeneracy_rank(state).as_tuple() == (7, 4, 3)


def test_split_stack_of_mixed_orbit_ranks_equals_the_reference():
    rng = np.random.default_rng(43)
    dims = (2, 3, 2)
    states = [build_state(_basis_tensor(dims, (0, 0, 0))),
              build_state(_basis_tensor(dims, (0, 2, 0), (1, 2, 1))),
              build_state(_basis_tensor(dims, (0, 0, 0), (1, 1, 1))),
              random_state(dims, rng=rng)]
    states = [apply_local(s, random_local_unitaries(dims, rng=rng)) for s in states]
    ranks = [r.as_tuple() for r in degeneracy_rank(StateStack.of(states))]
    assert ranks == [reference_ranks(s) for s in states]
    assert len({r[0] for r in ranks}) == 4


@pytest.mark.parametrize("dims, symmetry, shapes", [
    ((11, 11), DISTINGUISHABLE, [(1, 2, 11, 11)]),
    ((2, 3, 2), DISTINGUISHABLE, [(1, 1, 3, 3), (1, 2, 2, 2)]),
    ((3, 3), BOSONIC, [(1, 2, 3, 3)]),
], ids=["11x11", "2x3x2", "bosons-3x3"])
def test_symplectic_rank_takes_one_eigh_per_factor_dim(monkeypatch, dims, symmetry,
                                                       shapes):
    """The stacked marginals of each party dim, never a form on k: no SVD
    and no su(N) basis.  ``analyze_state(oracle="verify")`` shares that
    ``eigh`` between the report and the oracle: its only ``eigvalsh`` is
    the metric's, none of the marginals."""
    state = random_state(dims, symmetry, rng=np.random.default_rng(47))
    seen, metrics = [], []
    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

    def recording_eigh(a, *args, **kwargs):
        seen.append(a.shape)
        return eigh(a, *args, **kwargs)

    def recording_eigvalsh(a, *args, **kwargs):
        metrics.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    def unreached(*args, **kwargs):
        raise AssertionError("an SVD taken or an su(N) basis built")

    monkeypatch.setattr("orbitent.oracle.np.linalg.eigh", recording_eigh)
    monkeypatch.setattr("orbitent.oracle.np.linalg.eigvalsh", recording_eigvalsh)
    monkeypatch.setattr("orbitent.oracle.np.linalg.svd", unreached)
    monkeypatch.setattr("orbitent.lie.su_basis", unreached)
    ranks = degeneracy_rank(state)
    assert sorted(seen) == shapes
    seen.clear(), metrics.clear()
    report = analyze_state(state, oracle="verify")
    assert sorted(seen) == shapes
    assert len(metrics) == 1  # the metric's
    assert report.oracle["orbit_dim"] == ranks.orbit_dim


def diagonal_marginal_state(dims, symmetry):
    """A state whose every marginal is diagonal with distinct weights in
    the standard basis: sum_i c_i |i ... i>, or, for fermions, c_i times
    the Slater pair (2i, 2i + 1)."""
    coeffs = np.zeros(dims, dtype=complex)
    if symmetry == FERMIONIC:
        for i, c in enumerate(np.arange(dims[0] // 2, 0, -1)):
            coeffs[2 * i, 2 * i + 1], coeffs[2 * i + 1, 2 * i] = c, -c
    else:
        for i, c in enumerate(np.arange(min(dims), 0, -1)):
            coeffs[(i,) * len(dims)] = c
    return build_state(coeffs, symmetry)


def kernel_coordinates(stack, eigenbases):
    """The kernel generators X_j = U E_q U^dag of ``_kernel_metric``, in its
    order, as real coordinates on the basis generators of ``all_rows``:
    (B, J, G).  The Cartan directions of every factor come first, then, per
    party with parties grouped by dim, the pairs inside one block in any
    state of the stack; a state whose own pair straddles two blocks gets a
    zero row there."""
    vectors, clusterings = eigenbases
    group = acting_dims(stack.dims, stack.symmetry)
    offsets = _factor_offsets(group)
    cartan, pairs = [], []
    for n in dict.fromkeys(group):
        parties = [k for k, m in enumerate(group) if m == n]
        basis = np.array([el.matrix for el in su_basis((n,)).elements])
        flat = np.concatenate([basis.real, basis.imag], axis=1).reshape(len(basis), -1)
        # the Cartan directions always lie in ker Omega, then the kept pairs
        keep = np.array([[np.concatenate([np.ones(n - 1, dtype=bool),
                                          _kept_pairs(c[k].profile())])
                          for k in parties] for c in clusterings])
        own = keep.any(axis=0)
        for p, k in enumerate(parties):
            u = vectors[n].reshape(len(stack), -1, n, n)[:, p].conj()
            x = u[:, None] @ basis @ u.conj().swapaxes(-1, -2)[:, None]
            flat_x = np.concatenate([x.real, x.imag], axis=2).reshape(*x.shape[:2], -1)
            local = np.linalg.lstsq(flat.T, flat_x.reshape(-1, flat.shape[1]).T,
                                    rcond=None)[0].T.reshape(*x.shape[:2], len(basis))
            local *= keep[:, p, :, None]
            coords = np.zeros((len(stack), len(basis), offsets[-1][1]))
            coords[..., offsets[k][0]:offsets[k][1]] = local
            cartan.append((k, coords[:, :n - 1]))
            pairs.append(coords[:, n - 1:][:, own[p, n - 1:]])
    cartan = [c for _, c in sorted(cartan, key=lambda item: item[0])]
    return np.concatenate(cartan + pairs, axis=1)


@pytest.mark.parametrize("dims, symmetry, count", [
    ((3, 5), DISTINGUISHABLE, 1), ((2, 3, 2), DISTINGUISHABLE, 1),
    ((3, 3, 3), BOSONIC, 1), ((4, 4), FERMIONIC, 1),
    ((2, 2, 2), DISTINGUISHABLE, 5)])
def test_kks_forms_and_real_view_metric_equal_the_overlap(dims, symmetry, count):
    """The oracle's metric against the complex overlap O = conj(R) R^T of
    the generator rows: on the kernel generators X_j, with real coordinates
    C on the basis generators, it is C (sym(Re O) - alpha alpha^T) C^T;
    every kernel generator pairs to zero with each basis generator under
    Omega = antisym(-Im O), and s is the rank of Omega; and where the
    marginals are diagonal, Omega's block on factor k has the singular
    values M_k |lambda_i - lambda_j| of the pairs i < j, each twice, and
    the N_k - 1 zeros of the Cartan directions, with M_k = M for
    indistinguishable particles.  The 5 kernel of (3, 5) and the paired
    spectrum of two fermions give pair rows."""
    rng = np.random.default_rng(53)
    stack = StateStack.of([random_state(dims, symmetry, rng=rng)
                           for _ in range(count)])
    rows = all_rows(stack)
    overlap = rows.conj() @ rows.swapaxes(-1, -2)
    alpha = (rows @ stack.coeffs.reshape(count, -1, 1).conj()).imag
    scale = np.abs(overlap).max()

    gram = (overlap.real + overlap.real.swapaxes(-1, -2)) / 2.0
    gram -= alpha * alpha.swapaxes(-1, -2)
    eigenbases = marginal_eigenbases(reduced_matrices(stack))
    coords = kernel_coordinates(stack, eigenbases)
    symplectic, metric = _kernel_metric(stack, eigenbases)
    assert np.abs(metric - coords @ gram @ coords.swapaxes(-1, -2)).max() <= 1e-14 * scale
    if symmetry == FERMIONIC or dims == (3, 5):
        assert metric.shape[-1] > sum(n - 1 for n in acting_dims(dims, symmetry))

    omega = (overlap.imag.swapaxes(-1, -2) - overlap.imag) / 2.0
    assert np.abs(coords @ omega).max() <= 1e-14 * scale
    assert symplectic == [np.linalg.matrix_rank(w, tol=1e-8 * scale) for w in omega]

    state = diagonal_marginal_state(dims, symmetry)
    rows = all_rows(state)
    omega = -(rows.conj() @ rows.T).imag
    group = acting_dims(dims, symmetry)
    weight = 1 if symmetry == DISTINGUISHABLE else len(dims)
    marginals = reduced_matrices(state).matrices
    for k, (a, b) in enumerate(_factor_offsets(group)):
        lam = weight * np.diagonal(marginals[k]).real
        assert np.abs(marginals[k] - np.diag(lam / weight)).max() <= 1e-15
        gaps = np.abs(np.subtract.outer(lam, lam))[np.triu_indices(len(lam), 1)]
        expected = np.sort(np.concatenate([gaps, gaps, np.zeros(len(lam) - 1)]))
        sing = np.sort(np.linalg.svd(omega[a:b, a:b], compute_uv=False))
        assert np.abs(sing - expected).max() <= 1e-14


def test_degeneracy_rank_reuses_the_eigenbases_it_is_given(monkeypatch):
    """A caller that holds the stack's eigenbases and clusterings passes them
    in, and the oracle builds its kernel from them: no reduced matrices and
    no ``eigh`` of its own.  A clustering at a coarser tolerance reads the
    stratum it names."""
    rng = np.random.default_rng(61)
    stack = StateStack.of([random_state((2, 3, 2), rng=rng) for _ in range(4)])
    expected = [r.as_tuple() for r in degeneracy_rank(stack)]
    eigenbases = marginal_eigenbases(reduced_matrices(stack))
    near = near_pair_schmidt_state(3, 1e-5, rng)
    coarse = marginal_eigenbases(reduced_matrices(near), 1e-3)

    def refuse(*args, **kwargs):
        raise AssertionError("marginals read or diagonalized again")

    monkeypatch.setattr("orbitent.oracle.reduced_matrices", refuse)
    monkeypatch.setattr("orbitent.oracle.marginal_eigenbases", refuse)
    monkeypatch.setattr("orbitent.oracle.np.linalg.eigh", refuse)
    assert [r.as_tuple() for r in degeneracy_rank(stack, eigenbases=eigenbases)] == expected
    assert degeneracy_rank(near, eigenbases=coarse).as_tuple() == (12, 8, 4)


def named_states():
    """The named strata where the charge covariance and the pair rows meet,
    as (name, state, (r, s, D)), up to eight parties."""
    table = []
    for m in (3, 4, 6, 8):
        table.append((f"ghz-{m}", build_state(_basis_tensor((2,) * m, (0,) * m, (1,) * m)),
                      (2 * m + 1, 0, 2 * m + 1)))
        ones = [tuple(int(j == i) for j in range(m)) for i in range(m)]
        table.append((f"w-{m}", build_state(_basis_tensor((2,) * m, *ones)),
                      (3 * m - 1, 2 * m, m - 1)))
    table.append(("ghz-14", build_state(_basis_tensor((2,) * 14, (0,) * 14, (1,) * 14)),
                  (29, 0, 29)))
    table.append(("plus-13", build_state(np.ones((2,) * 13)), (26, 26, 0)))
    cluster = _basis_tensor((2,) * 4, (0, 0, 0, 0), (0, 0, 1, 1), (1, 1, 0, 0))
    cluster[1, 1, 1, 1] = -1
    bells = [(a, a, b, b) for a in (0, 1) for b in (0, 1)]
    return table + [
        ("cluster-4", build_state(cluster), (10, 0, 10)),
        ("bell-x-bell", build_state(_basis_tensor((2,) * 4, *bells)), (6, 0, 6)),
        ("ghz-3-in-333", build_state(_basis_tensor((3, 3, 3), (0, 0, 0), (1, 1, 1))),
         (19, 12, 7)),
        ("dicke-112", symmetrize(_basis_tensor((3, 3, 3), (0, 0, 1)), BOSONIC), (6, 6, 0)),
        ("slater-12", symmetrize(_basis_tensor((3, 3), (0, 1)), FERMIONIC), (4, 4, 0)),
    ]


@pytest.mark.parametrize("name", [name for name, _, _ in named_states()])
def test_named_states_after_a_local_unitary(name):
    """Each named state after a random local SU (one block on every slot
    for indistinguishable particles), alone and stacked with itself
    unrotated; and its report, whose formulas the oracle meets and which
    finds the state separable exactly where D = 0.  GHZ_14 and the
    product |+>^13 lie past dim H 4096, where the oracle once refused."""
    state, expected = {n: (s, e) for n, s, e in named_states()}[name][:2]
    rng = np.random.default_rng(sum(map(ord, name)))
    moved = apply_local(state, random_local_unitaries(state.dims, state.symmetry, rng=rng))
    assert degeneracy_rank(moved).as_tuple() == expected
    assert [r.as_tuple() for r in degeneracy_rank(StateStack.of([moved, state]))] == [expected] * 2
    report = analyze_state(moved, oracle="verify")
    assert report.consistency.passed and report.separable is (expected[2] == 0)
