"""Algebra bases, weights, sl2 triples, and the symplecticity criterion."""

import functools
import itertools

import numpy as np
import pytest

from orbitent import (
    BOSONIC,
    DISTINGUISHABLE,
    FERMIONIC,
    DimensionMismatch,
    EnumerationTooLarge,
    NotAWeightVector,
    StateStack,
    WeightVector,
    build_state,
    cartan_basis,
    degeneracy_rank,
    highest_weight_vector,
    kostant_sternberg_check,
    random_state,
    rep_action,
    sl2_triples,
    su_basis,
    weight_table,
)
from orbitent.states import check_dims


@pytest.mark.parametrize("dims,count", [((2,), 3), ((2, 2), 6), ((3,), 8)])
def test_su_basis_counts(dims, count):
    assert len(su_basis(dims)) == count


def test_su_basis_elements_antihermitian_traceless():
    basis = su_basis((2, 3, 4))
    assert len(basis) == 3 + 8 + 15
    for el in basis.elements:
        m = el.matrix
        assert np.allclose(m, -m.conj().T)
        assert abs(np.trace(m)) < 1e-14


def test_su_basis_cartan_elements_commute():
    basis = su_basis((4,))
    cartan = [el.matrix for el in basis.elements[:3]]
    for a, b in itertools.combinations(cartan, 2):
        assert np.allclose(a @ b - b @ a, 0)


def test_su_basis_rejects_dim_one():
    for _ in range(2):  # bad dims never reach the cache
        with pytest.raises(DimensionMismatch):
            su_basis((1, 2))


def test_sl2_triples_bracket_identities_exact():
    for triple in sl2_triples((3, 4)):
        e, f, h = triple.raising, triple.lowering, triple.coroot
        assert np.array_equal(h @ e - e @ h, 2 * e)
        assert np.array_equal(h @ f - f @ h, -2 * f)
        assert np.array_equal(e @ f - f @ e, h)


def test_rep_action_leibniz_on_product_state():
    rng = np.random.default_rng(2)
    z1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    z2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    v1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    state = np.tensordot(v1, v2, axes=0)
    state = build_state(state)
    out = rep_action((z1, z2), state)
    expected = (np.tensordot(z1 @ v1, v2, axes=0)
                + np.tensordot(v1, z2 @ v2, axes=0)) / state_norm(v1, v2)
    assert np.allclose(out, expected)


def state_norm(v1, v2):
    return np.linalg.norm(np.tensordot(v1, v2, axes=0))


def test_rep_action_diagonal_cartan_on_symmetric_pair():
    h = np.diag([1.0, -1.0])
    e11 = np.zeros((2, 2)); e11[0, 0] = 1
    state = build_state(e11, BOSONIC)
    out = rep_action(h, state)
    assert np.allclose(out, 2 * state.coeffs)


def test_rep_action_on_zero_tensor_is_zero():
    z = np.zeros((2, 2))
    out = rep_action((np.eye(2), np.eye(2)), z)
    assert not out.any()


def kron_generator(mats, dims):
    """Dense sum_k I (x) ... (x) A_k (x) ... (x) I, built with np.kron."""
    total = 0
    for k, m in enumerate(mats):
        if m is not None:
            total = total + functools.reduce(np.kron, [
                m if j == k else np.eye(n, dtype=m.dtype) for j, n in enumerate(dims)])
    return total


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


KRON_POSITIONS = [(dims, k) for dims in [(2,) * 6, (3, 5), (4, 4, 4), (5,)]
                  for k in range(len(dims))]


@pytest.mark.parametrize("dims,k", KRON_POSITIONS)
def test_rep_action_matches_kronecker_at_every_party(dims, k):
    rng = np.random.default_rng(k)
    state = build_state(complex_normal(rng, dims))
    mats = [None] * len(dims)
    mats[k] = complex_normal(rng, (dims[k], dims[k]))
    expected = kron_generator(mats, dims) @ state.coeffs.reshape(-1)
    out = rep_action(tuple(mats), state)
    assert out.shape == dims
    assert np.allclose(out.reshape(-1), expected, atol=1e-14)
    # the same party of a 3-state stack, the stack axis in front
    states = [state] + [build_state(complex_normal(rng, dims)) for _ in range(2)]
    out = rep_action(tuple(mats), StateStack.of(states))
    assert out.shape == (3, *dims)
    dense = kron_generator(mats, dims)
    for b, s in enumerate(states):
        assert np.allclose(out[b].reshape(-1), dense @ s.coeffs.reshape(-1),
                           atol=1e-14)


def test_rep_action_diagonal_matches_kronecker_on_bosons():
    rng = np.random.default_rng(4)
    state = random_state((3, 3, 3), BOSONIC, rng=rng)
    a = complex_normal(rng, (3, 3))
    expected = kron_generator([a] * 3, (3, 3, 3)) @ state.coeffs.reshape(-1)
    assert np.allclose(rep_action(a, state).reshape(-1), expected, atol=1e-14)


def test_rep_action_on_non_contiguous_tensor():
    rng = np.random.default_rng(6)
    coeffs = complex_normal(rng, (2, 4, 3)).transpose(2, 0, 1)
    assert not coeffs.flags.c_contiguous
    mats = [complex_normal(rng, (n, n)) for n in coeffs.shape]
    expected = kron_generator(mats, coeffs.shape) @ coeffs.reshape(-1)
    out = rep_action(tuple(mats), coeffs)
    assert np.allclose(out.reshape(-1), expected, atol=1e-14)


def test_rep_action_integer_generator_is_exact():
    rng = np.random.default_rng(8)
    dims = (3, 2, 4)
    coeffs = rng.integers(-5, 6, size=dims)
    mats = [None, rng.integers(-3, 4, size=(2, 2)),
            rng.integers(-3, 4, size=(4, 4))]
    expected = kron_generator(mats, dims) @ coeffs.reshape(-1)
    out = rep_action(tuple(mats), coeffs)
    assert out.dtype == np.int64
    assert np.array_equal(out.reshape(-1), expected)


def test_su_basis_is_shared_per_dims():
    first, second = su_basis((2, 3)), su_basis([2, 3])
    assert first.dims == second.dims == (2, 3)
    for a, b in zip(first.elements, second.elements, strict=True):
        assert (a.party, a.label) == (b.party, b.label)
        assert np.array_equal(a.matrix, b.matrix)


def test_su_basis_matrices_are_read_only():
    el = su_basis((2, 3)).elements[0]
    with pytest.raises(ValueError):
        el.matrix[0, 0] = 5


def test_weight_table_two_qubits():
    table = weight_table((2, 2))
    weights = sorted(w.weight for w in table)
    assert weights == [(-1, -1), (-1, 1), (1, -1), (1, 1)]


def test_weight_table_sym2_c3():
    table = {w.label: w.weight for w in weight_table((3, 3), BOSONIC)}
    assert len(table) == 6
    # doubled indices carry weight 2 L_i, pairs L_i + L_j, over (H1, H2)
    assert table["e1.e1"] == (2, 0)
    assert table["e2.e2"] == (-2, 2)
    assert table["e3.e3"] == (0, -2)
    assert table["e1.e2"] == (0, 1)
    assert table["e1.e3"] == (1, -1)
    assert table["e2.e3"] == (-1, 0)


def test_weight_table_wedge2_c3():
    table = weight_table((3, 3), FERMIONIC)
    assert len(table) == 3
    labels = {w.label for w in table}
    assert labels == {"e1^e2", "e1^e3", "e2^e3"}


def test_weight_vectors_are_exact_cartan_eigenvectors():
    for dims, sym in [((2, 3), DISTINGUISHABLE), ((3, 3), BOSONIC),
                      ((4, 4), FERMIONIC)]:
        cartans = cartan_basis(dims if sym == DISTINGUISHABLE else (dims[0],))
        for w in weight_table(dims, sym):
            for lam, gen in zip(w.weight, cartans):
                if sym == DISTINGUISHABLE:
                    mats = [None] * len(dims)
                    mats[gen.party] = gen.matrix
                    image = rep_action(tuple(mats), w.int_coeffs)
                else:
                    image = rep_action(
                        gen.matrix.astype(np.int64), w.int_coeffs)
                assert np.array_equal(image, lam * w.int_coeffs)


def test_weight_table_enumeration_guard():
    with pytest.raises(EnumerationTooLarge):
        weight_table((2,) * 21)


@pytest.mark.parametrize("parties", [63, 64])
def test_enumeration_guard_counts_sizes_exactly(parties):
    # the int64 product of these dims wraps to a negative number or zero
    with pytest.raises(EnumerationTooLarge, match=str(2**parties)):
        weight_table((2,) * parties)


def test_weight_spaces_share_one_guard():
    for enumerate_space in (weight_table, highest_weight_vector):
        with pytest.raises(DimensionMismatch, match="is trivial"):
            enumerate_space((2, 2, 2), FERMIONIC)
        with pytest.raises(DimensionMismatch):
            enumerate_space((2, 3), BOSONIC)
        with pytest.raises(EnumerationTooLarge):
            enumerate_space((2,) * 21)


@pytest.mark.parametrize("dims, symmetry", [
    ((1, 2), DISTINGUISHABLE), ((2, 3), BOSONIC), ((2,) * 22, FERMIONIC)])
def test_weight_spaces_apply_the_states_dims_rule(dims, symmetry):
    """The error of states.check_dims, ahead of the enumeration guard."""
    with pytest.raises(DimensionMismatch) as rule:
        check_dims(dims, symmetry)
    for enumerate_space in (weight_table, highest_weight_vector):
        with pytest.raises(DimensionMismatch, match=str(rule.value)):
            enumerate_space(dims, symmetry)


def test_highest_weight_vectors():
    assert highest_weight_vector((2, 2)).label == "e1*e1"
    assert highest_weight_vector((3, 3), BOSONIC).label == "e1.e1"
    assert highest_weight_vector((4, 4), FERMIONIC).label == "e1^e2"
    hw3 = highest_weight_vector((4, 4, 4), FERMIONIC)
    assert hw3.label == "e1^e2^e3"


def test_ks_two_qubit_weight_vectors_symplectic():
    for w in weight_table((2, 2)):
        assert kostant_sternberg_check(w).symplectic


def test_ks_sym2_pair_not_symplectic_with_witness():
    table = {w.label: w for w in weight_table((3, 3), BOSONIC)}
    verdict = kostant_sternberg_check(table["e1.e2"])
    assert not verdict.symplectic
    assert (verdict.witness.i, verdict.witness.j) == (0, 1)


def test_ks_wedge2_c4_all_symplectic():
    for w in weight_table((4, 4), FERMIONIC):
        assert kostant_sternberg_check(w).symplectic


def test_ks_rejects_non_weight_vector():
    w = weight_table((2, 2))[0]
    fake = WeightVector(
        label="e1*e1+e2*e2",
        weight=w.weight,
        state=build_state(np.eye(2)),
        int_coeffs=np.eye(2, dtype=np.int64),
    )
    with pytest.raises(NotAWeightVector):
        kostant_sternberg_check(fake)


def test_ks_highest_weight_symplectic_all_classes_dims_to_4():
    for n in (2, 3, 4):
        for m in (2, 3):
            assert kostant_sternberg_check(
                highest_weight_vector((n,) * m)).symplectic
            assert kostant_sternberg_check(
                highest_weight_vector((n,) * m, BOSONIC)).symplectic
            if m <= n:
                assert kostant_sternberg_check(
                    highest_weight_vector((n,) * m, FERMIONIC)).symplectic


KS_ORACLE_SPACES = [
    ((2, 2), DISTINGUISHABLE),   # dim 4
    ((2, 3), DISTINGUISHABLE),   # dim 6
    ((3, 3), DISTINGUISHABLE),   # dim 9
    ((2, 4), DISTINGUISHABLE),   # dim 8
    ((2, 2, 2), DISTINGUISHABLE),  # dim 8
    ((2, 2, 3), DISTINGUISHABLE),  # dim 12
    ((2, 2, 2, 2), DISTINGUISHABLE),  # dim 16
    ((3, 3), BOSONIC),           # Sym^2 C^3, dim 6
    ((4, 4), BOSONIC),           # Sym^2 C^4, dim 10
    ((5, 5), BOSONIC),           # Sym^2 C^5, dim 15
    ((2, 2, 2), BOSONIC),        # Sym^3 C^2, dim 4
    ((3, 3, 3), BOSONIC),        # Sym^3 C^3, dim 10
    ((4, 4), FERMIONIC),         # Wedge^2 C^4, dim 6
    ((5, 5), FERMIONIC),         # Wedge^2 C^5, dim 10
    ((6, 6), FERMIONIC),         # Wedge^2 C^6, dim 15
    ((4, 4, 4), FERMIONIC),      # Wedge^3 C^4, dim 4
    ((5, 5, 5), FERMIONIC),      # Wedge^3 C^5, dim 10
]


@pytest.mark.parametrize("dims,sym", KS_ORACLE_SPACES)
def test_ks_agrees_with_oracle_degeneracy(dims, sym):
    """Symplectic verdict at a weight vector is exactly the oracle's D = 0."""
    for w in weight_table(dims, sym):
        verdict = kostant_sternberg_check(w)
        rank = degeneracy_rank(w.state)
        assert verdict.symplectic == (rank.degeneracy == 0), (
            f"{dims} {sym} {w.label}: KS {verdict.verdict} vs D = "
            f"{rank.degeneracy}")


@pytest.mark.parametrize("dims, symmetry", [
    ((2, 3, 2), DISTINGUISHABLE), ((3, 3), BOSONIC), ((4, 4, 4), FERMIONIC)])
def test_rep_action_on_a_stack_acts_on_each_state(dims, symmetry):
    rng = np.random.default_rng(14)
    states = [random_state(dims, symmetry, rng=rng) for _ in range(5)]
    stack = StateStack.of(states)
    group = dims if symmetry == DISTINGUISHABLE else dims[:1]
    for el in su_basis(group).elements:
        mats = (el.matrix,) * len(dims) if symmetry != DISTINGUISHABLE else tuple(
            el.matrix if k == el.party else None for k in range(len(dims)))
        out = rep_action(mats, stack)
        assert out.shape == (5, *dims)
        for b, state in enumerate(states):
            # one nonzero per basis-matrix row: every entry is one exact product
            assert np.array_equal(out[b], rep_action(mats, state))
    z = rng.standard_normal((dims[0],) * 2) + 1j * rng.standard_normal((dims[0],) * 2)
    if symmetry != DISTINGUISHABLE:
        out = rep_action(z, stack)
        for b, state in enumerate(states):
            assert np.allclose(out[b], rep_action(z, state), rtol=0, atol=1e-14)


def _random_blocks(rng, lead, n):
    shape = (*np.atleast_1d(lead), n, n)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_rep_action_refuses_a_block_stack_of_another_length():
    """``rep_action`` takes one N_k x N_k matrix per acting party; a block
    of one matrix per state is refused, whatever the stack's length."""
    rng = np.random.default_rng(16)
    stack = StateStack.of([random_state((2, 3), rng=rng) for _ in range(3)])
    for count in (2, 3, 4):
        with pytest.raises(DimensionMismatch, match=r"expected \(3, 3\)$"):
            rep_action((None, _random_blocks(rng, count, 3)), stack)
    with pytest.raises(DimensionMismatch):
        rep_action((None, _random_blocks(rng, 1, 3)), stack[0])
