"""State construction, local action, and symmetrization."""

import functools
import re

import numpy as np
import pytest

from orbitent import (
    BOSONIC,
    DISTINGUISHABLE,
    FERMIONIC,
    DimensionMismatch,
    LocalUnitaryTuple,
    StateStack,
    StateTensor,
    SymmetryViolation,
    ZeroState,
    apply_local,
    build_state,
    random_local_unitaries,
    random_product_state,
    random_state,
    special_unitary,
    su_basis,
    symmetrize,
)
from orbitent.states import check_dims, local_product, party_rows

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


BAD_DIMS = [
    ((2, 0), DISTINGUISHABLE, "every local dimension must be >= 2"),
    ((1, 2), DISTINGUISHABLE, "every local dimension must be >= 2"),
    ((), DISTINGUISHABLE, "a state needs at least one party"),
    ((2, 3), BOSONIC, "share one single-particle space"),
    ((2, 2, 2), FERMIONIC, "3 particles in dimension 2 is trivial"),
    ((4,) * 5, FERMIONIC, "5 particles in dimension 4 is trivial"),
]


@pytest.mark.parametrize("dims, symmetry, message", BAD_DIMS)
def test_one_dims_rule_raises_before_any_arithmetic(monkeypatch, dims, symmetry,
                                                    message):
    """build_state, symmetrize, random_state and the raw constructor all
    refuse these dims with the same DimensionMismatch, before the input is
    scaled, projected or drawn (the generator's state does not move)."""
    def no_arithmetic(*args):
        raise AssertionError("arithmetic on refused dims")

    monkeypatch.setattr("orbitent.states._prescale", no_arithmetic)
    rng = np.random.default_rng(0)
    drawn = rng.bit_generator.state
    raw = np.full(dims, np.nan)
    for make in (lambda: check_dims(dims, symmetry),
                 lambda: build_state(raw, symmetry),
                 lambda: symmetrize(raw, symmetry),
                 lambda: random_state(dims, symmetry, rng=rng),
                 lambda: StateTensor(dims, raw, symmetry)):
        with pytest.raises(DimensionMismatch, match=message):
            make()
    assert rng.bit_generator.state == drawn


@pytest.mark.parametrize("dims, message", [
    ((2.5, 3), "must be an integer, got 2.5"),
    (("3", 2), "must be an integer, got '3'"),
    ((2, True), "must be an integer, got True"),
    ((2, -1), "must be >= 2"),
], ids=["float", "string", "bool", "negative"])
def test_dims_must_be_integers_before_any_draw(dims, message):
    """A non-integral entry is refused, not truncated or parsed, by every
    entry point, and nothing is drawn from the generator."""
    rng = np.random.default_rng(0)
    drawn = rng.bit_generator.state
    for make in (lambda: check_dims(dims),
                 lambda: random_state(dims, rng=rng),
                 lambda: random_product_state(dims, rng=rng),
                 lambda: su_basis(dims)):
        with pytest.raises(DimensionMismatch, match=message):
            make()
    assert rng.bit_generator.state == drawn


def test_integral_floats_and_numpy_ints_are_dims():
    assert check_dims((2.0, np.int64(3), np.float64(4.0))) == (2, 3, 4)


def test_unknown_symmetry_class_is_refused_before_any_arithmetic():
    with pytest.raises(ValueError, match="unknown symmetry class"):
        build_state(np.zeros((2, 2)), "anyonic")


@pytest.mark.parametrize("dims, symmetry, error, message", [
    ((0,), DISTINGUISHABLE, DimensionMismatch, "every local dimension must be >= 2"),
    ((1,), DISTINGUISHABLE, DimensionMismatch, "every local dimension must be >= 2"),
    ((2, 3), BOSONIC, DimensionMismatch, "share one single-particle space"),
    ((2, 2), "weird", ValueError, "unknown symmetry class"),
], ids=["zero", "one", "bosons-2x3", "weird"])
def test_random_local_unitaries_apply_the_dims_rule(dims, symmetry, error, message):
    """The same refusal random_state gives, before anything is drawn."""
    rng = np.random.default_rng(0)
    drawn = rng.bit_generator.state
    for draw in (random_state, random_local_unitaries):
        with pytest.raises(error, match=message):
            draw(dims, symmetry, rng=rng)
    assert rng.bit_generator.state == drawn


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


def test_apply_local_matches_kronecker_product():
    rng = np.random.default_rng(19)
    states = [random_state(dims, rng=rng)
              for dims in [(2,) * 6, (3, 5), (4, 4, 4), (5,)]]
    raw = rng.normal(size=(3, 2, 4)) + 1j * rng.normal(size=(3, 2, 4))
    states.append(build_state(np.asfortranarray(raw)))
    assert states[-1].coeffs.flags.f_contiguous
    for state in states:
        g = random_local_unitaries(state.dims, rng=rng)
        dense = functools.reduce(np.kron, g.blocks)
        out = apply_local(state, g).coeffs.reshape(-1)
        assert np.allclose(out, dense @ state.coeffs.reshape(-1),
                           rtol=0.0, atol=1e-13)


def per_party_product(coeffs, blocks):
    """Each state of a (B, *dims) stack with party axis k contracted with
    the rows of ``blocks[k]``, (N_k, N_k) or (B, N_k, N_k), by one
    ``tensordot`` per party axis."""
    out = []
    for b, v in enumerate(coeffs):
        for k, u in enumerate(blocks):
            v = np.moveaxis(np.tensordot(v, u if u.ndim == 2 else u[b], axes=(k, 0)), -1, k)
        out.append(v)
    return np.array(out)


@pytest.mark.parametrize("dims", [
    (5,), (2, 2), (2, 3, 4), (3, 5), (2,) * 3, (2,) * 9, (3, 3, 3), (6, 6, 6)])
def test_local_product_matches_a_product_per_party(dims):
    """Runs of slots fuse while their dims multiply to at most FUSED_DIM
    ((2,)^3 to exactly 8); on both sides of that bound the one product per
    run equals a product per party, for blocks shared by the stack and for
    one block per state."""
    rng = np.random.default_rng(len(dims) * 100 + sum(dims))
    coeffs = np.array([random_state(dims, rng=rng).coeffs for _ in range(3)])
    tuples = [random_local_unitaries(dims, rng=rng).blocks for _ in range(3)]
    shared = tuples[0]
    stacked = [np.array(blocks) for blocks in zip(*tuples)]
    for blocks in (shared, stacked):
        got = local_product(coeffs, blocks)
        assert got.shape == coeffs.shape
        assert np.allclose(got, per_party_product(coeffs, blocks), rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("symmetry", [BOSONIC, FERMIONIC])
def test_apply_local_on_particles_matches_a_product_per_party(symmetry):
    rng = np.random.default_rng(23)
    state = random_state((3, 3, 3), symmetry, rng=rng)
    g = random_local_unitaries((3, 3, 3), symmetry, rng=rng)
    out = apply_local(state, g)
    want = per_party_product(state.coeffs[None], [b.T for b in g.blocks])[0]
    assert np.allclose(out.coeffs, want, rtol=0.0, atol=1e-13)
    assert build_state(out.coeffs, symmetry).symmetry == symmetry


@pytest.mark.parametrize("dims, symmetry", [
    ((5,), DISTINGUISHABLE), ((3, 3), DISTINGUISHABLE), ((2, 3, 4), DISTINGUISHABLE),
    ((2,) * 9, DISTINGUISHABLE), ((64, 64), DISTINGUISHABLE), ((3, 3, 3), FERMIONIC)])
def test_apply_local_wraps_its_product_without_a_second_copy(monkeypatch, dims, symmetry):
    """The product is fresh, so the state holds it as it is: read-only,
    C-contiguous, complex, with the bits of the product, and neither the
    constructor's copy nor its dims check runs."""
    rng = np.random.default_rng(sum(dims))
    state = random_state(dims, symmetry, rng=rng)
    g = random_local_unitaries(dims, symmetry, rng=rng)
    want = local_product(state.coeffs[None], [b.T for b in g.blocks])[0]

    def unreached(*args, **kwargs):
        raise AssertionError("the constructor copied and checked the product")

    monkeypatch.setattr("orbitent.states._store_coeffs", unreached)
    out = apply_local(state, g)
    assert (out.dims, out.symmetry) == (state.dims, symmetry)
    flags = out.coeffs.flags
    assert flags.c_contiguous and not flags.writeable and out.coeffs.dtype == complex
    assert out.coeffs.shape == dims
    assert np.array_equal(out.coeffs.view(np.uint64), want.view(np.uint64))
    with pytest.raises(ValueError, match="read-only"):
        out.coeffs[(0,) * len(dims)] = 0.0


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


HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)  # det -1
SHEAR = np.array([[1.0, 1.0], [0.0, 1.0]])  # det 1, not unitary
NOT_UNITARY = "block is not unitary within tolerance"
NOT_SPECIAL = "block determinant must equal 1"
NOT_FINITE = "block entries must be finite"


@pytest.mark.parametrize("blocks, error, message", [
    ((np.eye(2), SHEAR, HADAMARD), ValueError, NOT_UNITARY),
    ((np.eye(2), HADAMARD, SHEAR), ValueError, NOT_SPECIAL),
    # the 3x3 block fails first; the stack of 2x2 blocks holds a later fault
    ((np.eye(2), np.diag([1.0, 1.0, 1j]), SHEAR), ValueError, NOT_SPECIAL),
    ((np.eye(2), np.ones((3, 3)), HADAMARD), ValueError, NOT_UNITARY),
    ((HADAMARD, np.ones((2, 3))), ValueError, NOT_SPECIAL),
    ((np.ones((2, 3)), HADAMARD), DimensionMismatch, "must be square"),
    # non-finite blocks never reach the stacked det, which would warn
    ((np.eye(2), np.full((2, 2), np.nan)), ValueError, NOT_FINITE),
    ((np.diag([np.inf, 1.0]), np.eye(3)), ValueError, NOT_FINITE),
    ((np.eye(2), np.full((2, 2), np.nan), SHEAR), ValueError, NOT_FINITE),
    ((np.eye(2), SHEAR, np.full((2, 2), np.nan)), ValueError, NOT_UNITARY),
])
def test_unitary_tuple_raises_the_first_bad_blocks_error(blocks, error, message):
    with pytest.raises(error, match=re.escape(message)):
        LocalUnitaryTuple(blocks)


def test_unitary_tuple_refuses_a_gram_product_that_overflows():
    """Entries near 1e200 overflow U^dag U to NaN, which must not pass the
    unitarity check; a determinant off the unit circle still raises first
    when rescaling."""
    huge = np.diag([1e200 * (1 + 1j), 1e-200 * (1 - 1j) / 2])  # det 1
    assert np.linalg.det(huge) == pytest.approx(1.0)
    for fix in (False, True):
        with pytest.raises(ValueError, match=NOT_UNITARY):
            LocalUnitaryTuple.from_blocks((np.eye(2), huge), fix_determinant=fix)
    with pytest.raises(ValueError, match="matrix determinant does not have unit modulus"):
        LocalUnitaryTuple.from_blocks((np.diag([1e200, 0.0]),), fix_determinant=True)


def test_special_unitary_of_a_stack_equals_each_matrix():
    rng = np.random.default_rng(29)
    for n in (2, 3, 5):
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(4, 1, 1)))
        stack = [random_local_unitaries((n,), rng=rng).blocks[0] for _ in range(4)]
        stack = np.array(stack) * phases
        rescaled = special_unitary(stack)
        for m, one in zip(stack, rescaled, strict=True):
            assert np.array_equal(one, special_unitary(m))


def reference_from_blocks(blocks):
    """``from_blocks(..., fix_determinant=True)`` as one ``special_unitary``
    per block and then the validating constructor."""
    return LocalUnitaryTuple(tuple(special_unitary(b) for b in blocks))


def test_from_blocks_rescales_each_block_as_special_unitary_does():
    """One stacked ``det`` per block size gives each block the bits and the
    memory layout of its own ``special_unitary`` call, for C-ordered blocks
    and for transposed views alike."""
    rng = np.random.default_rng(31)
    blocks = []
    for n in (2, 3, 2, 5, 3, 2):
        u = random_local_unitaries((n,), rng=rng).blocks[0] * np.exp(1j * rng.uniform(0, 7))
        blocks.append(u if len(blocks) % 2 else u.T)
    fixed = LocalUnitaryTuple.from_blocks(blocks, fix_determinant=True)
    for block, got, want in zip(blocks, fixed.blocks, reference_from_blocks(blocks).blocks,
                                strict=True):
        assert np.array_equal(got, special_unitary(block))
        assert np.array_equal(got, want)
        assert got.flags.f_contiguous == want.flags.f_contiguous
        assert got.flags.c_contiguous == want.flags.c_contiguous
        assert not got.flags.writeable


NOT_UNIT_MODULUS = "matrix determinant does not have unit modulus"


@pytest.mark.parametrize("blocks, error, message", [
    ((np.eye(2), SHEAR), ValueError, NOT_UNITARY),
    ((np.eye(2), 2 * np.eye(3)), ValueError, NOT_UNIT_MODULUS),
    ((SHEAR, 2 * np.eye(3)), ValueError, NOT_UNIT_MODULUS),
    ((HADAMARD, np.full((2, 2), np.nan)), ValueError, NOT_FINITE),
    ((np.diag([np.inf, 1.0]), np.eye(3)), ValueError, NOT_FINITE),
    ((HADAMARD, np.ones((2, 3))), np.linalg.LinAlgError, "must be square"),
    ((np.eye(2)[None], HADAMARD), DimensionMismatch, "must be square"),
    # a block that is no array, after one whose determinant fails first
    ((2 * np.eye(3), [[1, 0], [0]]), ValueError, NOT_UNIT_MODULUS),
])
def test_from_blocks_keeps_the_errors_of_rescaling_block_by_block(blocks, error, message):
    with pytest.raises(error, match=re.escape(message)) as got:
        LocalUnitaryTuple.from_blocks(blocks, fix_determinant=True)
    with pytest.raises(error) as want:
        reference_from_blocks(blocks)
    assert str(got.value) == str(want.value)


def test_one_det_per_block_size(monkeypatch):
    """The constructor and ``from_blocks(..., fix_determinant=True)`` each
    check the blocks in one pass per block size: one stacked ``det``."""
    rng = np.random.default_rng(37)
    special = random_local_unitaries((2, 3, 2, 3), rng=rng).blocks
    phased = [b * np.exp(1j * rng.uniform(0, 7)) for b in special]
    det, calls = np.linalg.det, []

    def counted(a):
        calls.append(np.shape(a))
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counted)
    LocalUnitaryTuple(special)
    assert sorted(calls) == [(2, 2, 2), (2, 3, 3)]
    calls.clear()
    LocalUnitaryTuple.from_blocks(phased, fix_determinant=True)
    assert sorted(calls) == [(2, 2, 2), (2, 3, 3)]


@pytest.mark.parametrize("matrix", [
    np.full((2, 2), np.nan), np.diag([np.inf, 1.0]), np.stack([np.eye(2), np.full((2, 2), np.nan)])])
def test_special_unitary_refuses_non_finite_entries(matrix):
    """A NaN determinant passes the modulus check, so non-finite entries
    are refused before the ``det``, which would also warn."""
    with pytest.raises(ValueError, match=NOT_FINITE):
        special_unitary(matrix)


def test_special_unitary_rescales_phase():
    u = np.diag([np.exp(0.3j), np.exp(0.5j)])
    su = special_unitary(u)
    assert np.linalg.det(su) == pytest.approx(1.0)


def test_distinguishable_ignores_exchange_checks():
    state = build_state([[0.3, 0.1], [0.9, 0.2]], DISTINGUISHABLE)
    assert state.symmetry == DISTINGUISHABLE


def test_state_stack_holds_states_of_one_class():
    rng = np.random.default_rng(11)
    states = [random_state((2, 3), rng=rng) for _ in range(4)]
    stack = StateStack.of(states)
    assert (len(stack), stack.dims, stack.parties, stack.total_dim) == (4, (2, 3), 2, 6)
    assert stack.coeffs.shape == (4, 2, 3)
    assert not stack.coeffs.flags.writeable
    assert np.array_equal(stack[2].coeffs, states[2].coeffs)
    assert [s.dims for s in stack] == [(2, 3)] * 4
    bosons = symmetrize(np.eye(3), BOSONIC)
    with pytest.raises(DimensionMismatch):
        StateStack.of([states[0], random_state((3, 2), rng=rng)])
    with pytest.raises(DimensionMismatch):
        StateStack.of([bosons, build_state(np.eye(3))])
    with pytest.raises(DimensionMismatch):
        StateStack.of([])
    with pytest.raises(DimensionMismatch):
        StateStack((2, 3), np.zeros((2, 3)))  # no stack axis
    with pytest.raises(DimensionMismatch):
        StateStack((2, 3), np.zeros((0, 2, 3)))


def test_party_rows_keep_leading_batch_axes():
    rng = np.random.default_rng(12)
    coeffs = rng.standard_normal((5, 2, 3, 4)) + 1j * rng.standard_normal((5, 2, 3, 4))
    for k in range(3):
        rows = party_rows(coeffs, k, batch=1)
        assert rows.shape == (5, coeffs.shape[k + 1], 24 // coeffs.shape[k + 1])
        for b in range(5):
            assert np.array_equal(rows[b], party_rows(coeffs[b], k))
