"""Reduced matrices, moment image, Schmidt data, canonical forms."""

import itertools

import numpy as np
import pytest

from orbitent import (
    BOSONIC,
    LocalUnitaryTuple,
    NotBipartite,
    SymmetryViolation,
    apply_local,
    build_state,
    canonical_form,
    moment_image,
    random_local_unitaries,
    random_product_state,
    random_state,
    reduced_matrices,
    schmidt,
    symmetrize,
)


def slow_reduced(state, party):
    """Independent reference: explicit index loops, no tensordot."""
    dims = state.dims
    n = dims[party]
    out = np.zeros((n, n), dtype=complex)
    for idx in itertools.product(*[range(d) for d in dims]):
        for l in range(n):
            jdx = list(idx)
            jdx[party] = l
            out[idx[party], l] += (np.conj(state.coeffs[idx])
                                   * state.coeffs[tuple(jdx)])
    return out


def bell_state(sign=1.0):
    return build_state([[0, 1], [sign, 0]])


def ghz_state():
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = c[1, 1, 1] = 1
    return build_state(c)


def test_reduced_matches_brute_force_contraction():
    rng = np.random.default_rng(23)
    for dims in [(2, 2), (3, 2), (2, 3, 2)]:
        state = random_state(dims, rng=rng)
        red = reduced_matrices(state)
        for k in range(len(dims)):
            assert np.allclose(red.matrices[k], slow_reduced(state, k),
                               atol=1e-12)


def test_reduced_product_state():
    red = reduced_matrices(build_state([[1, 0], [0, 0]]))
    for m in red.matrices:
        assert np.allclose(m, np.diag([1.0, 0.0]))


def test_reduced_bell():
    red = reduced_matrices(bell_state())
    for m in red.matrices:
        assert np.allclose(m, np.eye(2) / 2)


def test_reduced_ghz():
    red = reduced_matrices(ghz_state())
    assert len(red.matrices) == 3
    for m in red.matrices:
        assert np.allclose(m, np.eye(2) / 2)


def test_reduced_invariants():
    rng = np.random.default_rng(29)
    state = random_state((3, 4), rng=rng)
    red = reduced_matrices(state)
    for m in red.matrices:
        assert np.abs(m - m.conj().T).max() < 1e-12
        assert np.trace(m).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(m).min() > -1e-12
    s0, s1 = red.spectra()
    # bipartite spectra agree as multisets up to kernel padding
    assert np.allclose(s0[:3], s1[:3], atol=1e-9)
    assert np.allclose(s1[3:], 0.0, atol=1e-12)


def test_moment_image_product_and_bell():
    prod = moment_image(build_state([[1, 0], [0, 0]]))
    for x in prod.blocks:
        assert np.allclose(x, np.diag([0.5, -0.5]))
    bell = moment_image(bell_state())
    for x in bell.blocks:
        assert np.allclose(x, 0.0, atol=1e-12)


def test_moment_image_traceless():
    rng = np.random.default_rng(31)
    img = moment_image(random_state((3, 3, 2), rng=rng))
    for x in img.blocks:
        assert abs(np.trace(x)) < 1e-10
        assert np.abs(x - x.conj().T).max() < 1e-12


def test_reduced_covariance_under_local_action():
    """C^k picks up conj(U) . U^T under apply_local (coefficients carry the
    conjugate of the density-matrix convention)."""
    rng = np.random.default_rng(37)
    for dims in [(2, 2), (3, 2, 2)]:
        state = random_state(dims, rng=rng)
        g = random_local_unitaries(dims, rng=rng)
        before = reduced_matrices(state).matrices
        after = reduced_matrices(apply_local(state, g)).matrices
        for k, u in enumerate(g.blocks):
            assert np.allclose(after[k], u.conj() @ before[k] @ u.T,
                               atol=1e-10)


def test_reduced_spectra_invariant_under_local_action():
    rng = np.random.default_rng(41)
    state = random_state((3, 3), rng=rng)
    g = random_local_unitaries((3, 3), rng=rng)
    before = reduced_matrices(state).spectra()
    after = reduced_matrices(apply_local(state, g)).spectra()
    for b, a in zip(before, after):
        assert np.allclose(b, a, atol=1e-9)


def test_schmidt_bell_by_hand():
    data = schmidt(bell_state())
    assert np.allclose(data.singular_values, [1 / np.sqrt(2)] * 2)
    assert data.multiplicities == (2,)
    assert data.kernel_dim == 0


def test_schmidt_diagonal_input():
    data = schmidt(build_state(np.diag([1.0, 0.0])))
    assert data.multiplicities == (1,)
    assert data.kernel_dim == 1
    assert np.allclose(data.singular_values, [1.0, 0.0], atol=1e-12)


def test_schmidt_generic_three_by_three():
    rng = np.random.default_rng(43)
    state = random_state((3, 3), rng=rng)
    data = schmidt(state)
    assert data.multiplicities == (1, 1, 1)
    assert data.kernel_dim == 0


def test_schmidt_unitaries_diagonalize():
    rng = np.random.default_rng(47)
    for dims in [(2, 2), (3, 3), (2, 4)]:
        state = random_state(dims, rng=rng)
        data = schmidt(state)
        moved = data.left @ state.coeffs @ data.right
        off = moved.copy()
        for i in range(min(dims)):
            off[i, i] = 0.0
        assert np.abs(off).max() < 1e-10
        mags = np.abs(np.diagonal(moved))
        assert np.all(np.diff(mags) < 1e-10)  # descending
        # special unitaries
        for u in (data.left, data.right):
            assert abs(np.linalg.det(u) - 1.0) < 1e-8
        # apply_local route reaches the diagonal state projectively
        g = LocalUnitaryTuple((data.left, data.right.T))
        assert apply_local(state, g).projectively_equals(data.diagonal_state)


def test_schmidt_multiplicities_match_reduced_clustering():
    from orbitent import cluster_spectrum
    rng = np.random.default_rng(53)
    state = random_state((3, 3), rng=rng)
    data = schmidt(state)
    spectrum = reduced_matrices(state).spectra()[0]
    clustering = cluster_spectrum(spectrum)
    assert clustering.multiplicities == data.multiplicities
    assert clustering.kernel_dim == data.kernel_dim


def test_schmidt_rejects_three_parties():
    with pytest.raises(NotBipartite):
        schmidt(ghz_state())


def test_canonical_form_product_state():
    rng = np.random.default_rng(59)
    state = random_product_state((2, 3, 2), rng=rng)
    canon, g = canonical_form(state)
    target = np.zeros((2, 3, 2))
    target[0, 0, 0] = 1
    assert canon.projectively_equals(build_state(target))
    assert np.allclose(apply_local(state, g).coeffs, canon.coeffs)


def test_canonical_form_bell_is_schmidt_diagonal():
    canon, g = canonical_form(bell_state())
    red = reduced_matrices(canon)
    for m in red.matrices:
        assert np.allclose(m, np.eye(2) / 2, atol=1e-10)
    assert canon.projectively_equals(schmidt(bell_state()).diagonal_state)


def test_canonical_form_random_two_qutrit_reductions_diagonal():
    rng = np.random.default_rng(61)
    state = random_state((3, 3), rng=rng)
    canon, g = canonical_form(state)
    for m in reduced_matrices(canon).matrices:
        off = m - np.diag(np.diagonal(m))
        assert np.abs(off).max() < 1e-10
        diag = np.diagonal(m).real
        assert np.all(np.diff(diag) < 1e-10)
    assert np.allclose(apply_local(state, g).coeffs, canon.coeffs)


def test_canonical_form_three_parties_moment_image_diagonal():
    rng = np.random.default_rng(67)
    state = random_state((2, 3, 2), rng=rng)
    canon, g = canonical_form(state)
    for x in moment_image(canon).blocks:
        off = x - np.diag(np.diagonal(x))
        assert np.abs(off).max() < 1e-10
    assert np.allclose(apply_local(state, g).coeffs, canon.coeffs, atol=1e-12)


def test_canonical_form_rejects_indistinguishable():
    state = symmetrize(np.outer([1, 0, 0], [0, 1, 0]), BOSONIC)
    with pytest.raises(SymmetryViolation):
        canonical_form(state)


def test_canonical_form_is_reproducible():
    rng = np.random.default_rng(71)
    state = random_state((2, 2, 3), rng=rng)
    first, _ = canonical_form(state)
    second, _ = canonical_form(state)
    assert np.array_equal(first.coeffs, second.coeffs)


def test_canonical_form_checks_cluster_tol_on_every_route():
    for state in (bell_state(), ghz_state()):
        with pytest.raises(ValueError):
            canonical_form(state, cluster_tol=0.5)
