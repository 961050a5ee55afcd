"""Reduced matrices, their eigenbases, Schmidt data, canonical forms."""

import itertools
import warnings

import numpy as np
import pytest

from orbitent import (
    BOSONIC,
    DISTINGUISHABLE,
    FERMIONIC,
    AmbiguousClustering,
    LocalUnitaryTuple,
    NotBipartite,
    NotNormalized,
    StateStack,
    StateTensor,
    SymmetryViolation,
    analyze_state,
    analyze_states,
    apply_local,
    build_state,
    canonical_form,
    degeneracy_rank,
    random_local_unitaries,
    random_product_state,
    random_state,
    reduced_matrices,
    schmidt,
    special_unitary,
    symmetrize,
)
from orbitent.measure import DEFAULT_CLUSTER_TOL, cluster_spectrum
from orbitent.moment import _by_dim, cluster_spectra, marginal_eigenbases


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


def fortran_state(rng):
    """A (3,2,4) state whose coefficients are stored in column-major order."""
    raw = rng.normal(size=(3, 2, 4)) + 1j * rng.normal(size=(3, 2, 4))
    state = build_state(np.asfortranarray(raw))
    assert state.coeffs.flags.f_contiguous and not state.coeffs.flags.c_contiguous
    return state


def party_spectra(reduced):
    """The descending spectrum of each matrix of ``reduced``, in order,
    read off the per-dim groups of ``ReducedMatrices.spectra``."""
    out = [None] * len(reduced.matrices)
    for ks, vals in reduced.spectra():
        for p, k in enumerate(ks):
            out[k] = vals[..., p, :]
    return out


def test_reduced_matches_brute_force_contraction():
    rng = np.random.default_rng(23)
    states = [random_state(dims, rng=rng)
              for dims in [(2, 2), (3, 2), (2, 3, 2), (2,) * 6, (4, 4, 4), (5,)]]
    for state in states + [fortran_state(rng)]:
        red = reduced_matrices(state)
        for k in range(state.parties):
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
    s0, s1 = party_spectra(red)
    # bipartite spectra agree as multisets up to kernel padding
    assert np.allclose(s0[:3], s1[:3], atol=1e-9)
    assert np.allclose(s1[3:], 0.0, atol=1e-12)


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
    before = party_spectra(reduced_matrices(state))
    after = party_spectra(reduced_matrices(apply_local(state, g)))
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
    spectrum = party_spectra(reduced_matrices(state))[0]
    clustering = cluster_spectrum(spectrum)
    assert clustering.multiplicities == data.multiplicities
    assert clustering.kernel_dim == data.kernel_dim


def test_schmidt_rejects_three_parties():
    with pytest.raises(NotBipartite):
        schmidt(ghz_state())


@pytest.mark.parametrize("coeffs", [
    2 * np.eye(2), np.zeros((2, 2)), np.full((2, 2), np.nan)],
    ids=["twice-identity", "zero", "nan"])
def test_decompositions_refuse_a_state_off_the_unit_sphere(coeffs):
    """The raw constructor checks shapes only.  A norm off 1, NaN included,
    is refused before any SVD or eigh: it once gave singular values
    [2, 2], a divide warning or numpy's LinAlgError."""
    state = StateTensor((2, 2), coeffs)
    for decompose in (schmidt, canonical_form):
        with pytest.raises(NotNormalized):
            decompose(state)
    with pytest.raises(NotNormalized):
        canonical_form(StateTensor((2, 2, 2), np.multiply.outer(coeffs, [1.0, 0.0])))


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


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 3), (4, 2), (8, 8)])
def test_two_party_canonical_form_is_schmidts_pair_bit_for_bit(dims):
    """Two-party ``canonical_form`` shares the SVD step of ``schmidt`` and
    builds no Schmidt data: its tuple is schmidt's (left, right^T), with
    the phase of right = V taken from det(V), not det(V^T), and its state
    is that tuple's ``apply_local``, bit for bit."""
    rng = np.random.default_rng(89)
    weights = np.zeros(min(dims))
    weights[:2] = 0.5  # one block of two: a stratum of its own
    degenerate = np.zeros(dims)
    degenerate[np.diag_indices(min(dims))] = np.sqrt(weights)
    for state in (random_state(dims, rng=rng),
                  apply_local(build_state(degenerate), random_local_unitaries(dims, rng=rng))):
        canon, g = canonical_form(state)
        data = schmidt(state)
        want = LocalUnitaryTuple((data.left, data.right.T))
        assert np.array_equal(canon.coeffs, apply_local(state, want).coeffs)
        for got, block in zip(g.blocks, want.blocks, strict=True):
            assert np.array_equal(got, block)
            assert got.flags.f_contiguous == block.flags.f_contiguous


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
    for x in reduced_matrices(canon).matrices:
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


def near_ghz(delta):
    """sqrt(1/2 + delta)|000> + sqrt(1/2 - delta)|111>: every reduced
    spectrum has a gap of 2 delta."""
    c = np.zeros((2, 2, 2))
    c[0, 0, 0], c[1, 1, 1] = np.sqrt(0.5 + delta), np.sqrt(0.5 - delta)
    return build_state(c)


def test_canonical_form_three_parties_clusters_at_cluster_tol():
    state = near_ghz(1e-7)  # gap 2e-7, four times the default cut 5e-8
    with pytest.raises(AmbiguousClustering):
        canonical_form(state)
    canon, g = canonical_form(state, cluster_tol=1e-5)  # one block of two
    assert np.allclose(apply_local(state, g).coeffs, canon.coeffs, atol=1e-14)
    for m in reduced_matrices(canon).matrices:
        assert np.allclose(m, np.diag(np.diag(m)), atol=1e-12)


def test_canonical_form_checks_cluster_tol_on_every_route():
    for state in (bell_state(), ghz_state()):
        with pytest.raises(ValueError):
            canonical_form(state, cluster_tol=0.5)


@pytest.mark.parametrize("dims, symmetry", [
    ((2, 2), DISTINGUISHABLE), ((3, 5), DISTINGUISHABLE),
    ((2, 2, 2), DISTINGUISHABLE), ((3, 3, 3), DISTINGUISHABLE),
    ((2, 3, 4), DISTINGUISHABLE), ((3, 3), BOSONIC), ((4, 4, 4), FERMIONIC)])
def test_stacked_reduced_matrices_and_spectra_equal_each_states(dims, symmetry):
    rng = np.random.default_rng(13)
    states = [random_state(dims, symmetry, rng=rng) for _ in range(6)]
    stacked = reduced_matrices(StateStack.of(states))
    # one state-major group per party dim, parties in order of first appearance
    groups = stacked.spectra()
    assert [(ks, vals.shape) for ks, vals in groups] == [
        (ks, (6, len(ks), n)) for n, ks in _by_dim(dims).items()]
    spectra = party_spectra(stacked)
    for b, state in enumerate(states):
        single = reduced_matrices(state)
        for k, (m, one) in enumerate(zip(stacked.matrices, single.matrices)):
            assert m.shape == (6, dims[k], dims[k])
            assert np.array_equal(m[b], one)
        for s, one in zip(spectra, party_spectra(single)):
            assert np.array_equal(s[b], one)


def projector_basis(block):
    """Gram-Schmidt over the columns of the spectral projector of one block,
    one vector at a time."""
    proj = block @ block.conj().T
    basis = []
    for j in range(proj.shape[0]):
        w = proj[:, j].copy()
        for b in basis:
            w -= b * np.vdot(b, w)
        norm = np.linalg.norm(w)
        if norm > 1e-6:
            basis.append(w / norm)
            if len(basis) == block.shape[1]:
                break
    assert len(basis) == block.shape[1]
    return np.column_stack(basis)


def reference_canonical_form(state, cluster_tol=DEFAULT_CLUSTER_TOL):
    """canonical_form off the two-party route, one party at a time: its own
    eigh, clustering, per-block gauge and SU rescale."""
    blocks = []
    for m in reduced_matrices(state).matrices:
        vals, vecs = np.linalg.eigh(m)
        order = np.argsort(-vals)
        vals, vecs = vals[order], vecs[:, order]
        clustering = cluster_spectrum(vals, cluster_tol)
        split = np.split(vecs, np.cumsum(clustering.multiplicities), axis=1)
        basis = np.hstack([projector_basis(b) for b in split if b.size])
        blocks.append(special_unitary(basis.T))
    g = LocalUnitaryTuple(tuple(blocks))
    return apply_local(state, g), g


def ghz(dims):
    c = np.zeros(dims)
    for i in range(min(dims)):
        c[(i,) * len(dims)] = 1
    return build_state(c)


def w_state(qubits):
    c = np.zeros(2 ** qubits)
    c[[2 ** k for k in range(qubits)]] = 1  # one excitation on each qubit
    return build_state(c.reshape((2,) * qubits))


def diagonal_state(weights):
    """sum_i sqrt(p_i) e_i (x) e_i (x) e_i: every reduced spectrum is p."""
    n = len(weights)
    c = np.zeros((n, n, n))
    c[np.arange(n), np.arange(n), np.arange(n)] = np.sqrt(weights)
    return build_state(c)


CANONICAL_CASES = {
    "(5,)": lambda rng: random_state((5,), rng=rng),
    "(2,2,2)": lambda rng: random_state((2, 2, 2), rng=rng),
    "(2,)^6": lambda rng: random_state((2,) * 6, rng=rng),
    "(3,3,3)": lambda rng: random_state((3, 3, 3), rng=rng),
    "(2,3,4)": lambda rng: random_state((2, 3, 4), rng=rng),
    "(2,3,2)": lambda rng: random_state((2, 3, 2), rng=rng),
    "ghz(3,3,3)": lambda rng: ghz((3, 3, 3)),
    "w(4)": lambda rng: w_state(4),
    "product(2,3,2)": lambda rng: random_product_state((2, 3, 2), rng=rng),
    "blocks of 2": lambda rng: diagonal_state([0.3, 0.3, 0.4]),
    "blocks of 3": lambda rng: diagonal_state([0.2, 0.2, 0.2, 0.4]),
}


@pytest.mark.parametrize("rotate", [False, True])
@pytest.mark.parametrize("case", sorted(CANONICAL_CASES))
def test_canonical_form_equals_per_party_reference(case, rotate):
    rng = np.random.default_rng(83)
    state = CANONICAL_CASES[case](rng)
    if rotate:
        state = apply_local(state, random_local_unitaries(state.dims, rng=rng))
    canon, g = canonical_form(state)
    ref, ref_g = reference_canonical_form(state)
    assert np.array_equal(canon.coeffs, ref.coeffs)
    for block, ref_block in zip(g.blocks, ref_g.blocks, strict=True):
        assert np.array_equal(block, ref_block)


def product_of_pairs(dims, links):
    """Product over links (a, b, p) of sqrt(p)|00> + sqrt(1-p)|11> on
    parties a and b: both reduced spectra hold p and 1 - p."""
    c, order = np.ones(()), []
    for a, b, p in links:
        pair = np.zeros((dims[a], dims[b]))
        pair[0, 0], pair[1, 1] = np.sqrt(p), np.sqrt(1 - p)
        c = np.multiply.outer(c, pair)
        order += [a, b]
    return build_state(np.transpose(c, np.argsort(order)))


@pytest.mark.parametrize("dims", [(2,) * 6, (2, 3, 2, 2, 3, 2)])
def test_canonical_form_refuses_with_the_first_refused_party(dims):
    # party 0 clears the cut; parties 1 and 2 sit near it with gaps 2e-7 and
    # 3e-8, so the two refusals name different values.  In the mixed dims
    # party 1 has dim 3 and party 2 shares the stack of dim 2 with party 0.
    state = product_of_pairs(dims, [(0, 5, 0.3), (1, 3, 0.5 - 1e-7),
                                    (2, 4, 0.5 - 1.5e-8)])
    spectra = party_spectra(reduced_matrices(state))
    cluster_spectrum(spectra[0])
    messages = []
    for k in (1, 2):
        with pytest.raises(AmbiguousClustering) as refusal:
            cluster_spectrum(spectra[k])
        messages.append(str(refusal.value))
    assert messages[0] != messages[1]
    with pytest.raises(AmbiguousClustering) as refusal:
        canonical_form(state)
    assert str(refusal.value) == messages[0]
    for oracle in ("off", "verify"):
        with pytest.raises(AmbiguousClustering) as refusal:
            analyze_state(state, oracle=oracle)
        assert str(refusal.value) == messages[0]


def one_party_near_the_cut(party, gap):
    """The (2,3,2) state sqrt(p)|0>|a> + sqrt(1 - p)|1>|b>, p = (1 + gap)/2,
    with |0>, |1> on party ``party`` and |a> = |00>, |b> = (|10> + |01>)/sqrt(2)
    on the other two: that party's spectrum holds p and 1 - p, a gap near
    the cut, and each other party's holds 3/4 and 1/4 up to O(gap)."""
    p = (1 + gap) / 2
    c = np.zeros((2, 3, 2))
    for digit, rest, amplitude in ((0, [0, 0], p**0.5), (1, [1, 0], ((1 - p) / 2)**0.5),
                                   (1, [0, 1], ((1 - p) / 2)**0.5)):
        rest.insert(party, digit)
        c[tuple(rest)] = amplitude
    return build_state(c)


def test_a_stack_refuses_with_its_first_refused_state_across_party_dims():
    """State 0 is refused only at party 1 (dim 3, the later dim group) and
    state 1 only at party 0 (dim 2, the first group): every stacked entry
    raises state 0's own refusal, that of ``cluster_spectrum`` of its one
    spectrum, and not the refusal its first party dim group would meet."""
    states = [one_party_near_the_cut(1, 2e-7), one_party_near_the_cut(0, 3e-8)]
    messages = []
    for state, refused in zip(states, (1, 0)):
        for k, spectrum in enumerate(party_spectra(reduced_matrices(state))):
            if k != refused:
                cluster_spectrum(spectrum)
        with pytest.raises(AmbiguousClustering) as refusal:
            cluster_spectrum(party_spectra(reduced_matrices(state))[refused])
        messages.append(str(refusal.value))
    assert messages[0] != messages[1]
    stack = StateStack.of(states)
    reduced = reduced_matrices(stack)
    calls = {
        "cluster_spectra": lambda: cluster_spectra(reduced.spectra()),
        "marginal_eigenbases": lambda: marginal_eigenbases(reduced),
        "degeneracy_rank": lambda: degeneracy_rank(stack),
        "analyze_states off": lambda: list(analyze_states(states)),
        "analyze_states verify": lambda: list(analyze_states(states, oracle="verify")),
    }
    for name, call in calls.items():
        with pytest.raises(AmbiguousClustering) as refusal:
            call()
        assert str(refusal.value) == messages[0], name


@pytest.mark.parametrize("coeffs", [
    np.full((2, 2, 2), np.nan), np.full((2, 2, 2), np.inf),
    np.full((2, 2, 2), 0.5)], ids=["nan", "inf", "norm-sqrt2"])
def test_canonical_form_reads_the_norm_off_the_traces(monkeypatch, coeffs):
    """Off the two-party route the norm comes from the traces of the
    reduced matrices that the eigenbases need anyway, with no separate
    pass over the coefficients and no floating-point warning."""
    def unreached(*args, **kwargs):
        raise AssertionError("a separate pass over the coefficients")

    monkeypatch.setattr("orbitent.moment.check_unit_norm", unreached)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotNormalized, match="canonical_form"):
            canonical_form(StateTensor((2, 2, 2), coeffs))
        canon, _ = canonical_form(ghz_state())
    assert abs(canon.norm - 1.0) < 1e-12
