"""Report assembly across symmetry classes and oracle modes."""

import dataclasses
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import orbitent.report
from orbitent import (
    BOSON_PRODUCT,
    BOSON_SYMMETRIC_SIMPLE,
    BOSONIC,
    DISTINGUISHABLE,
    FERMIONIC,
    AmbiguousClustering,
    DegeneracyReport,
    StateTensor,
    analyze_state,
    analyze_states,
    apply_local,
    build_state,
    cluster_spectrum,
    random_local_unitaries,
    random_product_state,
    random_state,
    reduced_matrices,
    symmetrize,
    verify_against_formula,
)
from orbitent.cli import _render_report


def bell_state():
    return build_state([[0, 1], [1, 0]])


def test_bell_report_closed_form():
    rep = analyze_state(bell_state())
    assert (rep.orbit_dim, rep.coadjoint_dim, rep.degeneracy) == (3, 0, 3)
    assert rep.separable is False
    assert rep.oracle is None


def test_bell_report_with_oracle_verify():
    rep = analyze_state(bell_state(), oracle="verify")
    assert rep.oracle["consistent"] is True
    assert rep.oracle["orbit_dim"] == 3
    assert rep.oracle["symplectic_rank"] == 0


def test_product_state_report():
    rep = analyze_state(build_state([[1, 0], [0, 0]]), oracle="verify")
    assert rep.degeneracy == 0
    assert rep.separable is True
    assert rep.oracle["degeneracy"] == 0


def test_tripartite_bounds_report():
    c = np.zeros((2, 2, 2)); c[0, 0, 0] = c[1, 1, 1] = 1
    rep = analyze_state(build_state(c), oracle="verify")
    assert rep.degeneracy == (3, 9)
    assert rep.coadjoint_dim == 0
    assert rep.orbit_dim == (3, 9)
    assert 3 <= rep.oracle["degeneracy"] <= 9


def test_single_party_report():
    rep = analyze_state(build_state([1.0, 1j, 0.0]), oracle="verify")
    assert rep.degeneracy == 0
    assert rep.separable is True
    assert rep.orbit_dim == rep.coadjoint_dim == 4  # CP^2


def test_unequal_bipartite_routes_to_oracle():
    rng = np.random.default_rng(3)
    rep = analyze_state(random_state((2, 3), rng=rng))
    assert rep.oracle is not None  # forced on: no closed form
    assert isinstance(rep.degeneracy, int)
    assert rep.oracle["symplectic_rank"] == rep.coadjoint_dim
    prod = analyze_state(random_product_state((2, 4), rng=rng))
    assert prod.degeneracy == 0 and prod.separable is True


def test_bosonic_report_conventions():
    # symmetrized orthonormal pair: rank-2 coefficient matrix, D = 2
    pair = symmetrize(np.outer([1, 0, 0], [0, 1, 0]), BOSONIC)
    sym = analyze_state(pair, boson_convention=BOSON_SYMMETRIC_SIMPLE)
    assert sym.degeneracy == 2
    assert sym.separable is True
    assert sym.boson_convention == BOSON_SYMMETRIC_SIMPLE
    prod = analyze_state(pair, boson_convention=BOSON_PRODUCT)
    assert prod.separable is False
    # v (x) v is separable under both conventions
    vv = build_state(np.outer([1, 0, 0], [1, 0, 0]), BOSONIC)
    assert analyze_state(vv, boson_convention=BOSON_PRODUCT).separable is True
    assert analyze_state(vv).separable is True


def test_bosonic_rank3_symmetric_state_not_simple():
    coeffs = np.diag([3.0, 2.0, 1.0])
    state = build_state(coeffs, BOSONIC)
    rep = analyze_state(state, boson_convention=BOSON_SYMMETRIC_SIMPLE)
    assert rep.separable is False
    assert rep.degeneracy > 0


def test_fermionic_reports():
    slater = symmetrize(np.outer([1, 0, 0, 0], [0, 1, 0, 0]), FERMIONIC)
    rep = analyze_state(slater)
    assert rep.separable is True
    assert rep.degeneracy == 0
    assert rep.boson_convention is None
    rng = np.random.default_rng(5)
    entangled = random_state((4, 4), FERMIONIC, rng=rng)
    rep2 = analyze_state(entangled)
    assert rep2.separable is False
    assert rep2.degeneracy > 0


def test_report_json_shape():
    doc = analyze_state(bell_state(), oracle="verify").to_json_dict()
    assert set(doc) >= {"orbit_dim", "coadjoint_dim", "degeneracy",
                        "separable", "clusterings", "oracle"}
    c = np.zeros((2, 2, 2)); c[0, 0, 0] = c[1, 1, 1] = 1
    doc3 = analyze_state(build_state(c)).to_json_dict()
    assert doc3["degeneracy"] == {"low": 3, "high": 9}


def test_invalid_modes_rejected():
    assert orbitent.report.ORACLE_MODES == ("off", "verify")
    for mode in ("sometimes", "only"):
        with pytest.raises(ValueError, match="oracle mode"):
            analyze_state(bell_state(), oracle=mode)
    with pytest.raises(ValueError):
        analyze_state(bell_state(), boson_convention="neither")


@st.composite
def schmidt_profiles(draw):
    """(N, positive multiplicities m_1.., seed) with sum m <= N, so the
    kernel m_0 = N - sum m may be nonzero."""
    n = draw(st.integers(2, 5))
    profile = [draw(st.integers(1, n))]
    while sum(profile) < n and draw(st.booleans()):
        profile.append(draw(st.integers(1, n - sum(profile))))
    return n, tuple(profile), draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(schmidt_profiles())
@example((12, (12,), 12))  # maximally entangled, D = 143
@example((16, (4, 4), 16))  # a kernel of 8
def test_degenerate_bipartite_strata_match_formula_and_oracle(case):
    """Block b carries Schmidt weight 2^-b: the m_n^2 and m_0^2 terms of
    dim O = 2N^2 - 2 m_0^2 - sum m^2 - 1 and D = sum m^2 - 1 do real work.
    The explicit examples lie past dim H 4096 or 256 generators, where
    the oracle once refused."""
    n, profile, seed = case
    weights = [2.0 ** -b for b, m in enumerate(profile) for _ in range(m)]
    diag = np.zeros((n, n))
    diag[range(len(weights)), range(len(weights))] = np.sqrt(weights)
    g = random_local_unitaries((n, n), rng=seed)
    state = apply_local(build_state(diag), g)

    rec = verify_against_formula(state)
    assert rec.passed and rec.mode == "exact"
    m0 = n - sum(profile)
    squares = sum(m * m for m in profile)
    rep = analyze_state(state)
    assert rep.orbit_dim == 2 * n * n - 2 * m0 * m0 - squares - 1
    assert rep.degeneracy == squares - 1
    assert rep.separable is (profile == (1,))


def near_pair_states():
    """Rotated (3,3) and (3,5) states with Schmidt weights (0.5, 0.25 +-
    5e-6): the pair's gap, 1e-5, is merged at cluster tolerance 1e-3 and
    split at 1e-7."""
    rng = np.random.default_rng(37)
    states = []
    for dims in ((3, 3), (3, 5)):
        c = np.zeros(dims)
        c[range(3), range(3)] = np.sqrt([0.5, 0.25 + 5e-6, 0.25 - 5e-6])
        states.append(apply_local(build_state(c), random_local_unitaries(dims, rng=rng)))
    return states


@pytest.mark.parametrize("cluster_tol", [1e-3, 1e-7])
def test_one_clustering_decides_both_routes(cluster_tol):
    """The cluster tolerance alone decides which eigenvalues are equal, for
    the closed form and the oracle alike: the merged pair reads the
    stratum (1, 2), the split one three distinct weights."""
    merged = cluster_tol == 1e-3
    expected = [(12, 8, 4) if merged else (14, 12, 2),
                (24, 20, 4) if merged else (26, 24, 2)]
    for state, ranks in zip(near_pair_states(), expected):
        for oracle in ("off", "verify"):
            rep = analyze_state(state, cluster_tol, oracle=oracle)
            assert (rep.orbit_dim, rep.coadjoint_dim, rep.degeneracy) == ranks
            if rep.oracle is not None:
                assert (rep.oracle["orbit_dim"], rep.oracle["symplectic_rank"],
                        rep.oracle["degeneracy"]) == ranks
                assert rep.consistency.passed


def _special_states(dims, symmetry, rng):
    """States off the generic stratum, so a stack holds several orbit ranks."""
    if symmetry == BOSONIC:
        v = rng.standard_normal(dims[0]) + 1j * rng.standard_normal(dims[0])
        return [build_state(np.multiply.outer(v, v), BOSONIC)]
    if symmetry == FERMIONIC:
        vectors = rng.standard_normal((len(dims), dims[0]))
        return [symmetrize(np.einsum("i,j,k->ijk", *vectors), FERMIONIC)]
    ghz = np.zeros(dims)
    for i in range(min(dims)):
        ghz[(i,) * len(dims)] = 1.0
    g = random_local_unitaries(dims, rng=rng)
    return [random_product_state(dims, rng=rng), apply_local(build_state(ghz), g)]


def _same_reports(batched, single):
    assert len(batched) == len(single)
    for a, b in zip(batched, single):
        assert a.to_json_dict() == b.to_json_dict()
        assert (a.route, a.oracle) == (b.route, b.oracle)


@pytest.mark.parametrize("dims, symmetry", [
    ((2, 2), DISTINGUISHABLE), ((3, 3), DISTINGUISHABLE),
    ((2, 3), DISTINGUISHABLE), ((2, 2, 2), DISTINGUISHABLE),
    ((3, 3, 3), DISTINGUISHABLE), ((3, 3), BOSONIC), ((4, 4, 4), FERMIONIC),
    ((2, 3, 2), DISTINGUISHABLE), ((2, 2, 3), DISTINGUISHABLE)])
def test_analyze_states_equals_one_analyze_state_per_state(dims, symmetry):
    rng = np.random.default_rng(31)
    length = orbitent.report._stack_length(dims, symmetry)
    states = [random_state(dims, symmetry, rng=rng) for _ in range(length + 1)]
    special = _special_states(dims, symmetry, rng)
    # the special states sit in the first chunk and open the second one
    states[1:1 + len(special)] = special
    states[length:length + len(special)] = special
    for mode in ("off", "verify"):
        single = [analyze_state(s, oracle=mode) for s in states]
        # one side of the chunk boundary, then across it
        _same_reports(list(analyze_states(states[:length - 1], oracle=mode)),
                      single[:length - 1])
        _same_reports(list(analyze_states(states, oracle=mode)), single)


def test_analyze_states_starts_a_new_stack_at_each_class():
    rng = np.random.default_rng(35)
    states = [random_state(dims, symmetry, rng=rng) for dims, symmetry in [
        ((2, 2), DISTINGUISHABLE), ((2, 2), DISTINGUISHABLE), ((2, 3), DISTINGUISHABLE),
        ((2, 2), BOSONIC), ((2, 2), DISTINGUISHABLE), ((3, 3, 3), FERMIONIC)]]
    assert [len(c) for c in orbitent.report._chunks(states)] == [2, 1, 1, 1, 1]
    for mode in ("off", "verify"):
        _same_reports(list(analyze_states(states, oracle=mode)),
                      [analyze_state(s, oracle=mode) for s in states])


def _near_threshold_case(dims, party, rng, weights):
    """A state whose Schmidt weights across ``party`` are ``weights``, with
    random orthonormal partners on the other parties."""
    rest = int(np.prod(dims)) // dims[party]
    q, _ = np.linalg.qr(rng.standard_normal((rest, rest))
                        + 1j * rng.standard_normal((rest, rest)))
    rows = np.zeros((dims[party], rest), dtype=complex)
    for i, w in enumerate(weights):
        rows[i] = np.sqrt(w) * q[:, i]
    others = dims[:party] + dims[party + 1:]
    return build_state(np.moveaxis(rows.reshape(dims[party], *others), 0, party))


@pytest.mark.parametrize("dims", [(2, 2, 3), (3, 3, 3)])
def test_a_refused_stack_yields_up_to_the_first_refused_state(dims):
    rng = np.random.default_rng(32)
    good = random_state(dims, rng=rng)
    # A: the third party has an eigenvalue near its cut; B: the first
    # party a gap near its cut.  With two party dims the stack meets B's
    # first, one dim after the other; with one shared dim, A's, state by
    # state.  Either way A, the first refused state, raises its own error.
    refused_a = _near_threshold_case(dims, 2, rng, [0.6, 0.4 - 2e-7, 2e-7])
    refused_b = _near_threshold_case(dims, 0, rng, [0.5 + 2.5e-8, 0.5 - 2.5e-8])
    with pytest.raises(AmbiguousClustering) as alone:
        analyze_state(refused_a)
    with pytest.raises(AmbiguousClustering) as other:
        analyze_state(refused_b)
    assert str(alone.value) != str(other.value)
    reports = analyze_states([good, refused_a, refused_b])
    assert next(reports).to_json_dict() == analyze_state(good).to_json_dict()
    with pytest.raises(AmbiguousClustering) as stacked:
        next(reports)
    assert str(stacked.value) == str(alone.value)


def test_closed_form_reads_a_view_and_only_the_matrices_it_clusters(monkeypatch):
    """A lone C-ordered state is analyzed in place, two equal parties
    without the oracle build party 1's matrix alone, and every other route
    builds one matrix per party."""
    calls = []
    original = orbitent.report.reduced_matrices

    def recorded(stack, *args, **kwargs):
        reduced = original(stack, *args, **kwargs)
        calls.append((stack, reduced))
        return reduced

    monkeypatch.setattr(orbitent.report, "reduced_matrices", recorded)
    rng = np.random.default_rng(36)
    for dims, symmetry in [((3, 3), DISTINGUISHABLE), ((4,), DISTINGUISHABLE),
                           ((2, 3, 2), DISTINGUISHABLE), ((2, 3), DISTINGUISHABLE),
                           ((3, 3), BOSONIC)]:
        state = random_state(dims, symmetry, rng=rng)
        for oracle in ("off", "verify"):
            calls.clear()
            report = analyze_state(state, oracle=oracle)
            [(stack, reduced)] = calls
            assert np.shares_memory(stack.coeffs, state.coeffs)
            schmidt = report.route == "bipartite" and oracle == "off"
            assert len(reduced.matrices) == (1 if schmidt else state.parties)
    # a Fortran-ordered state is copied into its stack, and reads as its
    # C-ordered copy does
    for dims in [(3, 2, 4), (3, 3)]:
        raw = rng.normal(size=dims) + 1j * rng.normal(size=dims)
        fortran = build_state(np.asfortranarray(raw))
        assert not fortran.coeffs.flags.c_contiguous
        ordered = StateTensor(dims, np.ascontiguousarray(fortran.coeffs))
        for oracle in ("off", "verify"):
            calls.clear()
            assert (analyze_state(fortran, oracle=oracle).to_json_dict()
                    == analyze_state(ordered, oracle=oracle).to_json_dict())
            assert not np.shares_memory(calls[0][0].coeffs, fortran.coeffs)


def test_analyze_states_is_lazy():
    rng = np.random.default_rng(33)
    endless = (random_state((2, 2), rng=rng) for _ in itertools.count())
    reports = analyze_states(endless, oracle="verify")
    assert [next(reports).route for _ in range(3)] == ["bipartite"] * 3


def test_check_consistency_runs_once_per_state(monkeypatch):
    calls = []
    check = orbitent.report.check_consistency

    def counted(report, state):
        calls.append(state)
        return check(report, state)

    monkeypatch.setattr(orbitent.report, "check_consistency", counted)
    rng = np.random.default_rng(34)
    record = verify_against_formula(random_state((3, 3), rng=rng))
    assert record.passed and len(calls) == 1
    states = [random_state((2, 2, 2), rng=rng) for _ in range(5)]
    reports = list(analyze_states(states, oracle="verify"))
    assert len(calls) == 6
    assert all(seen is state for seen, state in zip(calls[1:], states))
    assert all(r.consistency.mode == "bounds" for r in reports)


@pytest.mark.parametrize("coeffs", [
    np.full((2, 3), np.nan), np.full((2, 2, 2), np.inf),
    2 * np.array([[0, 1], [1, 0]]) / np.sqrt(2)],
    ids=["nan-2x3", "inf-2x2x2", "bell-times-2"])
@pytest.mark.parametrize("oracle", ["off", "verify"])
def test_analyze_state_refuses_a_state_off_the_unit_sphere(coeffs, oracle):
    """The raw constructor checks shapes only.  The norm is read off the
    traces of the reduced matrices before any spectrum is taken, with no
    floating-point warning: these once raised numpy's LinAlgError, a
    matmul RuntimeWarning and "eigenvalues must lie in [0, 1]"."""
    state = orbitent.StateTensor(coeffs.shape, coeffs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(orbitent.NotNormalized, match="analyze_state"):
            analyze_state(state, oracle=oracle)
        reports = analyze_states([bell_state(), state], oracle=oracle)
        assert next(reports).degeneracy == 3
        with pytest.raises(orbitent.NotNormalized):
            next(reports)


def test_the_oracle_route_reads_the_norm_once(monkeypatch):
    """``analyze_state`` checks the norm on the traces and hands the
    eigenbases to the oracle, which makes no pass of its own over the
    coefficients; a bare ``degeneracy_rank`` still checks them first."""
    def unreached(*args, **kwargs):
        raise AssertionError("a second pass over the coefficients for the norm")

    monkeypatch.setattr("orbitent.oracle.check_unit_norm", unreached)
    state = random_state((2, 3, 2), rng=np.random.default_rng(35))
    assert analyze_state(state, oracle="verify").oracle["consistent"]
    with pytest.raises(AssertionError, match="second pass"):
        orbitent.degeneracy_rank(state)


def _schmidt_states(n, rng):
    """A generic (n, n) state and rotated Schmidt states on degenerate
    strata: a kernel, equal weights, and a block of eight or more."""
    profiles = [(1,) * (n // 2), (n // 2, n - n // 2), (n,)]
    if n >= 8:
        profiles.append((n // 4, n // 4))
    if n >= 16:
        profiles.append((8, 1, n // 4))
    states = [random_state((n, n), rng=rng)]
    for profile in profiles:
        weights = [1 / (b + 1) for b, m in enumerate(profile) for _ in range(m)]
        diag = np.zeros((n, n))
        diag[range(len(weights)), range(len(weights))] = np.sqrt(weights)
        states.append(apply_local(build_state(diag), random_local_unitaries((n, n), rng=rng)))
    return states


@pytest.mark.parametrize("n", [2, 3, 8, 64])
def test_closed_form_two_party_route_takes_one_schmidt_spectrum(n):
    """With the oracle off, two equal parties share party 1's clustering:
    their marginals have one spectrum, zeros included.  Its profile is
    the one party 2's own spectrum gives, and up to n = 8 its integers
    are the oracle's."""
    for state in _schmidt_states(n, np.random.default_rng(40 + n)):
        rep = analyze_state(state)
        assert rep.clusterings[1] == rep.clusterings[0]
        own = cluster_spectrum(np.linalg.eigvalsh(reduced_matrices(state).matrices[1])[::-1])
        assert rep.clusterings[1].profile() == own.profile()
        c = rep.clusterings[0]
        assert rep.orbit_dim == 2 * n * n - 2 * c.kernel_dim**2 - c.square_sum - 1
        if n <= 8:
            checked = analyze_state(state, oracle="verify")
            assert ((rep.orbit_dim, rep.coadjoint_dim, rep.degeneracy, rep.separable)
                    == (checked.orbit_dim, checked.coadjoint_dim, checked.degeneracy,
                        checked.separable))
            assert [x.profile() for x in checked.clusterings] == [c.profile()] * 2


@pytest.mark.parametrize("dims, weights, message", [
    ((3, 3), [0.5 + 2.5e-8, 0.5 - 2.5e-8, 0.0],
     "spectral gap 5.000e-08 lies within a factor 10 of the threshold 5.000e-08"),
    ((4, 4), [0.6, 0.4 - 2e-7, 2e-7, 0.0],
     "spectral gap 2.000e-07 lies within a factor 10 of the threshold 6.000e-08"),
    ((2, 2), [1 - 2e-7, 2e-7],
     "eigenvalue 2.000e-07 lies within a factor 10 of the threshold 1.000e-07")])
def test_one_schmidt_spectrum_refuses_near_its_cut_as_before(dims, weights, message):
    """A Schmidt spectrum near its cut is refused with the message both
    marginals gave when each was clustered, with the oracle off or on."""
    c = np.diag(np.sqrt(weights))
    state = apply_local(build_state(c), random_local_unitaries(dims, rng=41))
    for oracle in ("off", "verify"):
        with pytest.raises(AmbiguousClustering) as refused:
            analyze_state(state, oracle=oracle)
        assert str(refused.value) == message + "; adjust the tolerance"


@pytest.mark.parametrize("state, unset", [
    (bell_state(), ()),
    (build_state([1.0, 1j, 0.0]), ()),
    (random_state((2, 2, 2), rng=35), ()),
    (random_state((2, 3), rng=36), ()),
    (random_state((3, 3), BOSONIC, rng=37), ()),
    (symmetrize(np.outer([1, 0, 0], [0, 1, 0]), BOSONIC), ("boson_convention",)),
], ids=["bipartite", "single", "bounds", "unequal", "bosons", "bosons-no-convention"])
def test_a_hand_built_report_selects_its_route_by_dims_and_symmetry(state, unset):
    """A report built by hand, with the fields in ``unset`` left at their
    defaults, checks and renders as ``analyze_state``'s; a bosonic one
    with no convention reads under the default convention."""
    built = analyze_state(state, oracle="verify")
    by_hand = DegeneracyReport(**{
        field.name: getattr(built, field.name)
        for field in dataclasses.fields(DegeneracyReport)
        if field.name not in ("route", "consistency", *unset)})
    assert by_hand.route is None
    record = orbitent.report.check_consistency(by_hand, state)
    assert record == built.consistency and record.passed
    assert _render_report(by_hand) == _render_report(built)
