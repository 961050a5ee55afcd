"""Clustering and the integer dimension formulas."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitent import (
    AmbiguousClustering,
    DimensionMismatch,
    SpectrumClustering,
    cluster_spectrum,
    coadjoint_dimension,
    degeneracy_bipartite,
    degeneracy_bounds,
    orbit_dimension_bipartite,
    separability_test,
)
from orbitent.measure import _cluster_rows, decide


def test_cluster_exact_degeneracy():
    c = cluster_spectrum([0.5, 0.5], tol=1e-8)
    assert c.kernel_dim == 0
    assert c.multiplicities == (2,)


def test_cluster_kernel_detection():
    c = cluster_spectrum([1.0, 0.0], tol=1e-8)
    assert c.kernel_dim == 1
    assert c.multiplicities == (1,)


def test_cluster_constructed_gap_case():
    c = cluster_spectrum([0.6, 0.4 - 1e-9, 1e-12], tol=1e-8)
    assert c.kernel_dim == 1
    assert c.multiplicities == (1, 1)
    assert c.blocks[0][0] == pytest.approx(0.6)


def test_cluster_ambiguous_gap_raises():
    # gap of 5e-8 sits inside (eff/10, eff*10) for eff ~ 5e-8
    with pytest.raises(AmbiguousClustering):
        cluster_spectrum([0.5 + 2.5e-8, 0.5 - 2.5e-8], tol=1e-7)


def test_cluster_ambiguous_kernel_value_raises():
    values = [1.0 - 2e-7, 2e-7]
    with pytest.raises(AmbiguousClustering):
        cluster_spectrum(values, tol=1e-7)


@pytest.mark.parametrize("factor, decided", [
    (8.0, None), (12.0, (1, 1)), (1 / 8, None), (1 / 12, (2,))])
def test_cluster_gap_refused_within_factor_ten_of_the_cut(factor, decided):
    tol = 1e-7
    gap = factor * tol * 0.5  # the cut is tol * max, and max is about 1/2
    values = [0.5 + gap / 2, 0.5 - gap / 2]
    if decided is None:
        with pytest.raises(AmbiguousClustering):
            cluster_spectrum(values, tol)
    else:
        c = cluster_spectrum(values, tol)
        assert c.multiplicities == decided and c.kernel_dim == 0


@pytest.mark.parametrize("factor, decided", [
    (8.0, None), (12.0, (0, (1, 1))), (1 / 8, None), (1 / 12, (1, (1,)))])
def test_cluster_value_refused_within_factor_ten_of_the_cut(factor, decided):
    tol = 1e-7
    small = factor * tol  # the cut is tol * max, and max is about 1
    values = [1.0 - small, small]
    if decided is None:
        with pytest.raises(AmbiguousClustering):
            cluster_spectrum(values, tol)
    else:
        assert cluster_spectrum(values, tol).profile() == decided


def test_cluster_rejects_bad_input():
    with pytest.raises(ValueError):
        cluster_spectrum([0.9, 0.2])  # sums to 1.1
    with pytest.raises(ValueError):
        cluster_spectrum([1.2, -0.2])
    with pytest.raises(ValueError):
        cluster_spectrum([0.5, 0.5], tol=0.5)
    with pytest.raises(ValueError):
        cluster_spectrum([float("nan"), 1.0])


def test_orbit_dimension_bipartite_examples():
    bell = cluster_spectrum([0.5, 0.5])
    assert orbit_dimension_bipartite(bell, 2) == 3
    product = cluster_spectrum([1.0, 0.0])
    assert orbit_dimension_bipartite(product, 2) == 4
    generic3 = cluster_spectrum([0.5, 0.3, 0.2])
    assert orbit_dimension_bipartite(generic3, 3) == 14


def test_coadjoint_dimension_examples():
    bell = cluster_spectrum([0.5, 0.5])
    assert coadjoint_dimension([bell, bell], [2, 2]) == 0
    product = cluster_spectrum([1.0, 0.0])
    assert coadjoint_dimension([product, product], [2, 2]) == 4
    ghz = [cluster_spectrum([0.5, 0.5])] * 3
    assert coadjoint_dimension(ghz, [2, 2, 2]) == 0


def test_degeneracy_bipartite_examples():
    assert degeneracy_bipartite(cluster_spectrum([0.5, 0.5])) == 3
    assert degeneracy_bipartite(cluster_spectrum([1.0, 0.0])) == 0
    two_one = cluster_spectrum([0.5, 0.25, 0.25])
    assert degeneracy_bipartite(two_one) == 4


def test_degeneracy_bounds_examples():
    ghz = [cluster_spectrum([0.5, 0.5])] * 3
    assert degeneracy_bounds(ghz) == (3, 9)
    w = [cluster_spectrum([2 / 3, 1 / 3])] * 3
    assert degeneracy_bounds(w) == (1, 3)
    product = [cluster_spectrum([1.0, 0.0])] * 3
    assert degeneracy_bounds(product) == (0, 0)
    with pytest.raises(DimensionMismatch):
        degeneracy_bounds([cluster_spectrum([0.5, 0.5])] * 2)


def test_separability_test_examples():
    product = cluster_spectrum([1.0, 0.0])
    bell = cluster_spectrum([0.5, 0.5])
    assert separability_test([product, product])
    assert not separability_test([bell, bell])
    assert not separability_test([bell] * 3)


def _partitions(n):
    """All multisets of positive integers summing to n, descending."""
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in _partitions(n - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def _clustering(kernel, mults):
    # synthetic distinct descending values; only the integers matter
    values = [1.0 / (i + 1.5) for i in range(len(mults))]
    return SpectrumClustering(kernel, tuple(zip(values, mults)), 1e-7)


def test_additivity_identity_over_all_small_partitions():
    """orbit - coadjoint = degeneracy, exactly, for every multiplicity
    pattern of bipartite equal-dims states up to N = 6."""
    for n in range(2, 7):
        for kernel in range(0, n):
            for mults in _partitions(n - kernel):
                c = _clustering(kernel, mults)
                orbit = orbit_dimension_bipartite(c, n)
                coad = coadjoint_dimension([c, c], [n, n])
                assert orbit - coad == degeneracy_bipartite(c)


def test_clustering_size_checks():
    c = cluster_spectrum([0.5, 0.5])
    with pytest.raises(DimensionMismatch):
        orbit_dimension_bipartite(c, 3)
    with pytest.raises(DimensionMismatch):
        coadjoint_dimension([c], [2, 2])


def test_spectrum_clustering_validation():
    with pytest.raises(ValueError):
        SpectrumClustering(-1, ((0.5, 2),), 1e-7)
    with pytest.raises(ValueError):
        SpectrumClustering(0, ((0.5, 0),), 1e-7)
    with pytest.raises(ValueError):
        SpectrumClustering(0, ((0.4, 1), (0.6, 1)), 1e-7)  # not descending
    # a bad multiplicity is named ahead of a bad order, wherever it sits
    with pytest.raises(ValueError, match="multiplicities"):
        SpectrumClustering(0, ((0.4, 1), (0.6, 1), (0.1, 0)), 1e-7)
    c = SpectrumClustering(2, ((0.5, 2), (0.3, 1), (0.1, 3)), 1e-7)
    assert (c.multiplicities, c.positive_rank, c.square_sum, c.size) == ((2, 1, 3), 6, 14, 8)


def test_cluster_spectrum_of_rows_equals_one_call_per_row():
    rows = np.array([[0.5, 0.5, 0.0], [0.6, 0.3, 0.1], [1.0, 0.0, 0.0],
                     [0.4, 0.4, 0.2], [0.25, 0.25, 0.5]])
    clusterings = cluster_spectrum(rows)
    assert clusterings == tuple(cluster_spectrum(row) for row in rows)
    assert [c.profile() for c in clusterings] == [
        (1, (2,)), (0, (1, 1, 1)), (2, (1,)), (0, (2, 1)), (0, (1, 2))]


def test_cluster_spectrum_of_rows_raises_the_first_failing_rows_error():
    good = [0.6, 0.3, 0.1]
    close_pair = [0.5 + 2.5e-8, 0.5 - 2.5e-8, 0.0]  # gap 5e-8 at a 5e-8 cut
    small = [1.0 - 2e-7, 2e-7, 0.0]  # gap 2e-7 at a 1e-7 cut
    for first, second in ((close_pair, small), (small, close_pair)):
        with pytest.raises(AmbiguousClustering) as alone:
            cluster_spectrum(first)
        with pytest.raises(AmbiguousClustering) as stacked:
            cluster_spectrum([good, first, second])
        assert str(stacked.value) == str(alone.value)
    with pytest.raises(ValueError, match="sum to 1"):
        cluster_spectrum([good, [0.9, 0.2, 0.0]])


def test_decide_names_the_offending_rows_own_cut():
    values = np.array([[1.0, 0.5], [3e-8, 1.0], [1.0, 1e-13]])
    cut = np.array([[1e-6], [1e-8], [1e-10]])
    with pytest.raises(AmbiguousClustering,
                       match=r"value 3\.000e-08 .* threshold 1\.000e-08"):
        decide(values, cut, AmbiguousClustering, "value")
    assert decide(values, np.array([[1e-12], [1e-6], [1e-10]]), AmbiguousClustering,
                  "value").tolist() == [[True, True], [False, True], [True, False]]


def reference_cluster_rows(rows, tol):
    """``measure._cluster_rows`` with one ``decide`` call per kind, gaps
    first and then values, each with its own near-cut test."""
    if not (rows.min() >= -1e-10 and rows.max() <= 1.0 + 1e-8):
        raise ValueError("eigenvalues must lie in [0, 1]")
    if any(abs(total - 1.0) > 1e-8 for total in rows.sum(axis=1).tolist()):
        raise ValueError("spectrum must sum to 1")
    svals = -np.sort(-np.maximum(rows, 0.0), axis=1)
    eff = tol * svals[:, :1]
    splits = decide(svals[:, :-1] - svals[:, 1:], eff, AmbiguousClustering,
                    "spectral gap")
    positive = decide(svals, eff, AmbiguousClustering, "eigenvalue").sum(axis=1)
    out = []
    for row, split, count in zip(svals, splits.tolist(), positive.tolist()):
        blocks, start = [], 0
        for stop in range(1, count + 1):
            if stop == count or split[stop - 1]:
                value = (float(row[start:stop].mean()) if stop - start > 1
                         else float(row[start]))
                blocks.append((value, stop - start))
                start = stop
        out.append(SpectrumClustering(row.size - count, tuple(blocks), float(tol)))
    return tuple(out)


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the type and the message are compared
        return type(exc), str(exc)


#: with the largest value 1/2, this tolerance puts the cut at 5 * 2^-34, so
#: cut/10 = 2^-35 and 10 cut = 25 * 2^-33 hold exactly, and every gap below
#: 1/2 is an exact multiple of 2^-54, the spacing of the floats there
EXACT_TOL = 5 * 2.0**-33
LOW, HIGH = 2.0**-35, 25 * 2.0**-33


def edges(x):
    """x, and the floats just below and just above it."""
    return [np.nextafter(x, 0.0), x, np.nextafter(x, 1.0)]


def edge_rows():
    """Spectra [1/2, 1/2 - gap, value] with the gap, the value, or both at
    cut/10 or 10 cut, or one float inside or outside; a gap of 0 and a
    value of 0 are far from the cut.  The rows sum to 1 within 1e-8."""
    gaps = [0.0] + [0.5 - b for b in edges(0.5 - LOW) + edges(0.5 - HIGH)]
    values = [0.0] + edges(LOW) + edges(HIGH)
    return [[0.5, 0.5 - gap, value] for gap in gaps for value in values]


def test_edge_rows_sit_exactly_where_they_claim():
    rows = np.array(edge_rows())
    eff = EXACT_TOL * rows[:, :1]
    assert (eff / 10 == LOW).all() and (eff * 10 == HIGH).all()
    gaps = set((rows[:, 0] - rows[:, 1]).tolist())
    assert {LOW, HIGH} <= gaps and len(gaps) == 7
    assert (np.abs(rows.sum(axis=1) - 1.0) < 1e-8).all()


def test_one_near_cut_test_refuses_as_one_decide_per_kind():
    """Every edge row alone, and every pair of them as one 2-d array, gives
    the same clusterings as the reference, or the same exception type and
    message: a gap refusal wins over a value refusal in any row."""
    rows = edge_rows()
    kinds = set()
    for row in rows:
        got = outcome(_cluster_rows, np.array([row]), EXACT_TOL)
        assert got == outcome(reference_cluster_rows, np.array([row]), EXACT_TOL)
        kinds.add(got[1].split()[0] if isinstance(got[0], type) else "decided")
    assert kinds == {"spectral", "eigenvalue", "decided"}
    # the window is open: exactly at cut/10 or 10 cut, gaps and values decide
    (low,) = _cluster_rows(np.array([[0.5, 0.5 - LOW, LOW]]), EXACT_TOL)
    (high,) = _cluster_rows(np.array([[0.5, 0.5 - HIGH, HIGH]]), EXACT_TOL)
    assert (low.profile(), high.profile()) == ((1, (2,)), (0, (1, 1, 1)))
    for first in rows:
        for second in rows:
            pair = np.array([first, second])
            assert (outcome(_cluster_rows, pair, EXACT_TOL)
                    == outcome(reference_cluster_rows, pair, EXACT_TOL))


def nudged(x, steps):
    """The float ``steps`` floats above x (below for negative steps)."""
    for _ in range(abs(steps)):
        x = np.nextafter(x, np.inf if steps > 0 else -np.inf)
    return float(x)


@st.composite
def spectrum_rows(draw, length):
    """A spectrum of the given length with largest value 1/2, so the cut at
    EXACT_TOL is 5 * 2^-34 and LOW, HIGH are its window's ends exactly.

    The other values are kernel values and blocks of random multiplicity
    that share the remaining mass, each entry within a few floats of its
    block's value (a mean of 8 or more sums pairwise).  Kernel values are
    0, values far below the window or a negative rounding error.  A "gap"
    row puts one entry a gap LOW or HIGH, or one float either side, below
    its block; a "value" row puts one kernel value at LOW or HIGH, or one
    float either side.  The row is shuffled and sums to 1 within 1e-8."""
    kind = draw(st.sampled_from(["plain", "plain", "gap", "value"]))
    kernel = draw(st.integers(0, length - 2))
    values = [draw(st.sampled_from([0.0, 0.0, 1e-13, -3e-11])) for _ in range(kernel)]
    if kind == "value" and kernel:
        values[0] = draw(st.sampled_from(edges(LOW) + edges(HIGH)))
    multiplicities, left = [], length - 1 - kernel
    while left:
        multiplicities.append(draw(st.integers(1, left)))
        left -= multiplicities[-1]
    weights = [draw(st.floats(0.05, 1.0)) for _ in multiplicities]
    scale = (0.5 - sum(values)) / sum(w * m for w, m in zip(weights, multiplicities))
    row = [0.5]
    for w, m in zip(weights, multiplicities):
        row += [nudged(w * scale, draw(st.integers(-3, 3))) for _ in range(m)]
    if kind == "gap":
        at = draw(st.integers(1, len(row) - 1))
        row[at] = nudged(row[at] - draw(st.sampled_from([LOW, HIGH])),
                         draw(st.integers(-1, 1)))
    return draw(st.permutations(row + values))


@st.composite
def spectrum_stacks(draw):
    """1 to 6 spectra of one length, 2 to 12 values each."""
    length = draw(st.integers(2, 12))
    return np.array(draw(st.lists(spectrum_rows(length), min_size=1, max_size=6)))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(spectrum_stacks())
def test_cluster_rows_equals_the_reference(rows):
    """One walk per row gives the reference's clusterings bit for bit, or
    its exception type and message."""
    assert (outcome(_cluster_rows, rows, EXACT_TOL)
            == outcome(reference_cluster_rows, rows, EXACT_TOL))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_a_non_finite_value_in_any_row_is_out_of_range(bad):
    """A NaN or infinite value fails the range check wherever it sits,
    also behind a finite value in a later row of a stack."""
    for at in np.ndindex(3, 3):
        rows = np.array([[0.5, 0.3, 0.2], [1 / 3] * 3, [0.5, 0.5, 0.0]])
        rows[at] = bad
        expected = (ValueError, "eigenvalues must lie in [0, 1]")
        assert outcome(_cluster_rows, rows, EXACT_TOL) == expected
        assert outcome(reference_cluster_rows, rows, EXACT_TOL) == expected
        assert outcome(cluster_spectrum, rows) == expected
    assert outcome(cluster_spectrum, [[0.5, 0.5], [0.5, bad]]) == expected
