"""Clustering and the integer dimension formulas."""

import numpy as np
import pytest

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
