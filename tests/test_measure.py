"""Clustering and the integer dimension formulas."""

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
