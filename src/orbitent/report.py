"""Assemble full degeneracy reports: spectra -> clusterings -> counts.

``analyze_state`` is the one place that decides which formula gives each
integer.  It picks one of four routes:

  bipartite   two distinguishable parties of equal dim: exact closed forms
  single      one party: the orbit is all of projective space, D = 0
  bounds      three or more distinguishable parties: exact coadjoint
              dimension, bounds on D
  oracle      unequal bipartite dims, bosons, fermions: no closed form for
              the orbit, so the numerical oracle runs whatever the
              requested oracle mode, and only the coadjoint formula is
              checked against it

The report carries its route; under oracle mode "only" the route becomes
``oracle-only`` because every integer then comes from the oracle.

Separability verdicts:

  distinguishable        every reduced matrix rank one (nondegenerate)
  fermionic              reduced rank equals the particle count M
                         (the antisymmetric power of an M-dim space is one
                         dimensional, so rank M forces a single Slater)
  bosonic, product-of-same-vector        reduced rank one (state = v^(x)M)
  bosonic, symmetric-simple-tensor       degeneracy zero implies yes (the
                         orbit then passes through a symmetrized basis
                         vector); for two bosons the complete test is
                         coefficient-matrix rank <= 2; otherwise unknown.
"""

from __future__ import annotations

from dataclasses import replace

from .errors import Inconsistency
from .io import state_to_document
from .measure import (
    DEFAULT_CLUSTER_TOL,
    DegeneracyReport,
    check_tolerance,
    cluster_spectrum,
    coadjoint_dimension,
    degeneracy_bipartite,
    degeneracy_bounds,
    orbit_dimension_bipartite,
    separability_test,
)
from .moment import reduced_matrices
from .oracle import DEFAULT_RANK_TOL, ConsistencyRecord, degeneracy_rank
from .states import DISTINGUISHABLE, FERMIONIC, StateTensor

ORACLE_OFF = "off"
ORACLE_VERIFY = "verify"
ORACLE_ONLY = "only"
ORACLE_MODES = (ORACLE_OFF, ORACLE_VERIFY, ORACLE_ONLY)

BOSON_SYMMETRIC_SIMPLE = "symmetric-simple-tensor"
BOSON_PRODUCT = "product-of-same-vector"
BOSON_CONVENTIONS = (BOSON_SYMMETRIC_SIMPLE, BOSON_PRODUCT)

ROUTE_BIPARTITE = "bipartite"
ROUTE_SINGLE = "single"
ROUTE_BOUNDS = "bounds"
ROUTE_ORACLE = "oracle"
ROUTE_ORACLE_ONLY = "oracle-only"
#: the formula-versus-oracle comparison of each route (ConsistencyRecord.mode)
_CHECK_MODES = {
    ROUTE_BIPARTITE: "exact",
    ROUTE_SINGLE: "exact",
    ROUTE_BOUNDS: "bounds",
    ROUTE_ORACLE: "coadjoint",
}


def _collapse(low: int, high: int):
    return low if low == high else (low, high)


def _route(state: StateTensor) -> str:
    if state.symmetry != DISTINGUISHABLE:
        return ROUTE_ORACLE
    if state.parties == 1:
        return ROUTE_SINGLE
    if state.parties >= 3:
        return ROUTE_BOUNDS
    return ROUTE_BIPARTITE if state.dims[0] == state.dims[1] else ROUTE_ORACLE


def _boson_separable(convention, clustering, degeneracy, parties):
    rank = clustering.positive_rank
    if convention == BOSON_PRODUCT:
        return rank == 1
    if degeneracy == 0:
        return True
    if parties == 2:
        return rank <= 2
    return None  # no criterion available beyond the symplectic orbit


def analyze_state(state: StateTensor,
                  cluster_tol: float = DEFAULT_CLUSTER_TOL,
                  rank_tol: float = DEFAULT_RANK_TOL,
                  oracle: str = ORACLE_OFF,
                  boson_convention: str = BOSON_SYMMETRIC_SIMPLE,
                  ) -> DegeneracyReport:
    """Degeneracy report for one state.

    ``oracle`` is one of off / verify / only: "verify" attaches the
    numerical ranks and checks them against the formulas (raising
    Inconsistency on disagreement), "only" checks them too and then reports
    the oracle numbers in place of the formulas.  Both tolerances are
    checked on entry, whether or not the oracle runs.
    """
    check_tolerance(cluster_tol, "clustering")
    check_tolerance(rank_tol, "rank")
    if oracle not in ORACLE_MODES:
        raise ValueError(f"oracle mode must be one of {ORACLE_MODES}")
    if boson_convention not in BOSON_CONVENTIONS:
        raise ValueError(
            f"boson convention must be one of {BOSON_CONVENTIONS}")
    spectra = reduced_matrices(state).spectra()
    clusterings = tuple(cluster_spectrum(s, cluster_tol) for s in spectra)
    route = _route(state)
    need_oracle = oracle != ORACLE_OFF or route == ROUTE_ORACLE
    rank = degeneracy_rank(state, rank_tol) if need_oracle else None

    if state.symmetry == DISTINGUISHABLE:
        coadjoint = coadjoint_dimension(clusterings, state.dims)
    else:  # one common reduced matrix; the acting group is the diagonal SU(N)
        coadjoint = coadjoint_dimension(clusterings[:1], state.dims[:1])
    if route == ROUTE_BIPARTITE:
        orbit_dim = orbit_dimension_bipartite(clusterings[0], state.dims[0])
        degeneracy = degeneracy_bipartite(clusterings[0])
    elif route == ROUTE_SINGLE:
        orbit_dim, degeneracy = coadjoint, 0
    elif route == ROUTE_BOUNDS:
        low, high = degeneracy_bounds(clusterings)
        degeneracy = _collapse(low, high)
        orbit_dim = _collapse(coadjoint + low, coadjoint + high)
    else:
        orbit_dim, degeneracy = rank.orbit_dim, rank.degeneracy

    convention = None
    if state.symmetry == DISTINGUISHABLE:
        separable = separability_test(clusterings)
    elif state.symmetry == FERMIONIC:
        separable = clusterings[0].positive_rank == state.parties
    else:
        separable = _boson_separable(
            boson_convention, clusterings[0], degeneracy, state.parties)
        convention = boson_convention

    report = DegeneracyReport(
        dims=state.dims,
        symmetry=state.symmetry,
        orbit_dim=orbit_dim,
        coadjoint_dim=coadjoint,
        degeneracy=degeneracy,
        separable=separable,
        clusterings=clusterings,
        # check_consistency raises below unless the ranks agree
        oracle=None if rank is None else dict(rank.to_json_dict(),
                                              consistent=True),
        boson_convention=convention,
        route=route,
    )
    if rank is None:
        return report
    check_consistency(report, state)
    if oracle == ORACLE_ONLY:
        report = replace(report,
                         orbit_dim=rank.orbit_dim,
                         coadjoint_dim=rank.symplectic_rank,
                         degeneracy=rank.degeneracy,
                         route=ROUTE_ORACLE_ONLY)
    return report


def check_consistency(report: DegeneracyReport,
                      state: StateTensor) -> ConsistencyRecord:
    """Compare the oracle ranks attached to a report with its formulas.

    The comparison follows the report's route: "exact" (one party, two
    equal parties) needs orbit, coadjoint and degeneracy dimensions to
    match; "bounds" (M >= 3) needs the coadjoint dimension to match and D
    to lie inside the bounds; "coadjoint" (the oracle route) needs the
    symplectic rank to match the coadjoint formula.  Raises Inconsistency,
    with the falsifying state serialized into the record, on any mismatch.
    """
    mode = _CHECK_MODES[report.route]
    ranks = report.oracle
    observed = {
        "orbit_dim": ranks["orbit_dim"],
        "coadjoint_dim": ranks["symplectic_rank"],
        "degeneracy": ranks["degeneracy"],
    }
    expected = {"coadjoint_dim": report.coadjoint_dim}
    passed = observed["coadjoint_dim"] == report.coadjoint_dim
    if mode == "exact":
        expected.update(orbit_dim=report.orbit_dim,
                        degeneracy=report.degeneracy)
        passed = observed == expected
    elif mode == "bounds":
        low, high = (report.degeneracy if isinstance(report.degeneracy, tuple)
                     else (report.degeneracy,) * 2)
        expected.update(degeneracy_low=low, degeneracy_high=high)
        passed = passed and low <= observed["degeneracy"] <= high
    record = ConsistencyRecord(
        report.dims, report.symmetry, mode, expected, observed, passed,
        state_document=None if passed else state_to_document(state))
    if not passed:
        raise Inconsistency(
            f"oracle ranks {observed} contradict the formulas {expected}",
            record=record)
    return record
