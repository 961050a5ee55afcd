"""Assemble full degeneracy reports: spectra -> clusterings -> counts.

``analyze_states`` (and ``analyze_state``, its stack of one) is the one
place that decides which formula gives each integer.  It picks one of four
routes, which the report carries:

  bipartite   two distinguishable parties of equal dim: exact closed forms
  single      one party: the orbit is all of projective space, D = 0
  bounds      three or more distinguishable parties: exact coadjoint
              dimension, bounds on D
  oracle      unequal bipartite dims, bosons, fermions: no closed form for
              the orbit, so the numerical oracle runs whatever the
              requested oracle mode and gives r and D; its s is the
              coadjoint formula by construction, so nothing is compared

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

import functools
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import Inconsistency, OrbitentError
from .io import state_to_document
from .measure import (
    DEFAULT_CLUSTER_TOL,
    DegeneracyReport,
    check_tolerance,
    coadjoint_dimension,
    degeneracy_bipartite,
    degeneracy_bounds,
    orbit_dimension_bipartite,
    separability_test,
)
from .moment import (
    cluster_spectra,
    marginal_eigenbases,
    reduced_matrices,
)
from .oracle import DEFAULT_RANK_TOL, degeneracy_rank, footprint
from .states import DISTINGUISHABLE, FERMIONIC, StateStack, StateTensor, acting_dims

ORACLE_OFF = "off"
ORACLE_VERIFY = "verify"
ORACLE_MODES = (ORACLE_OFF, ORACLE_VERIFY)

BOSON_SYMMETRIC_SIMPLE = "symmetric-simple-tensor"
BOSON_PRODUCT = "product-of-same-vector"
BOSON_CONVENTIONS = (BOSON_SYMMETRIC_SIMPLE, BOSON_PRODUCT)

#: analyze_states stacks at most this many bytes of what the oracle builds
#: per state into one chunk (see ``_stack_length``)
STACK_BYTES = 2**20

ROUTE_BIPARTITE = "bipartite"
ROUTE_SINGLE = "single"
ROUTE_BOUNDS = "bounds"
ROUTE_ORACLE = "oracle"
#: the formula-versus-oracle comparison of each route (ConsistencyRecord.mode)
_CHECK_MODES = {
    ROUTE_BIPARTITE: "exact",
    ROUTE_SINGLE: "exact",
    ROUTE_BOUNDS: "bounds",
    ROUTE_ORACLE: "none",
}


def _collapse(low: int, high: int):
    return low if low == high else (low, high)


def _route(state: StateTensor | StateStack) -> str:
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


@functools.lru_cache(maxsize=64)
def _stack_length(dims: tuple[int, ...], symmetry: str) -> int:
    """How many states of this class one chunk holds: as many as fit
    STACK_BYTES of what the oracle builds per state, with every pair
    direction kept, the bound before clustering (``oracle.footprint``),
    and at least one."""
    return max(1, STACK_BYTES // footprint(dims, symmetry)[0])


def _chunks(states):
    """Consecutive states of one class (dims and symmetry), at most
    ``_stack_length`` of them at a time."""
    chunk, limit = [], 0
    for state in states:
        if chunk and (len(chunk) == limit or state.dims != chunk[0].dims
                      or state.symmetry != chunk[0].symmetry):
            yield chunk
            chunk = []
        if not chunk:
            limit = _stack_length(state.dims, state.symmetry)
        chunk.append(state)
    if chunk:
        yield chunk


def _check_options(cluster_tol, rank_tol, oracle, boson_convention) -> None:
    """Refuse a tolerance, oracle mode or boson convention out of range."""
    check_tolerance(cluster_tol, "clustering")
    check_tolerance(rank_tol, "rank")
    if oracle not in ORACLE_MODES:
        raise ValueError(f"oracle mode must be one of {ORACLE_MODES}")
    if boson_convention not in BOSON_CONVENTIONS:
        raise ValueError(
            f"boson convention must be one of {BOSON_CONVENTIONS}")


def analyze_state(state: StateTensor,
                  cluster_tol: float = DEFAULT_CLUSTER_TOL,
                  rank_tol: float = DEFAULT_RANK_TOL,
                  oracle: str = ORACLE_OFF,
                  boson_convention: str = BOSON_SYMMETRIC_SIMPLE,
                  ) -> DegeneracyReport:
    """Degeneracy report for one state.

    ``oracle`` is off or verify: "verify" attaches the numerical ranks and
    checks them against the formulas (raising Inconsistency on
    disagreement).  Both tolerances are checked on entry, whether or not
    the oracle runs.  The state is analyzed as a stack of one, a view of
    its coefficients, by the steps :func:`analyze_states` runs per chunk.
    """
    _check_options(cluster_tol, rank_tol, oracle, boson_convention)
    route, (clusterings,), (rank,) = _clusterings([state], cluster_tol,
                                                  rank_tol, oracle)
    return _report(state, clusterings, rank, route, boson_convention)


def analyze_states(states,
                   cluster_tol: float = DEFAULT_CLUSTER_TOL,
                   rank_tol: float = DEFAULT_RANK_TOL,
                   oracle: str = ORACLE_OFF,
                   boson_convention: str = BOSON_SYMMETRIC_SIMPLE,
                   ) -> Iterator[DegeneracyReport]:
    """Lazily yield the report of :func:`analyze_state` for each state of
    an iterable, in order.

    Consecutive states of one class are analyzed together as a
    ``StateStack`` of at most STACK_BYTES per chunk: reduced matrices,
    spectra, clusterings and the oracle ranks run once per chunk, and only
    the integer formulas, the report and the consistency record run per
    state.  When a chunk raises, its states are replayed one at a time, so
    the reports before the first failing state are yielded and that state
    raises its own exception and message, as a loop of ``analyze_state``
    would.
    """
    _check_options(cluster_tol, rank_tol, oracle, boson_convention)
    for chunk in _chunks(states):
        yield from _analyze_chunk(chunk, cluster_tol, rank_tol, oracle,
                                  boson_convention)


def _analyze_chunk(chunk, cluster_tol, rank_tol, oracle, boson_convention):
    """The reports of one chunk of same-class states, from one stack; when
    the stack raises, from one stack per state, in order."""
    try:
        route, clusterings, ranks = _clusterings(chunk, cluster_tol, rank_tol,
                                                 oracle)
    except (OrbitentError, ValueError):
        if len(chunk) == 1:
            raise
        for state in chunk:
            yield from _analyze_chunk([state], cluster_tol, rank_tol, oracle,
                                      boson_convention)
        return
    for state, clustering, rank in zip(chunk, clusterings, ranks):
        yield _report(state, clustering, rank, route, boson_convention)


def _clusterings(chunk, cluster_tol, rank_tol, oracle):
    """(route, clusterings per state, oracle ranks per state) of a list of
    same-class states, from one stack.

    Without the oracle the closed forms read the reduced spectra alone:
    one ``eigvalsh`` and one clustering call per party dim.  Two equal
    parties build party 1's matrix alone, since conj(C C^dag) and
    (C^dag C)^T of a square C have one spectrum, zeros included, and
    party 1's clustering serves both."""
    stack = StateStack.of(chunk)
    route = _route(stack)
    closed = oracle == ORACLE_OFF and route != ROUTE_ORACLE
    schmidt = closed and route == ROUTE_BIPARTITE
    reduced = reduced_matrices(stack, parties=(0,) if schmidt else None)
    reduced.check_unit_norm("analyze_state")
    if not closed:
        # one eigh per party dim gives the spectra and the oracle's bases
        eigenbases = marginal_eigenbases(reduced, cluster_tol)
        return route, eigenbases[1], degeneracy_rank(stack, rank_tol, eigenbases)
    clusterings = cluster_spectra(reduced.spectra(), cluster_tol)
    if schmidt:
        clusterings = [(c, c) for (c,) in clusterings]
    return route, clusterings, [None] * len(chunk)


def _report(state, clusterings, rank, route, boson_convention):
    """The report of one state from its clusterings and oracle ranks."""
    # indistinguishable particles: one common reduced matrix, one SU(N)
    group = acting_dims(state.dims, state.symmetry)
    coadjoint = coadjoint_dimension(clusterings[:len(group)], group)
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
    # the record compares the formulas of this report, and is attached
    # before the report leaves here
    object.__setattr__(report, "consistency", check_consistency(report, state))
    return report


@dataclass(frozen=True)
class ConsistencyRecord:
    """One formula-versus-oracle comparison."""

    dims: tuple[int, ...]
    symmetry: str
    mode: str  # "exact", "bounds" for M >= 3, "none" without closed form
    expected: dict
    observed: dict
    passed: bool
    state_document: dict | None = None

    def to_json_dict(self) -> dict:
        doc = {
            "dims": list(self.dims),
            "symmetry": self.symmetry,
            "mode": self.mode,
            "expected": dict(self.expected),
            "observed": dict(self.observed),
            "passed": self.passed,
        }
        if self.state_document is not None:
            doc["state"] = self.state_document
        return doc


def check_consistency(report: DegeneracyReport,
                      state: StateTensor) -> ConsistencyRecord:
    """Compare the oracle ranks attached to a report with its formulas.

    The comparison follows the report's route: "exact" (one party, two
    equal parties) needs orbit and degeneracy dimensions to match;
    "bounds" (M >= 3) needs D to lie inside the bounds; "none" (the oracle
    route) has no closed form to compare.  The oracle's symplectic rank is
    the coadjoint formula of the report's own clustering by construction,
    so it is never compared.  Raises Inconsistency, with the falsifying
    state serialized into the record, on any mismatch.
    """
    mode = _CHECK_MODES[report.route]
    ranks = report.oracle
    observed = {
        "orbit_dim": ranks["orbit_dim"],
        "coadjoint_dim": ranks["symplectic_rank"],
        "degeneracy": ranks["degeneracy"],
    }
    expected, passed = {}, True
    if mode == "exact":
        expected = {"orbit_dim": report.orbit_dim, "degeneracy": report.degeneracy}
        passed = all(observed[key] == value for key, value in expected.items())
    elif mode == "bounds":
        low, high = (report.degeneracy if isinstance(report.degeneracy, tuple)
                     else (report.degeneracy,) * 2)
        expected = {"degeneracy_low": low, "degeneracy_high": high}
        passed = low <= observed["degeneracy"] <= high
    record = ConsistencyRecord(
        report.dims, report.symmetry, mode, expected, observed, passed,
        state_document=None if passed else state_to_document(state))
    if not passed:
        raise Inconsistency(
            f"oracle ranks {observed} contradict the formulas {expected}",
            record=record)
    return record
