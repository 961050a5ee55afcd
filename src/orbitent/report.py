"""Assemble full degeneracy reports: spectra -> clusterings -> counts.

``analyze_states`` (and ``analyze_state``, its stack of one) is the one
place that decides which formula gives each integer.  ``ROUTES`` holds one
record per formula family (its integers, its formula-versus-oracle
comparison and its notes), ``select_route`` picks one by dims and
symmetry, and ``SEPARABILITY`` holds each separability rule beside its
note, by symmetry class or, for bosons, by boson convention.  ``cli``
renders these records and decides nothing.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

from .errors import Inconsistency, OrbitentError
from .exact import (  # noqa: F401  (the parser's constants, re-exported)
    BOSON_CONVENTIONS,
    BOSON_PRODUCT,
    BOSON_SYMMETRIC_SIMPLE,
    ORACLE_MODES,
    ORACLE_OFF,
    ORACLE_VERIFY,
)
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
from .oracle import degeneracy_rank, footprint
from .states import BOSONIC, DISTINGUISHABLE, FERMIONIC, StateStack, StateTensor, acting_dims

#: analyze_states stacks at most this many bytes of what the oracle builds
#: per state into one chunk (see ``_stack_length``)
STACK_BYTES = 2**20


class Route(NamedTuple):
    """One formula family.  ``counts(dims, clusterings, coadjoint, rank)``
    gives (orbit dim, D), each an int or a (low, high) pair of bounds; only
    the ``oracle`` route reads ``rank``, the oracle's ``DegeneracyRank``
    (None with the oracle off).  ``mode`` is its ConsistencyRecord.mode."""

    name: str
    counts: Callable
    mode: str
    orbit_note: str
    degeneracy_note: str


def _bipartite_counts(dims, clusterings, coadjoint, rank):
    return (orbit_dimension_bipartite(clusterings[0], dims[0]),
            degeneracy_bipartite(clusterings[0]))


def _bounds_counts(dims, clusterings, coadjoint, rank):
    low, high = degeneracy_bounds(clusterings)
    if low == high:
        return coadjoint + low, low
    return (coadjoint + low, coadjoint + high), (low, high)


#: the formula families by name; the counts look the measure functions up
#: when they run, so a wrapper patched into this module sees every call
ROUTES = {route.name: route for route in (
    # two distinguishable parties of equal dim: exact closed forms
    Route("bipartite", _bipartite_counts, "exact",
          "dim(O) = 2N^2 - 2 m0^2 - sum m_n^2 - 1", "D = sum_{n>=1} m_n^2 - 1"),
    # one party: the orbit is all of projective space
    Route("single", lambda dims, clusterings, coadjoint, rank: (coadjoint, 0),
          "exact", *("one party: dim(O) = dim(mu(O)) = 2(N - 1), D = 0",) * 2),
    # three or more distinguishable parties: bounds on D
    Route("bounds", _bounds_counts, "bounds",
          *("max_k S_k - 1 <= D <= sum_k S_k - M,  S_k = sum m_kn^2",) * 2),
    # unequal bipartite dims, bosons, fermions: the oracle runs in every
    # mode; its s is the coadjoint formula by construction, so nothing is
    # compared
    Route("oracle", lambda dims, clusterings, coadjoint, rank:
          (rank.orbit_dim, rank.degeneracy), "none", *("numerical oracle",) * 2),
)}


def select_route(dims: tuple[int, ...], symmetry: str) -> Route:
    """The route of every state of one class."""
    if symmetry != DISTINGUISHABLE:
        return ROUTES["oracle"]
    if len(dims) == 1:
        return ROUTES["single"]
    if len(dims) >= 3:
        return ROUTES["bounds"]
    return ROUTES["bipartite" if dims[0] == dims[1] else "oracle"]


class Separability(NamedTuple):
    rule: Callable  # (clusterings, degeneracy, parties) -> True, False or None
    note: str


def _symmetric_simple(clusterings, degeneracy, parties):
    # D = 0: the orbit passes through a symmetrized basis vector; a state
    # of two bosons is a symmetrized simple tensor iff its coefficient
    # matrix has rank <= 2
    if degeneracy == 0:
        return True
    if parties == 2:
        return clusterings[0].positive_rank <= 2
    return None  # no criterion available beyond the symplectic orbit


#: the separability rule and its note, by symmetry class or boson convention
SEPARABILITY = {
    DISTINGUISHABLE: Separability(
        lambda clusterings, degeneracy, parties: separability_test(clusterings),
        "separable iff every party has sum_{n>=1} m_kn^2 = 1"),
    # an antisymmetric M-tensor of reduced rank M is one Slater determinant
    FERMIONIC: Separability(
        lambda clusterings, degeneracy, parties: clusterings[0].positive_rank == parties,
        "single Slater iff reduced rank = particle count"),
    BOSON_PRODUCT: Separability(
        lambda clusterings, degeneracy, parties: clusterings[0].positive_rank == 1,
        "v^(x)M iff reduced rank = 1"),
    BOSON_SYMMETRIC_SIMPLE: Separability(
        _symmetric_simple, "D = 0 implies yes; rank <= 2 decides 2 bosons"),
}


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


def _check_options(cluster_tol, oracle, boson_convention) -> None:
    """Refuse a cluster tolerance, oracle mode or boson convention out of
    range; the oracle's rank cut is the fixed ``oracle.RANK_TOL``."""
    check_tolerance(cluster_tol, "clustering")
    if oracle not in ORACLE_MODES:
        raise ValueError(f"oracle mode must be one of {ORACLE_MODES}")
    if boson_convention not in BOSON_CONVENTIONS:
        raise ValueError(
            f"boson convention must be one of {BOSON_CONVENTIONS}")


def analyze_state(state: StateTensor,
                  cluster_tol: float = DEFAULT_CLUSTER_TOL,
                  oracle: str = ORACLE_OFF,
                  boson_convention: str = BOSON_SYMMETRIC_SIMPLE,
                  ) -> DegeneracyReport:
    """Degeneracy report for one state.

    ``oracle`` is off or verify: "verify" attaches the numerical ranks and
    checks them against the formulas (raising Inconsistency on
    disagreement).  The cluster tolerance is checked on entry, whether or
    not the oracle runs.  The state is analyzed as a stack of one, a view of
    its coefficients, by the steps :func:`analyze_states` runs per chunk.
    """
    _check_options(cluster_tol, oracle, boson_convention)
    route, (clusterings,), (rank,) = _clusterings([state], cluster_tol, oracle)
    return _report(state, clusterings, rank, route, boson_convention)


def analyze_states(states,
                   cluster_tol: float = DEFAULT_CLUSTER_TOL,
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
    _check_options(cluster_tol, oracle, boson_convention)
    for chunk in _chunks(states):
        yield from _analyze_chunk(chunk, cluster_tol, oracle, boson_convention)


def _analyze_chunk(chunk, cluster_tol, oracle, boson_convention):
    """The reports of one chunk of same-class states, from one stack; when
    the stack raises, from one stack per state, in order: the reports
    before the first refused state are yielded, and a refusal decided for
    the whole stack (the norm check, the oracle's budget and rank cut)
    names its own state, as the clustering walk's refusals already do."""
    try:
        route, clusterings, ranks = _clusterings(chunk, cluster_tol, oracle)
    except (OrbitentError, ValueError):
        if len(chunk) == 1:
            raise
        for state in chunk:
            yield from _analyze_chunk([state], cluster_tol, oracle, boson_convention)
        return
    for state, clustering, rank in zip(chunk, clusterings, ranks):
        yield _report(state, clustering, rank, route, boson_convention)


def _clusterings(chunk, cluster_tol, oracle):
    """(route, clusterings per state, oracle ranks per state) of a list of
    same-class states, from one stack.

    Without the oracle the closed forms read the reduced spectra alone:
    one ``eigvalsh`` and one sort per party dim, one walk per spectrum.
    Two equal parties build party 1's matrix alone, since conj(C C^dag) and
    (C^dag C)^T of a square C have one spectrum, zeros included, and party
    1's clustering serves both."""
    stack = StateStack.of(chunk)
    route = select_route(stack.dims, stack.symmetry)
    closed = oracle == ORACLE_OFF and route.name != "oracle"
    schmidt = closed and route.name == "bipartite"
    reduced = reduced_matrices(stack, parties=(0,) if schmidt else None)
    reduced.check_unit_norm("analyze_state")
    if not closed:
        # one eigh per party dim gives the spectra and the oracle's bases
        eigenbases = marginal_eigenbases(reduced, cluster_tol)
        return route, eigenbases[1], degeneracy_rank(stack, eigenbases=eigenbases)
    clusterings = cluster_spectra(reduced.spectra(), cluster_tol)
    if schmidt:
        clusterings = [(c, c) for (c,) in clusterings]
    return route, clusterings, [None] * len(chunk)


def _report(state, clusterings, rank, route, boson_convention):
    """The report of one state from its clusterings and oracle ranks."""
    # indistinguishable particles: one common reduced matrix, one SU(N)
    group = acting_dims(state.dims, state.symmetry)
    coadjoint = coadjoint_dimension(clusterings[:len(group)], group)
    orbit_dim, degeneracy = route.counts(state.dims, clusterings, coadjoint, rank)
    convention = boson_convention if state.symmetry == BOSONIC else None
    separable = SEPARABILITY[convention or state.symmetry].rule(
        clusterings, degeneracy, state.parties)
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
        route=route.name,
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

    The comparison is the mode of the route that ``select_route`` gives
    the report's dims and symmetry: "exact" (one party, two equal parties)
    needs orbit and degeneracy dimensions to match; "bounds" (M >= 3)
    needs D to lie inside the bounds; "none" (the oracle route) has no
    closed form to compare.  The oracle's symplectic rank is
    the coadjoint formula of the report's own clustering by construction,
    so it is never compared.  Raises Inconsistency, with the falsifying
    state serialized into the record, on any mismatch.
    """
    mode = select_route(report.dims, report.symmetry).mode
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
