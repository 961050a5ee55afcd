"""One-party reductions, their eigenbases, Schmidt data, canonical forms.

The reduced matrix of party k is the explicit contraction

    (C^k)_{nl} = sum over all other indices of conj(C_{..n..}) C_{..l..},

a positive semidefinite trace-one matrix (never formed via the full density
matrix, so memory stays O(prod dims), not its square).  Its traceless part
C^k - I/N_k is party k's block of the moment-map image of the state in the
dual of the local algebra; a state maps into the Cartan dual exactly when
every C^k is diagonal, which the canonical form achieves by local special
unitaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EnumerationTooLarge,
    NotBipartite,
    NotNormalized,
    SymmetryViolation,
)
from .measure import (
    DEFAULT_CLUSTER_TOL,
    _walk,
    check_tolerance,
    cluster_spectrum,
)
from .states import (
    DISTINGUISHABLE,
    NORM_TOL,
    LocalUnitaryTuple,
    StateStack,
    StateTensor,
    apply_local,
    build_state,
    check_unit_norm,
    party_rows,
)

#: the most bytes the reduced matrices of one stack, or what the oracle
#: builds for one (``oracle.footprint``), may take; a larger request is
#: refused with EnumerationTooLarge before anything is allocated
BYTE_BUDGET = 2**28


@dataclass(frozen=True)
class ReducedMatrices:
    """One positive semidefinite trace-one matrix per party built, (N_k,
    N_k), or (B, N_k, N_k) for a stack of B states."""

    matrices: tuple[np.ndarray, ...]

    def check_unit_norm(self, what: str) -> None:
        """Raise NotNormalized unless every state's squared norm lies
        within NORM_TOL of 1, the rule of ``states.check_unit_norm``, read
        off the trace of the first reduced matrix, which is the squared
        norm: no further pass over the coefficients.  A NaN or infinite
        state fails too."""
        traces = np.trace(self.matrices[0], axis1=-2, axis2=-1).real.reshape(-1)
        if not all(abs(t - 1.0) <= NORM_TOL for t in traces.tolist()):
            raise NotNormalized(f"{what} needs unit vectors")

    def _stacks(self) -> list[tuple[list[int], np.ndarray]]:
        """One ``(positions, matrices)`` pair per matrix dim n, in order of
        first appearance: the positions in ``matrices`` of the matrices of
        dim n, and those matrices, stacked once and viewed state-major,
        (P_n, n, n) or (B, P_n, n, n)."""
        mats = self.matrices
        # the axis over the matrices goes behind any stack axis
        return [(ks, np.array([mats[k] for k in ks]).swapaxes(0, -3))
                for ks in _by_dim(m.shape[-1] for m in mats).values()]

    def spectra(self) -> list[tuple[list[int], np.ndarray]]:
        """One ``(positions, spectra)`` pair per pair of ``_stacks``: the
        descending eigenvalues of each stack of matrices, (P_n, n) or
        (B, P_n, n), state-major, from one ``eigvalsh`` per dim, reversed."""
        return [(ks, np.linalg.eigvalsh(group)[..., ::-1]) for ks, group in self._stacks()]


def reduced_matrices(state: StateTensor | StateStack, parties=None) -> ReducedMatrices:
    """The one-party reduced matrices of the given parties, in that order,
    or of every party, by direct contraction; one stack of matrices per
    party for a StateStack.  A non-finite state gives non-finite matrices
    without a floating-point warning; their ``check_unit_norm`` refuses
    them.

    Raises EnumerationTooLarge, naming the bytes, before any allocation
    when the matrices would take more than BYTE_BUDGET: 16 B N_k^2 bytes
    per party for B states, quadratic in N_k where the state is linear.
    """
    batch = state.coeffs.ndim - state.parties
    parties = range(state.parties) if parties is None else parties
    count = math.prod(state.coeffs.shape[:batch])
    needed = 16 * count * sum(state.dims[k] ** 2 for k in parties)
    if needed > BYTE_BUDGET:
        raise EnumerationTooLarge(
            f"the reduced matrices need {needed} bytes for a stack of {count} at "
            f"dims {state.dims}, above the budget of {BYTE_BUDGET} bytes")
    mats = []
    with np.errstate(invalid="ignore", over="ignore"):
        for k in parties:
            rows = party_rows(state.coeffs, k, batch)
            m = rows.conj() @ rows.swapaxes(-1, -2)
            m.setflags(write=False)
            mats.append(m)
    return ReducedMatrices(tuple(mats))


def _by_dim(sizes) -> dict[int, list[int]]:
    """dim -> the parties of that dim, in order of first appearance."""
    groups: dict[int, list[int]] = {}
    for k, n in enumerate(sizes):
        groups.setdefault(n, []).append(k)
    return groups


def cluster_spectra(spectra, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> list:
    """Per state, the tuple of its parties' clusterings, from the
    ``(parties, spectra)`` pairs of ``ReducedMatrices.spectra``: the
    descending spectra of the parties of one dim, (P, n) or (B, P, n),
    state-major, are sorted and summed once.  Then one ``measure._walk``
    goes over them state by state and, within a state, in party order, so
    the first refused party of the first refused state raises its own
    error, as ``cluster_spectrum`` of that one spectrum would."""
    check_tolerance(cluster_tol)
    by_party = [None] * sum(len(parties) for parties, _ in spectra)
    for parties, vals in spectra:
        flat = vals.reshape(-1, vals.shape[-1])
        rows = list(zip(np.sort(flat).tolist(), flat.sum(axis=1).tolist()))
        for p, k in enumerate(parties):
            by_party[k] = rows[p::len(parties)]
    walked = _walk([row for state in zip(*by_party) for row in state], float(cluster_tol))
    return list(zip(*[iter(walked)] * len(by_party)))  # one tuple per state


def marginal_eigenbases(reduced: ReducedMatrices,
                        cluster_tol: float = DEFAULT_CLUSTER_TOL):
    """One ``eigh`` per party dim over the stacked marginals, reversed to
    descending order and clustered by ``cluster_spectra``, with one sort
    and one sum per party dim: the one decision of which eigenvalues are
    equal, for every consumer of the eigenbases.  The walk over the rows
    goes state by state and party by party, so a refusal names the first
    refused party of the first refused state.

    Returns ``(vectors, clusterings)``: ``vectors[n]``, (..., P_n, n, n),
    holds as columns the eigenvectors of the parties of dim n, in party
    order, matching their descending spectra.
    """
    vectors, spectra = {}, []
    for parties, group in reduced._stacks():
        vals, vecs = np.linalg.eigh(group)
        vectors[group.shape[-1]] = vecs[..., ::-1]  # descending; vectors are columns
        spectra.append((parties, vals[..., ::-1]))
    return vectors, cluster_spectra(spectra, cluster_tol)


@dataclass(frozen=True)
class SchmidtData:
    """Singular value decomposition of a bipartite coefficient matrix.

    ``left`` and ``right`` are special-unitary, with left @ C @ right
    diagonal, descending, kernel last -- up to one global phase (an N-th
    root obstruction prevents an exactly nonnegative diagonal inside
    SU(N) x SU(N); states are compared projectively throughout).
    ``diagonal_state`` is the exactly nonnegative representative
    sum_i p_i e_i (x) e_i, reached from the input by
    apply_local((left, right.T)) up to that global phase.
    """

    singular_values: np.ndarray  # full descending list, length min(N1, N2)
    block_values: tuple[float, ...]  # distinct positive values, descending
    multiplicities: tuple[int, ...]
    kernel_dim: int
    left: np.ndarray
    right: np.ndarray
    diagonal_state: StateTensor


def schmidt(state: StateTensor, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> SchmidtData:
    """Singular values, multiplicity blocks, and SU-normalized unitaries.

    Raises NotBipartite for M != 2, and NotNormalized for a state off the
    unit sphere (NaN included) before the SVD.  Multiplicities come from gap
    clustering of the squared singular values (the spectrum of C^1), so
    AmbiguousClustering propagates when the spectrum is undecidable at the
    given tolerance.  The SVD, the clustering and the unitaries are the
    steps two-party ``canonical_form`` shares; the block means and
    ``diagonal_state`` are built here alone.
    """
    if state.parties != 2:
        raise NotBipartite(f"schmidt needs 2 parties, got {state.parties}")
    s, clustering, (left, right) = _schmidt_steps(state, cluster_tol, "schmidt")
    values = []
    start = 0
    for m in clustering.multiplicities:
        values.append(float(s[start:start + m].mean() if m > 1 else s[start]))
        start += m
    diag = np.zeros(state.dims, dtype=complex)
    for i, p in enumerate(s):
        diag[i, i] = p
    return SchmidtData(
        singular_values=s,
        block_values=tuple(values),
        multiplicities=clustering.multiplicities,
        kernel_dim=clustering.kernel_dim,
        left=left,
        right=right,
        diagonal_state=build_state(diag),
    )


def _schmidt_steps(state: StateTensor, cluster_tol: float, what: str):
    """The norm check, whose refusal names the entry point ``what``, the
    SVD C = U diag(s) V^dag, the clustering of s^2 and the special-unitary
    pair (U^dag, V), rescaled by one ``LocalUnitaryTuple.from_blocks``
    pass, of a two-party state."""
    check_unit_norm(state, what)
    u, s, vh = np.linalg.svd(state.coeffs)
    clustering = cluster_spectrum(s**2 / np.sum(s**2), cluster_tol)
    g = LocalUnitaryTuple.from_blocks((u.conj().T, vh.conj().T))
    return s, clustering, g.blocks


def _gauge(vecs: np.ndarray, clusterings) -> np.ndarray:
    """Eigenbases with a canonical gauge, for a (P, N, N) stack of
    eigenvector matrices with descending columns.

    Each block of a matrix's clustering (positive multiplicities, then the
    kernel) gets the Gram-Schmidt basis of its spectral projector's
    columns, which does not depend on which eigenvectors the solver
    returned.  All (matrix, block) pairs of one multiplicity run at once.
    Each new vector leaves every later column at once: per column the same
    operations in the same order as a column-by-column loop, and stacked
    ``matmul`` gives the same bits as ``vdot`` and ``norm`` per vector.
    """
    spans: dict[int, list[tuple[int, int]]] = {}  # multiplicity -> (matrix, column)
    for p, c in enumerate(clusterings):
        start = 0
        for m in c.multiplicities + ((c.kernel_dim,) if c.kernel_dim else ()):
            spans.setdefault(m, []).append((p, start))
            start += m
    n = vecs.shape[-1]
    out = np.empty(vecs.shape, dtype=complex)
    for m, at in spans.items():
        party, start = np.array(at).T
        cols = start[:, None] + np.arange(m)
        block = vecs[party[:, None, None], np.arange(n)[:, None], cols[:, None, :]]
        proj = block @ block.conj().swapaxes(-1, -2)
        w = proj.swapaxes(-1, -2).copy()  # w[k, j]: column j of pair k's projector
        found = np.zeros(w.shape[:2], dtype=bool)
        count = np.zeros(len(at), dtype=int)
        for j in range(n):
            x = w[:, j]
            re, im = x.real[:, None], x.imag[:, None]
            norm = np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[:, 0, 0]
            keep = (norm > 1e-6) & (count < m)
            np.divide(x, norm[:, None], out=x, where=keep[:, None])
            found[:, j] = keep
            count += keep
            if count.min() == m:
                break
            b = x[:, None]
            rest = w[:, j + 1:]
            step = rest - b * (b.conj()[..., None, :] @ rest[..., None])[..., 0]
            w[:, j + 1:] = np.where(keep[:, None, None], step, rest)
        if (count < m).any():  # impossible for an orthogonal projector
            raise ArithmeticError("projector basis extraction failed")
        out[party[:, None], :, cols] = w[found].reshape(-1, m, n)
    return out


def canonical_form(state: StateTensor,
                   cluster_tol: float = DEFAULT_CLUSTER_TOL,
                   ) -> tuple[StateTensor, LocalUnitaryTuple]:
    """Local-unitary representative with every reduced matrix diagonal.

    Returns (canonical state, tuple g) with apply_local(state, g) equal to
    the canonical state exactly, and each C^k diagonal with descending
    entries.  For two parties the representative is the Schmidt diagonal
    state (projectively): the route runs the SVD, the clustering and the
    unitaries that ``schmidt`` runs, and g is schmidt's (left, right^T),
    without the rest of the Schmidt data.  For other party counts each
    party is rotated into the eigenbasis of its own reduced matrix
    (``marginal_eigenbases``), and the parties of one dim share one
    ``eigh``, one clustering and one gauge pass.  On both routes the blocks
    get determinant one from one ``LocalUnitaryTuple.from_blocks`` pass.

    Only ``distinguishable`` states qualify: the construction acts with
    independent blocks per party.  A state off the unit sphere (NaN
    included) raises NotNormalized before any decomposition: off the
    two-party route, the norm is read off the traces of the reduced
    matrices (``ReducedMatrices.check_unit_norm``).
    ``cluster_tol`` clusters the Schmidt spectrum of two parties and each
    reduced spectrum of any other count, so AmbiguousClustering propagates
    on every route, from the first refused party.
    """
    check_tolerance(cluster_tol)
    if state.symmetry != DISTINGUISHABLE:
        raise SymmetryViolation(
            "canonical_form uses independent per-party blocks; "
            "indistinguishable particles do not admit them")
    if state.parties == 2:
        # U^dag C V is the Schmidt diagonal, so the blocks are (U^dag, V^T).
        # V's phase comes from det(V), as schmidt's right does (det(V^T) can
        # differ in the last bit), and the transpose of a checked special
        # unitary is one too.
        _, _, (left, right) = _schmidt_steps(state, cluster_tol, "canonical_form")
        g = LocalUnitaryTuple._of_checked((left, np.ascontiguousarray(right.T)))
        return apply_local(state, g), g
    reduced = reduced_matrices(state)
    reduced.check_unit_norm("canonical_form")
    vectors, (clusterings,) = marginal_eigenbases(reduced, cluster_tol)
    blocks = [None] * state.parties
    for n, parties in _by_dim(state.dims).items():
        # C^k transforms as conj(U) C^k U^T under apply_local, so the block
        # that diagonalizes it is the transpose of its eigenvector matrix.
        bases = _gauge(vectors[n], [clusterings[k] for k in parties])
        for k, block in zip(parties, bases.swapaxes(-1, -2)):
            blocks[k] = block
    g = LocalUnitaryTuple.from_blocks(blocks)
    return apply_local(state, g), g
