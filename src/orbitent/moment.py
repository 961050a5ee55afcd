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

from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousClustering, NotBipartite, NotNormalized, SymmetryViolation
from .measure import (
    DEFAULT_CLUSTER_TOL,
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


@dataclass(frozen=True)
class ReducedMatrices:
    """One positive semidefinite trace-one matrix per party, (N_k, N_k), or
    (B, N_k, N_k) for a stack of B states."""

    matrices: tuple[np.ndarray, ...]

    def check_unit_norm(self, what: str) -> None:
        """Raise NotNormalized unless every state's norm lies within
        NORM_TOL of 1, as ``states.check_unit_norm`` does, read off the
        trace of the first reduced matrix, which is the squared norm: no
        further pass over the coefficients.  A NaN or infinite state fails
        too."""
        traces = np.trace(self.matrices[0], axis1=-2, axis2=-1).real
        if not (np.abs(np.sqrt(traces) - 1.0) <= NORM_TOL).all():
            raise NotNormalized(f"{what} needs unit vectors")

    def spectra(self) -> tuple[np.ndarray, ...]:
        """Descending eigenvalue list per party, (N_k,) or (B, N_k): the
        ascending ``eigvalsh`` output, reversed."""
        mats = self.matrices
        if len({m.shape for m in mats}) == 1:  # one eigvalsh for every party
            return tuple(np.linalg.eigvalsh(np.array(mats))[..., ::-1])
        return tuple(np.linalg.eigvalsh(m)[..., ::-1] for m in mats)


def reduced_matrices(state: StateTensor | StateStack) -> ReducedMatrices:
    """All M one-party reduced matrices, by direct contraction; one stack
    of matrices per party for a StateStack.  A non-finite state gives
    non-finite matrices without a floating-point warning; their
    ``check_unit_norm`` refuses them."""
    batch = state.coeffs.ndim - state.parties
    mats = []
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(state.parties):
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
    """Per state, the tuple of its parties' clusterings, from one descending
    spectrum per party, (B, N_k) or (N_k,).  The spectra of one length are
    stacked once, state-major, into one ``_cluster_groups`` call."""
    rows = [s.reshape(-1, s.shape[-1]) for s in spectra]
    groups = [(parties, np.stack([rows[k] for k in parties], axis=1).reshape(-1, n))
              for n, parties in _by_dim(r.shape[-1] for r in rows).items()]
    return _cluster_groups(groups, rows, cluster_tol)


def _cluster_groups(groups, rows, cluster_tol: float) -> list:
    """Per state, the tuple of its parties' clusterings.  ``groups`` holds,
    per party dim, its parties and their spectra as one (B P, n) array,
    state-major; each goes through one ``cluster_spectrum`` call.  On a
    refusal, ``rows``, one (B, N_k) array per party, are replayed state by
    state and party by party, so the first refused party of the first
    refused state raises its own error."""
    by_party = [None] * len(rows)
    try:
        for parties, stacked in groups:
            flat = cluster_spectrum(stacked, cluster_tol)
            for p, k in enumerate(parties):
                by_party[k] = flat[p::len(parties)]
    except (AmbiguousClustering, ValueError):
        for state in zip(*rows):
            for row in state:
                cluster_spectrum(row, cluster_tol)
        raise
    return list(zip(*by_party))


def marginal_eigenbases(reduced: ReducedMatrices,
                        cluster_tol: float = DEFAULT_CLUSTER_TOL):
    """One ``eigh`` per party dim over the stacked marginals, reversed to
    descending order and clustered with one ``cluster_spectrum`` call per
    party dim: the one decision of which eigenvalues are equal, for every
    consumer of the eigenbases.  A refusal names the first refused party
    of the first refused state, as ``cluster_spectra`` does.

    Returns ``(vectors, clusterings)``: ``vectors[n]``, (..., P_n, n, n),
    holds as columns the eigenvectors of the parties of dim n, in party
    order, matching their descending spectra.
    """
    mats = reduced.matrices
    vectors, groups, rows = {}, [], [None] * len(mats)
    for n, parties in _by_dim(m.shape[-1] for m in mats).items():
        # the party axis goes next to the matrix axes, behind any stack axis
        vals, vecs = np.linalg.eigh(np.array([mats[k] for k in parties]).swapaxes(0, -3))
        vals, vectors[n] = vals[..., ::-1], vecs[..., ::-1]  # descending; vectors are columns
        groups.append((parties, vals.reshape(-1, n)))
        for p, k in enumerate(parties):
            rows[k] = vals[..., p, :].reshape(-1, n)
    return vectors, _cluster_groups(groups, rows, cluster_tol)


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
    s, clustering, (left, right) = _schmidt_steps(state, cluster_tol)
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


def _schmidt_steps(state: StateTensor, cluster_tol: float):
    """The norm check, the SVD C = U diag(s) V^dag, the clustering of s^2
    and the special-unitary pair (U^dag, V), rescaled by one
    ``LocalUnitaryTuple.from_blocks`` pass, of a two-party state."""
    check_unit_norm(state, "schmidt")
    u, s, vh = np.linalg.svd(state.coeffs)
    clustering = cluster_spectrum(s**2 / np.sum(s**2), cluster_tol)
    g = LocalUnitaryTuple.from_blocks((u.conj().T, vh.conj().T), fix_determinant=True)
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
    check_tolerance(cluster_tol, "clustering")
    if state.symmetry != DISTINGUISHABLE:
        raise SymmetryViolation(
            "canonical_form uses independent per-party blocks; "
            "indistinguishable particles do not admit them")
    if state.parties == 2:
        # U^dag C V is the Schmidt diagonal, so the blocks are (U^dag, V^T).
        # V's phase comes from det(V), as schmidt's right does (det(V^T) can
        # differ in the last bit), and the transpose of a checked special
        # unitary is one too.
        _, _, (left, right) = _schmidt_steps(state, cluster_tol)
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
    g = LocalUnitaryTuple.from_blocks(blocks, fix_determinant=True)
    return apply_local(state, g), g
