"""One-party reductions, the moment-map image, Schmidt data, canonical forms.

The reduced matrix of party k is the explicit contraction

    (C^k)_{nl} = sum over all other indices of conj(C_{..n..}) C_{..l..},

a positive semidefinite trace-one matrix (never formed via the full density
matrix, so memory stays O(prod dims), not its square).  Collecting the
traceless parts X_k = C^k - I/N_k encodes the moment-map image of the state
in the dual of the local algebra; a state maps into the Cartan dual exactly
when every C^k is diagonal, which the canonical form achieves by local
special unitaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotBipartite, SymmetryViolation
from .measure import (
    DEFAULT_CLUSTER_TOL,
    check_tolerance,
    cluster_spectrum,
)
from .states import (
    DISTINGUISHABLE,
    LocalUnitaryTuple,
    StateStack,
    StateTensor,
    apply_local,
    build_state,
    party_rows,
    special_unitary,
)


@dataclass(frozen=True)
class ReducedMatrices:
    """One positive semidefinite trace-one matrix per party, (N_k, N_k), or
    (B, N_k, N_k) for a stack of B states."""

    matrices: tuple[np.ndarray, ...]

    def spectra(self) -> tuple[np.ndarray, ...]:
        """Descending eigenvalue list per party, (N_k,) or (B, N_k)."""
        mats = self.matrices
        if len({m.shape for m in mats}) == 1:  # one eigvalsh for every party
            return tuple(np.sort(np.linalg.eigvalsh(np.array(mats)))[..., ::-1])
        return tuple(np.sort(np.linalg.eigvalsh(m))[..., ::-1] for m in mats)


@dataclass(frozen=True)
class MomentImage:
    """Traceless Hermitian blocks X_k = C^k - I/N_k."""

    blocks: tuple[np.ndarray, ...]


def reduced_matrices(state: StateTensor | StateStack) -> ReducedMatrices:
    """All M one-party reduced matrices, by direct contraction; one stack
    of matrices per party for a StateStack."""
    batch = state.coeffs.ndim - state.parties
    mats = []
    for k in range(state.parties):
        rows = party_rows(state.coeffs, k, batch)
        m = rows.conj() @ rows.swapaxes(-1, -2)
        m.setflags(write=False)
        mats.append(m)
    return ReducedMatrices(tuple(mats))


def moment_image(state: StateTensor) -> MomentImage:
    """Moment-map image of the state as traceless one-party blocks."""
    red = reduced_matrices(state)
    blocks = []
    for m in red.matrices:
        x = m - np.eye(m.shape[0]) / m.shape[0]
        x.setflags(write=False)
        blocks.append(x)
    return MomentImage(tuple(blocks))


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

    Raises NotBipartite for M != 2.  Multiplicities come from gap
    clustering of the squared singular values (the spectrum of C^1), so
    AmbiguousClustering propagates when the spectrum is undecidable at the
    given tolerance.
    """
    if state.parties != 2:
        raise NotBipartite(f"schmidt needs 2 parties, got {state.parties}")
    c = state.coeffs
    u, s, vh = np.linalg.svd(c)
    left = special_unitary(u.conj().T)
    right = special_unitary(vh.conj().T)
    clustering = cluster_spectrum(s**2 / np.sum(s**2), cluster_tol)
    values = []
    start = 0
    for m in clustering.multiplicities:
        values.append(float(s[start:start + m].mean()))
        start += m
    diag = np.zeros(state.dims, dtype=complex)
    for i, p in enumerate(s):
        diag[i, i] = p
    return SchmidtData(
        singular_values=s.copy(),
        block_values=tuple(values),
        multiplicities=clustering.multiplicities,
        kernel_dim=clustering.kernel_dim,
        left=left,
        right=right,
        diagonal_state=build_state(diag),
    )


def _projector_basis(block: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span(block) determined by the subspace alone.

    Gram-Schmidt over the columns of the spectral projector: the projector
    does not depend on which eigenvectors the solver returned, so the
    result is reproducible run to run.
    """
    proj = block @ block.conj().T
    want = block.shape[1]
    basis: list[np.ndarray] = []
    for j in range(proj.shape[0]):
        w = proj[:, j].copy()
        for b in basis:
            w -= b * np.vdot(b, w)
        norm = np.linalg.norm(w)
        if norm > 1e-6:
            basis.append(w / norm)
            if len(basis) == want:
                break
    if len(basis) != want:  # impossible for an orthogonal projector
        raise ArithmeticError("projector basis extraction failed")
    return np.column_stack(basis)


def _deterministic_eigenbasis(reduced: np.ndarray, cluster_tol: float) -> np.ndarray:
    """Eigenbasis of a reduced matrix, descending, with a canonical gauge.

    The degenerate blocks are those of ``cluster_spectrum`` (positive
    multiplicities, then the kernel), so AmbiguousClustering propagates;
    within each block the basis is rebuilt from the spectral projector,
    removing the solver's arbitrary choice.
    """
    vals, vecs = np.linalg.eigh(reduced)
    order = np.argsort(-vals)
    vals, vecs = vals[order], vecs[:, order]
    clustering = cluster_spectrum(vals, cluster_tol)
    blocks = np.split(vecs, np.cumsum(clustering.multiplicities), axis=1)
    return np.hstack([_projector_basis(b) for b in blocks if b.size])


def canonical_form(state: StateTensor,
                   cluster_tol: float = DEFAULT_CLUSTER_TOL,
                   ) -> tuple[StateTensor, LocalUnitaryTuple]:
    """Local-unitary representative with every reduced matrix diagonal.

    Returns (canonical state, tuple g) with apply_local(state, g) equal to
    the canonical state exactly, and each C^k diagonal with descending
    entries.  For two parties the representative is the Schmidt diagonal
    state (projectively); for other party counts each party is rotated into
    the eigenbasis of its own reduced matrix.

    Only ``distinguishable`` states qualify: the construction acts with
    independent blocks per party.  ``cluster_tol`` clusters the Schmidt
    spectrum of two parties and each reduced spectrum of any other count,
    so AmbiguousClustering propagates on every route.
    """
    check_tolerance(cluster_tol, "clustering")
    if state.symmetry != DISTINGUISHABLE:
        raise SymmetryViolation(
            "canonical_form uses independent per-party blocks; "
            "indistinguishable particles do not admit them")
    if state.parties == 2:
        data = schmidt(state, cluster_tol)
        g = LocalUnitaryTuple((data.left, data.right.T))
        return apply_local(state, g), g
    red = reduced_matrices(state)
    # C^k transforms as conj(U) C^k U^T under apply_local, so the block
    # that diagonalizes it is the transpose of its eigenvector matrix.
    blocks = tuple(
        special_unitary(_deterministic_eigenbasis(m, cluster_tol).T)
        for m in red.matrices)
    g = LocalUnitaryTuple(blocks)
    return apply_local(state, g), g
