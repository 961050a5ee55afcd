"""Numerical ground truth: orbit tangent frames and the restricted
Fubini-Study form.

For a unit state v and each real generator A of the local algebra, the
projective tangent vector is t_A = Av - v<v|Av>.  The orbit dimension r is
the real rank of the Gram matrix G_ab = Re<t_a|t_b>; the symplectic form
on tangent vectors is

    omega(t_a, t_b) = -Im<Av|Bv> = (i/2) <[A,B]v|v>,

whose rank s on the tangent span equals the dimension of the coadjoint
orbit of the moment-map image, leaving the degeneracy D = r - s.  This
works for any state and symmetry class and cross-checks every closed-form
count.

All rank decisions share one relative threshold with the refusal rule of
``measure.decide``: a singular value within a factor ten of the cut raises
RankUnstable instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EnumerationTooLarge, Inconsistency, NotNormalized, RankUnstable
from .lie import rep_action, su_basis
from .measure import DEFAULT_CLUSTER_TOL, check_tolerance, decide
from .states import StateTensor, acting_dims, embed

#: singular values below this fraction of the largest count as zero
DEFAULT_RANK_TOL = 1e-8
#: desk-scale guards: inner products cost O((dim k)^2 * dim H)
MAX_HILBERT_DIM = 4096
MAX_GENERATORS = 256
#: the two evaluations of omega must agree this tightly
OMEGA_CHECK_TOL = 1e-10


def _stable_rank(values, rel_tol: float, what: str, floor: float = 1.0) -> int:
    """Count values above rel_tol * scale, refusing near-threshold cases.

    ``scale`` is the largest magnitude, floored at the metric scale: both
    the Gram matrix and the restricted symplectic form are expressed
    against unit tangent vectors, so their entries are bounded by order
    one and a matrix that is pure float noise must read as rank zero
    rather than have its noise promoted to full rank.
    """
    mags = np.abs(np.asarray(values, dtype=float))
    cut = rel_tol * max(float(mags.max(initial=0.0)), floor)
    return int(decide(mags, cut, RankUnstable, f"{what}: singular value").sum())


def _generator_actions(state: StateTensor):
    """(labels, per-party matrix tuples) for the acting algebra.

    Distinguishable particles: every element of (+)_k su(N_k) embedded at
    its party.  Indistinguishable particles: su(N) acting diagonally.  The
    generator guard runs before the basis is built, so a refused state
    never builds (or caches) a large basis.
    """
    group = acting_dims(state.dims, state.symmetry)
    count = sum(n * n - 1 for n in group)
    if count > MAX_GENERATORS:
        raise EnumerationTooLarge(
            f"{count} generators exceed the oracle guard {MAX_GENERATORS}")
    basis = su_basis(group)
    specs = [embed(el.matrix, el.party, state.parties, state.symmetry)
             for el in basis.elements]
    return tuple(el.label for el in basis.elements), specs


def _tangent_rows(state: StateTensor):
    if state.total_dim > MAX_HILBERT_DIM:
        raise EnumerationTooLarge(
            f"Hilbert dimension {state.total_dim} exceeds the oracle guard "
            f"{MAX_HILBERT_DIM}")
    labels, specs = _generator_actions(state)
    v = state.coeffs.reshape(-1)
    rows = np.empty((len(specs), v.size), dtype=complex)
    for a, mats in enumerate(specs):
        xi = rep_action(mats, state).reshape(-1)
        rows[a] = xi - v * np.vdot(v, xi)
    return labels, rows


@dataclass(frozen=True)
class TangentFrame:
    """Projected generator images spanning the orbit tangent space."""

    state: StateTensor
    labels: tuple[str, ...]
    tangents: np.ndarray  # one row per generator, flattened
    gram: np.ndarray  # Re <t_a|t_b>
    rank: int  # orbit dimension dim(K.x)
    rank_tol: float


@dataclass(frozen=True)
class DegeneracyRank:
    """Oracle output: (orbit dim, symplectic rank, degeneracy)."""

    orbit_dim: int
    symplectic_rank: int  # numerical dim of the coadjoint image
    degeneracy: int
    frame: TangentFrame
    omega_restricted: np.ndarray

    def as_tuple(self) -> tuple[int, int, int]:
        return self.orbit_dim, self.symplectic_rank, self.degeneracy

    def to_json_dict(self) -> dict:
        return {
            "orbit_dim": self.orbit_dim,
            "symplectic_rank": self.symplectic_rank,
            "degeneracy": self.degeneracy,
        }


def _frame(state, rank_tol):
    """(frame, overlap <t_a|t_b>, Gram eigenvalues, Gram eigenvectors):
    one ``eigh`` both decides the orbit rank and spans the tangent space."""
    check_tolerance(rank_tol, "rank")
    labels, rows = _tangent_rows(state)
    overlap = rows.conj() @ rows.T
    gram = (overlap.real + overlap.real.T) / 2.0
    evals, evecs = np.linalg.eigh(gram)
    rank = _stable_rank(evals, rank_tol, "orbit Gram matrix")
    gram.setflags(write=False)
    rows.setflags(write=False)
    frame = TangentFrame(state, labels, rows, gram, rank, rank_tol)
    return frame, overlap, evals, evecs


def tangent_frame(state: StateTensor,
                  rank_tol: float = DEFAULT_RANK_TOL) -> TangentFrame:
    """Tangent frame of the local-unitary orbit through the state."""
    return _frame(state, rank_tol)[0]


def degeneracy_rank(state: StateTensor,
                    rank_tol: float = DEFAULT_RANK_TOL) -> DegeneracyRank:
    """Orbit dimension, symplectic rank, and degeneracy D = r - s.

    The antisymmetric matrix Omega_ab = -Im<t_a|t_b> is restricted to an
    orthonormal frame of the tangent span (eigenvectors of the Gram matrix
    above the rank cut); its even numerical rank is the coadjoint-image
    dimension.
    """
    frame, overlap, evals, evecs = _frame(state, rank_tol)
    r = frame.rank
    if r == 0:
        omega_r = np.zeros((0, 0))
        omega_r.setflags(write=False)
        return DegeneracyRank(0, 0, 0, frame, omega_r)
    omega = -(overlap.imag - overlap.imag.T) / 2.0
    top = evecs[:, -r:] / np.sqrt(evals[-r:])
    omega_r = top.T @ omega @ top
    omega_r = (omega_r - omega_r.T) / 2.0
    sing = np.linalg.svd(omega_r, compute_uv=False)
    s = _stable_rank(sing, rank_tol, "restricted symplectic form")
    if s % 2:
        raise RankUnstable(
            f"restricted symplectic form has odd numerical rank {s}")
    omega_r.setflags(write=False)
    return DegeneracyRank(r, s, r - s, frame, omega_r)


def fubini_study_omega(v, a, b) -> float:
    """Fubini-Study symplectic form on generator directions at a unit state.

    Evaluates -Im<Av|Bv> and cross-checks it against (i/2)<[A,B]v|v>; the
    two must agree to OMEGA_CHECK_TOL.  ``v`` is a StateTensor or a unit
    coefficient tensor; ``a`` and ``b`` are anti-Hermitian generators in
    the same forms rep_action accepts.
    """
    if isinstance(v, StateTensor):
        state = v
    else:
        state = StateTensor(np.asarray(v, dtype=complex).shape, v)
    if abs(state.norm - 1.0) > 1e-8:
        raise NotNormalized("fubini_study_omega needs a unit vector")
    av = rep_action(a, state)
    bv = rep_action(b, state)
    primary = -float(np.imag(np.vdot(av, bv)))
    comm = rep_action(a, bv) - rep_action(b, av)
    secondary = float(np.real(0.5j * np.vdot(comm, state.coeffs)))
    if abs(primary - secondary) > OMEGA_CHECK_TOL:
        raise Inconsistency(
            f"-Im<Av|Bv> = {primary:.3e} disagrees with (i/2)<[A,B]v|v> = "
            f"{secondary:.3e}")
    return primary


@dataclass(frozen=True)
class ConsistencyRecord:
    """One formula-versus-oracle comparison."""

    dims: tuple[int, ...]
    symmetry: str
    mode: str  # "exact", "bounds" for M >= 3, "coadjoint" without closed form
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


def verify_against_formula(state: StateTensor,
                           cluster_tol: float = DEFAULT_CLUSTER_TOL,
                           rank_tol: float = DEFAULT_RANK_TOL,
                           ) -> ConsistencyRecord:
    """Check the oracle ranks against the formulas for one state.

    Runs ``analyze_state(..., oracle="verify")`` and returns its comparison
    record: mode "exact" for one party or two equal parties, "bounds" for
    M >= 3, "coadjoint" for every other state.  Raises Inconsistency (with
    the falsifying state serialized into the record) on any mismatch.
    """
    from .report import ORACLE_VERIFY, analyze_state, check_consistency

    report = analyze_state(state, cluster_tol, rank_tol, oracle=ORACLE_VERIFY)
    return check_consistency(report, state)
