"""Numerical ground truth: orbit tangent rows and the restricted
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
from typing import TYPE_CHECKING

import numpy as np

from .errors import EnumerationTooLarge, Inconsistency, NotNormalized, RankUnstable
from .lie import rep_action, su_basis
from .measure import DEFAULT_CLUSTER_TOL, check_tolerance, decide
from .states import StateStack, StateTensor, acting_dims, embed

if TYPE_CHECKING:
    from .report import ConsistencyRecord

#: singular values below this fraction of the largest count as zero
DEFAULT_RANK_TOL = 1e-8
#: desk-scale guards: inner products cost O((dim k)^2 * dim H)
MAX_HILBERT_DIM = 4096
MAX_GENERATORS = 256
#: the two evaluations of omega must agree this tightly
OMEGA_CHECK_TOL = 1e-10
#: _tangent_rows projects at most this many bytes of rows at once, so the
#: projection's temporary stays in cache
PROJECTION_BYTES = 2**19


def _stable_rank(values, rel_tol: float, what: str) -> np.ndarray:
    """Count values above rel_tol * scale in each row, refusing
    near-threshold cases.

    ``scale`` is the row's largest magnitude, floored at 1.0, the metric
    scale: both the Gram matrix and the restricted symplectic form are
    expressed against unit tangent vectors, so their entries are bounded by
    order one and a matrix that is pure float noise must read as rank zero
    rather than have its noise promoted to full rank.
    """
    mags = np.abs(np.asarray(values, dtype=float))
    cut = rel_tol * np.maximum(mags.max(axis=-1, keepdims=True, initial=0.0), 1.0)
    return decide(mags, cut, RankUnstable, f"{what}: singular value").sum(axis=-1)


def _tangent_rows(state: StateTensor | StateStack) -> np.ndarray:
    """One projected generator image t_A = Av - v<v|Av> per row, flattened:
    (G, dim H) for a state, (B, G, dim H) for a stack of B states.

    The acting algebra is (+)_k su(N_k), each element embedded at its party,
    for distinguishable particles and su(N) acting on every slot otherwise.
    Both guards run before the basis is built, so a refused state never
    builds (or caches) a large basis.  Each generator acts once on the
    whole stack, and the rows are projected in chunks of at most
    PROJECTION_BYTES.
    """
    if state.total_dim > MAX_HILBERT_DIM:
        raise EnumerationTooLarge(
            f"Hilbert dimension {state.total_dim} exceeds the oracle guard "
            f"{MAX_HILBERT_DIM}")
    group = acting_dims(state.dims, state.symmetry)
    count = sum(n * n - 1 for n in group)
    if count > MAX_GENERATORS:
        raise EnumerationTooLarge(
            f"{count} generators exceed the oracle guard {MAX_GENERATORS}")
    elements = su_basis(group).elements
    lead = state.coeffs.shape[:state.coeffs.ndim - state.parties]
    v = state.coeffs.reshape(*lead, 1, -1)
    rows = np.empty((*lead, len(elements), v.shape[-1]), dtype=complex)
    for a, el in enumerate(elements):
        mats = embed(el.matrix, el.party, state.parties, state.symmetry)
        rows[..., a, :] = rep_action(mats, state).reshape(*lead, -1)
    vh = v.conj().swapaxes(-1, -2)
    step = max(1, PROJECTION_BYTES * len(elements) // rows.nbytes)
    for a in range(0, len(elements), step):
        part = rows[..., a:a + step, :]
        part -= (part @ vh) * v
    return rows


@dataclass(frozen=True)
class DegeneracyRank:
    """Oracle output: (orbit dim, symplectic rank, degeneracy)."""

    orbit_dim: int
    symplectic_rank: int  # numerical dim of the coadjoint image
    degeneracy: int

    def as_tuple(self) -> tuple[int, int, int]:
        return self.orbit_dim, self.symplectic_rank, self.degeneracy

    def to_json_dict(self) -> dict:
        return {
            "orbit_dim": self.orbit_dim,
            "symplectic_rank": self.symplectic_rank,
            "degeneracy": self.degeneracy,
        }


def degeneracy_rank(state: StateTensor | StateStack,
                    rank_tol: float = DEFAULT_RANK_TOL):
    """Orbit dimension, symplectic rank, and degeneracy D = r - s.

    One ``eigh`` of the Gram matrix both decides the orbit rank r and spans
    the tangent space.  The antisymmetric matrix Omega_ab = -Im<t_a|t_b> is
    restricted to an orthonormal frame of the tangent span (eigenvectors of
    the Gram matrix above the rank cut); its even numerical rank s is the
    coadjoint-image dimension.

    A StateTensor gives one DegeneracyRank.  A StateStack gives a list with
    one per state: the overlap, ``eigh`` and rank cut run once over the
    stack, the restriction and SVD once per distinct r, and a refusal of
    any state raises for the whole stack.
    """
    check_tolerance(rank_tol, "rank")
    stack = state if isinstance(state, StateStack) else StateStack.of([state])
    rows = _tangent_rows(stack)
    overlap = rows.conj() @ rows.swapaxes(-1, -2)
    gram = (overlap.real + overlap.real.swapaxes(-1, -2)) / 2.0
    evals, evecs = np.linalg.eigh(gram)
    orbit = _stable_rank(evals, rank_tol, "orbit Gram matrix").tolist()
    symplectic = [0] * len(orbit)
    omega = -(overlap.imag - overlap.imag.swapaxes(-1, -2)) / 2.0
    for r in sorted(set(orbit) - {0}):
        at = [i for i, x in enumerate(orbit) if x == r]
        sel = slice(None) if len(at) == len(orbit) else at
        top = evecs[sel, :, -r:] / np.sqrt(evals[sel, None, -r:])
        omega_r = top.swapaxes(-1, -2) @ omega[sel] @ top
        omega_r = (omega_r - omega_r.swapaxes(-1, -2)) / 2.0
        sing = np.linalg.svd(omega_r, compute_uv=False)
        found = _stable_rank(sing, rank_tol, "restricted symplectic form").tolist()
        for i, s in zip(at, found):
            if s % 2:
                raise RankUnstable(
                    f"restricted symplectic form has odd numerical rank {s}")
            symplectic[i] = s
    ranks = [DegeneracyRank(r, s, r - s) for r, s in zip(orbit, symplectic)]
    return ranks if stack is state else ranks[0]


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


def verify_against_formula(state: StateTensor,
                           cluster_tol: float = DEFAULT_CLUSTER_TOL,
                           rank_tol: float = DEFAULT_RANK_TOL,
                           ) -> ConsistencyRecord:
    """Check the oracle ranks against the formulas for one state.

    Runs ``analyze_state(..., oracle="verify")`` and returns the comparison
    record it built: mode "exact" for one party or two equal parties,
    "bounds" for M >= 3, "coadjoint" for every other state.  Raises
    Inconsistency (with the falsifying state serialized into the record) on
    any mismatch.
    """
    from .report import ORACLE_VERIFY, analyze_state

    return analyze_state(state, cluster_tol, rank_tol,
                         oracle=ORACLE_VERIFY).consistency
