"""Numerical ground truth: the orbit's metric and symplectic form pulled
back to the local algebra k.

For a unit state v and each real generator A_a of k, let R_a = A_a v and
alpha_a = Im<v|A_a v>, the moment map on A_a.  A -> Av - v<v|Av> maps k
onto the tangent space of the projective orbit, so both ranks can be read
in generator coordinates, without a frame of that space:

    G_ab     = Re<R_a|R_b> - alpha_a alpha_b          rank r = dim O
    Omega_ab = -Im<R_a|R_b> = (i/2) <[A_a,A_b]v|v>    rank s

Omega is the Kirillov-Kostant-Souriau form at mu(v), so s is the dimension
of the coadjoint orbit of the moment-map image, and D = r - s.  The term
alpha alpha^T is all that is left of the projection onto the tangent
space.  This works for any state and symmetry class and cross-checks every
closed-form count.

K = SU(N_1) x ... x SU(N_M) is a product, and generators of different
factors commute, so Omega = (+)_k Omega_k exactly: Omega_k is the KKS form
of SU(N_k) at rho_k, the orbit of mu(v) = (rho_1, ..., rho_M) is the
product of the orbits of the rho_k, and s = sum_k s_k.  Only the diagonal
blocks of Omega are decomposed, one batched SVD per factor dim.
Indistinguishable particles have one factor, the SU(N) acting on every
slot.

All rank decisions share one relative threshold with the refusal rule of
``measure.decide``: a singular value within a factor ten of the cut raises
RankUnstable instead of guessing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import EnumerationTooLarge, Inconsistency, NotNormalized, RankUnstable
from .lie import SU_BASIS_CACHE, rep_action, su_basis
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


def _stable_rank(values, rel_tol: float, what: str) -> np.ndarray:
    """Count values above rel_tol * scale in each row, refusing
    near-threshold cases.

    ``scale`` is the row's largest magnitude, floored at 1.0, the metric
    scale: both forms are overlaps of generator images Av with unit v, so
    their entries are bounded by order one (by M^2 for M indistinguishable
    particles, whose generators act on every slot), and a matrix that is
    pure float noise must read as rank zero rather than have its noise
    promoted to full rank.
    """
    mags = np.abs(np.asarray(values, dtype=float))
    cut = rel_tol * np.maximum(mags.max(axis=-1, keepdims=True, initial=0.0), 1.0)
    return decide(mags, cut, RankUnstable, f"{what}: singular value").sum(axis=-1)


def _generator_rows(state: StateTensor | StateStack) -> np.ndarray:
    """One generator image R_a = A_a v per row, flattened: (G, dim H) for a
    state, (B, G, dim H) for a stack of B states.

    The acting algebra is (+)_k su(N_k), each element embedded at its party,
    for distinguishable particles and su(N) acting on every slot otherwise.
    Both guards run before the basis is built, so a refused state never
    builds (or caches) a large basis.  Each generator acts once on the
    whole stack.
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
    rows = np.empty((*lead, len(elements), state.total_dim), dtype=complex)
    for a, el in enumerate(elements):
        mats = embed(el.matrix, el.party, state.parties, state.symmetry)
        rows[..., a, :] = rep_action(mats, state).reshape(*lead, -1)
    return rows


@functools.lru_cache(maxsize=SU_BASIS_CACHE)
def _factor_blocks(group: tuple[int, ...]) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Row and column indices of the diagonal blocks of Omega, one pair of
    (P, g, 1) and (P, 1, g) arrays per dim N of the P factors SU(N) in
    ``group``, with g = N^2 - 1.  Indexing a (..., G, G) array with a pair
    gathers that dim's P blocks as (..., P, g, g): ``su_basis`` is
    party-major, so factor k owns the g consecutive generators after those
    of factors 0..k-1."""
    starts = np.cumsum([0, *(n * n - 1 for n in group)])[:-1]
    blocks = []
    for n in dict.fromkeys(group):
        at = np.add.outer(starts[np.array(group) == n], np.arange(n * n - 1))
        at.setflags(write=False)
        blocks.append((at[:, :, None], at[:, None, :]))
    return tuple(blocks)


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

    One overlap R^* R^T of the generator images gives both forms: r is the
    rank of G = sym(Re R^* R^T) - alpha alpha^T, read off its eigenvalues,
    and s the even numerical rank of Omega = antisym(-Im R^* R^T).  Omega is
    the direct sum of the KKS forms Omega_k at each rho_k, one per factor
    SU(N_k) of K, so s is read off the singular values of its diagonal
    blocks: one batched SVD per factor dim, all values cut against the
    largest.  Exactly, s <= r.  Near a degenerate stratum the eigenvalues
    of G shrink with the square of the spectral gaps but the singular
    values of Omega only linearly, so the two cuts can disagree; s > r is
    refused rather than reported as a negative D.

    A StateTensor gives one DegeneracyRank.  A StateStack gives a list with
    one per state: the overlap, both spectra and both rank cuts run once
    over the stack, and a refusal of any state raises for the whole stack.
    """
    check_tolerance(rank_tol, "rank")
    stack = state if isinstance(state, StateStack) else StateStack.of([state])
    rows = _generator_rows(stack)
    overlap = rows.conj() @ rows.swapaxes(-1, -2)
    alpha = (rows @ stack.coeffs.reshape(len(stack), -1, 1).conj()).imag
    gram = ((overlap.real + overlap.real.swapaxes(-1, -2)) / 2.0
            - alpha * alpha.swapaxes(-1, -2))
    orbit = _stable_rank(np.linalg.eigvalsh(gram), rank_tol,
                         "orbit Gram matrix").tolist()
    sing = []
    for rows_at, cols_at in _factor_blocks(acting_dims(stack.dims, stack.symmetry)):
        block = overlap.imag[..., rows_at, cols_at]
        omega = (block.swapaxes(-1, -2) - block) * 0.5  # antisym(-Im)
        sing.append(np.linalg.svd(omega, compute_uv=False).reshape(len(stack), -1))
    symplectic = _stable_rank(np.concatenate(sing, axis=-1), rank_tol,
                              "symplectic form").tolist()
    for r, s in zip(orbit, symplectic):
        if s % 2:
            raise RankUnstable(f"symplectic form has odd numerical rank {s}")
        if s > r:
            raise RankUnstable(f"symplectic rank {s} exceeds the orbit rank {r}")
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
