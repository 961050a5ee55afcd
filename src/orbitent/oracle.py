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
product of the orbits of the rho_k, and s = sum_k s_k.  So s needs no
rows: Omega_k[a, b] = (M_k / 2) Im tr(rho_k [A_a, A_b]) is built from the
reduced matrices, and decomposed with one batched SVD per factor dim.
Indistinguishable particles have one factor, the SU(N) acting on every
slot, with M_k = M; otherwise M_k = 1.  The rows serve r alone: G is one
real product of their float view, Re<x|y> being the dot product of the
real views, and the alpha_a are the products of that view with the view
of i v.

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
from .moment import ReducedMatrices, reduced_matrices
from .states import DISTINGUISHABLE, StateStack, StateTensor, acting_dims, embed

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
    scale: both forms pair generator images Av at a unit v, so
    their entries are bounded by order one (by M^2 for M indistinguishable
    particles, whose generators act on every slot), and a matrix that is
    pure float noise must read as rank zero rather than have its noise
    promoted to full rank.
    """
    mags = np.abs(np.asarray(values, dtype=float))
    cut = rel_tol * np.maximum(mags.max(axis=-1, keepdims=True, initial=0.0), 1.0)
    return decide(mags, cut, RankUnstable, f"{what}: singular value").sum(axis=-1)


@functools.lru_cache(maxsize=SU_BASIS_CACHE)
def _generators(dims: tuple[int, ...], symmetry: str) -> tuple:
    """Each generator A_a of K as its per-slot tuple (``embed``), in
    ``su_basis`` order, built once per class."""
    group = acting_dims(dims, symmetry)
    return tuple(embed(el.matrix, el.party, len(dims), symmetry)
                 for el in su_basis(group).elements)


@functools.lru_cache(maxsize=SU_BASIS_CACHE)
def _kks_operands(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The two operands of the KKS forms of SU(n) (see ``_kks_forms``),
    from the g = n^2 - 1 basis matrices of su(n): the A_a^T stacked as one
    (g n, n) matrix, and the real view of the flattened i conj(A_b) as a
    (2 n^2, g) matrix."""
    mats = np.array([el.matrix for el in su_basis((n,)).elements])
    lhs = mats.transpose(0, 2, 1).reshape(-1, n)
    rhs = (1j * mats.conj()).reshape(len(mats), n * n).view(float).T
    lhs.setflags(write=False)
    rhs.setflags(write=False)
    return lhs, rhs


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
    count = sum(n * n - 1 for n in acting_dims(state.dims, state.symmetry))
    if count > MAX_GENERATORS:
        raise EnumerationTooLarge(
            f"{count} generators exceed the oracle guard {MAX_GENERATORS}")
    lead = state.coeffs.shape[:state.coeffs.ndim - state.parties]
    rows = np.empty((*lead, count, state.total_dim), dtype=complex)
    for a, mats in enumerate(_generators(state.dims, state.symmetry)):
        rows[..., a, :] = rep_action(mats, state).reshape(*lead, -1)
    return rows


def _orbit_metric(stack: StateStack) -> np.ndarray:
    """G = Re<R_a|R_b> - alpha_a alpha_b for each state, (B, G, G).

    Re<x|y> is the dot product of the real views of x and y, so one real
    product of the rows' float view with itself gives Re<R_a|R_b>: a plain
    2-d product (a symmetric rank update) for one state.  alpha_a =
    Im<v|R_a> = Re<i v|R_a> is one matrix-vector product of the same view
    with that of i v, and the moment-map term is taken off in place.
    """
    real = _generator_rows(stack).view(float)
    phase = (1j * stack.coeffs.reshape(len(stack), -1)).view(float)
    alpha = real @ phase[..., None]
    if len(stack) == 1:
        gram = (real[0] @ real[0].T)[None]
    else:
        gram = real @ real.swapaxes(-1, -2)
    gram -= alpha * alpha.swapaxes(-1, -2)
    return gram


def _kks_forms(stack: StateStack, reduced: ReducedMatrices):
    """Omega_k[a, b] = (M_k / 2) Im tr(rho_k [A_a, A_b]) for each factor
    SU(N_k) of K, grouped by dim in order of first appearance: one
    (B, P, g, g) array per factor dim N, holding its P factors in party
    order.

    With C^k = rho_k^T the reduced matrix (``reduced``, the stack's
    ``moment.reduced_matrices``), X[a, b] = tr(rho_k A_a A_b) is the
    entrywise pairing of A_a^T C^k with A_b.  X is Hermitian, since rho_k
    is and the A_a are anti-Hermitian, so Omega_k = (Im X - Im X^T) / 2 =
    Im X: one complex product of the stacked A_a^T with each C^k, then one
    real 2-d product of its real view, all states and factors in its rows,
    with the view of the i conj(A_b), which pairs Re with Im
    (``_kks_operands``).  Indistinguishable particles have one factor
    acting on every slot, whose moment map is the sum of the M slot
    marginals, M rho.
    """
    group = acting_dims(stack.dims, stack.symmetry)
    marginals = reduced.matrices
    if stack.symmetry != DISTINGUISHABLE:
        marginals = (sum(marginals),)
    for n in dict.fromkeys(group):
        lhs, rhs = _kks_operands(n)
        rho = np.stack([m for m, k in zip(marginals, group) if k == n], axis=-3)
        g = rhs.shape[1]
        paired = (lhs @ rho).view(float).reshape(-1, rhs.shape[0])
        yield (paired @ rhs).reshape(*rho.shape[:-2], g, g)


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
                    rank_tol: float = DEFAULT_RANK_TOL,
                    reduced: ReducedMatrices | None = None):
    """Orbit dimension, symplectic rank, and degeneracy D = r - s.

    r is the rank of the metric G = Re<R_a|R_b> - alpha_a alpha_b, read off
    its eigenvalues; G is one real product of the generator rows with
    themselves (``_orbit_metric``).  s is the even numerical rank of
    Omega = (+)_k Omega_k, the KKS forms at the reduced matrices rho_k, one
    per factor SU(N_k) of K (``_kks_forms``): s is read off the singular
    values of the Omega_k, one batched SVD per factor dim, all values cut
    against the largest.  Exactly, s <= r.  Near a degenerate stratum the
    eigenvalues of G shrink with the square of the spectral gaps but the
    singular values of Omega only linearly, so the two cuts can disagree;
    s > r is refused rather than reported as a negative D.

    A StateTensor gives one DegeneracyRank.  A StateStack gives a list with
    one per state: the rows, both forms, both spectra and both rank cuts
    run once over the stack, and a refusal of any state raises for the
    whole stack.  ``reduced`` is the input's ``reduced_matrices``, for a
    caller that already holds them; by default they are computed here.
    """
    check_tolerance(rank_tol, "rank")
    stack = state if isinstance(state, StateStack) else StateStack.of([state])
    orbit = _stable_rank(np.linalg.eigvalsh(_orbit_metric(stack)), rank_tol,
                         "orbit Gram matrix").tolist()
    if reduced is None:
        reduced = reduced_matrices(stack)
    sing = [np.linalg.svd(omega, compute_uv=False).reshape(len(stack), -1)
            for omega in _kks_forms(stack, reduced)]
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
    if not abs(state.norm - 1.0) <= 1e-8:  # a NaN norm fails too
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
