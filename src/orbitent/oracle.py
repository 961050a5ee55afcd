"""Numerical ground truth: the orbit's metric and symplectic form pulled
back to the local algebra k.

For a unit state v and a generator X of k, let R = X v and alpha =
Im<v|X v>, the moment map on X.  The tangent map T: X -> Xv - v<v|Xv>
maps k onto the tangent space of the projective orbit, so both forms can
be read in generator coordinates, without a frame of that space:

    G(X, Y)     = Re<Xv|Yv> - alpha_X alpha_Y       metric, rank r = dim O
    Omega(X, Y) = -Im<Xv|Yv> = (i/2) <[X,Y]v|v>     rank s

Omega is the Kirillov-Kostant-Souriau form at mu(v), so s is the dimension
of the coadjoint orbit of the moment-map image.  A stabilizer direction
(TX = 0) pairs to zero under omega, so ker T lies inside ker Omega, and
r = s + D with D = dim T(ker Omega), the rank of G on ker Omega: the
degeneracy of omega on the orbit.  The term alpha alpha^T is all that is
left of the projection onto the tangent space.  This works for any state
and symmetry class and cross-checks every closed-form count.

K = SU(N_1) x ... x SU(N_M) is a product, and generators of different
factors commute, so Omega = (+)_k Omega_k exactly: Omega_k is the KKS form
of SU(N_k) at rho_k, the orbit of mu(v) = (rho_1, ..., rho_M) is the
product of the orbits of the rho_k, and s = sum_k s_k.  So s needs no
rows: Omega_k[a, b] = (M_k / 2) Im tr(rho_k [A_a, A_b]) is built from the
reduced matrices, and one batched SVD per factor dim gives both s and a
basis of ker Omega = (+)_k ker Omega_k.  Indistinguishable particles have
one factor, the SU(N) acting on every slot, with M_k = M; otherwise
M_k = 1.  Rows X_j v are built for the kernel directions alone, and G on
them is one real product of their float view, Re<x|y> being the dot
product of the real views; the alpha_j are the products of that view with
the view of i v.

All rank decisions share one relative threshold with the refusal rule of
``measure.decide``: a singular value within a factor ten of the cut raises
RankUnstable instead of guessing.  Both decisions act on values linear in
the spectral gaps of the rho_k.
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
#: desk-scale guards on dim H and on the G generators of K: the forms' SVDs
#: cost up to O(G^3), and the at most G kernel rows take G dim H entries
MAX_HILBERT_DIM = 4096
MAX_GENERATORS = 256
#: the two evaluations of omega must agree this tightly
OMEGA_CHECK_TOL = 1e-10
#: a state's norm must lie this close to 1
NORM_TOL = 1e-8


def _stable_mask(values, rel_tol: float, what: str) -> np.ndarray:
    """Which values in each row lie above rel_tol * scale, refusing
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
    return decide(mags, cut, RankUnstable, f"{what}: singular value")


def _stable_rank(values, rel_tol: float, what: str) -> np.ndarray:
    """How many values in each row lie above the cut of ``_stable_mask``."""
    return _stable_mask(values, rel_tol, what).sum(axis=-1)


@functools.lru_cache(maxsize=SU_BASIS_CACHE)
def _factor_operands(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The basis of su(n) and the two operands of its KKS forms (see
    ``_kks_forms``), from its g = n^2 - 1 basis matrices A_a: the A_a
    flattened as a (g, n^2) matrix, the A_a^T stacked as one (g n, n)
    matrix, and the real view of the flattened i conj(A_b) as a (2 n^2, g)
    matrix."""
    mats = np.array([el.matrix for el in su_basis((n,)).elements])
    flat = mats.reshape(len(mats), n * n)
    lhs = mats.transpose(0, 2, 1).reshape(-1, n)
    rhs = (1j * mats.conj()).reshape(len(mats), n * n).view(float).T
    for a in (flat, lhs, rhs):
        a.setflags(write=False)
    return flat, lhs, rhs


def _generator_rows(state: StateTensor | StateStack, generators) -> np.ndarray:
    """One image R_j = X_j v per generator tuple, flattened: (J, dim H) for
    a state, (B, J, dim H) for a stack of B states.

    Each tuple holds per-slot matrices as ``rep_action`` takes them, a
    (B, N, N) block of one matrix per state included, and acts once on the
    whole stack.
    """
    lead = state.coeffs.shape[:state.coeffs.ndim - state.parties]
    rows = np.empty((*lead, len(generators), state.total_dim), dtype=complex)
    for j, mats in enumerate(generators):
        rows[..., j, :] = rep_action(mats, state).reshape(*lead, -1)
    return rows


def _orbit_metric(stack: StateStack, generators) -> np.ndarray:
    """G = Re<R_i|R_j> - alpha_i alpha_j for each state, (B, J, J), on the
    images R_j = X_j v of the given generator tuples.

    Re<x|y> is the dot product of the real views of x and y, so one real
    product of the rows' float view with itself gives Re<R_i|R_j>: a plain
    2-d product (a symmetric rank update) for one state.  alpha_j =
    Im<v|R_j> = Re<i v|R_j> is one matrix-vector product of the same view
    with that of i v, and the moment-map term is taken off in place.
    """
    real = _generator_rows(stack, generators).view(float)
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
    (``_factor_operands``).  Indistinguishable particles have one factor
    acting on every slot, whose moment map is the sum of the M slot
    marginals, M rho.
    """
    group = acting_dims(stack.dims, stack.symmetry)
    marginals = reduced.matrices
    if stack.symmetry != DISTINGUISHABLE:
        marginals = (sum(marginals),)
    for n in dict.fromkeys(group):
        _, lhs, rhs = _factor_operands(n)
        rho = np.stack([m for m, k in zip(marginals, group) if k == n], axis=-3)
        g = rhs.shape[1]
        paired = (lhs @ rho).view(float).reshape(-1, rhs.shape[0])
        yield (paired @ rhs).reshape(*rho.shape[:-2], g, g)


def _kernel_generators(stack: StateStack, reduced: ReducedMatrices,
                       rank_tol: float):
    """s for each state, and generator tuples whose images span T(ker Omega).

    One SVD per factor dim gives the singular values of every Omega_k,
    cut against each state's largest, and the right singular vectors of
    those below the cut: a basis V of ker Omega_k.  Each kernel direction
    is the generator X_j = sum_a V_ja A_a of its factor.  A stack takes,
    per factor, as many directions as the largest kernel among its states;
    states with a smaller kernel get zero blocks there, whose zero images
    add only zero eigenvalues to the metric.
    """
    group = acting_dims(stack.dims, stack.symmetry)
    svds = [np.linalg.svd(omega) for omega in _kks_forms(stack, reduced)]
    sing = np.concatenate([s.reshape(len(stack), -1) for _, s, _ in svds], axis=-1)
    above = _stable_mask(sing, rank_tol, "symplectic form")
    generators, offset = [], 0
    for n, (_, s, vh) in zip(dict.fromkeys(group), svds):
        mask = above[:, offset:offset + s[0].size].reshape(s.shape)
        offset += s[0].size
        # sorted descending, so each kernel is a suffix of the rows of vh
        widths = (s.shape[-1] - mask.sum(axis=-1).min(axis=0)).tolist()
        depth = max(widths)
        rows = slice(s.shape[-1] - depth, None)
        kernel = vh[..., rows, :] * ~mask[..., rows, None]
        blocks = (kernel @ _factor_operands(n)[0]).reshape(*kernel.shape[:-1], n, n)
        parties = [k for k, m in enumerate(group) if m == n]
        for p, (party, width) in enumerate(zip(parties, widths)):
            generators += [embed(blocks[:, p, j], party, stack.parties, stack.symmetry)
                           for j in range(depth - width, depth)]
    return above.sum(axis=-1).tolist(), generators


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
    """Orbit dimension r = s + D, symplectic rank s, and degeneracy D.

    s is the even numerical rank of Omega = (+)_k Omega_k, the KKS forms at
    the reduced matrices rho_k (``_kks_forms``), read off their singular
    values, one batched SVD per factor dim, all values cut against the
    largest.  Since ker T lies inside ker Omega (T being the tangent map
    A -> Av - v<v|Av>: a stabilizer direction pairs to zero under omega),
    r = s + D, where D is the rank of the metric G = Re<R_i|R_j> -
    alpha_i alpha_j on the images R_j = X_j v of a basis X_j of ker Omega
    (``_kernel_generators``, ``_orbit_metric``), read off its eigenvalues.
    Both cuts act on values linear in the spectral gaps of the rho_k; the
    metric on all of k, whose eigenvalues shrink with their square, is
    never formed.

    A StateTensor gives one DegeneracyRank.  A StateStack gives a list with
    one per state: the forms, their SVDs, the kernel rows, the metric, its
    spectrum and both rank cuts run once over the stack, and a refusal of
    any state raises for the whole stack.  ``reduced`` is the input's
    ``reduced_matrices``, for a caller that already holds them; by default
    they are computed here.  The two size guards and then the unit-norm
    check (NotNormalized, NaN included) run before any basis is built or
    any arithmetic on the coefficients.
    """
    check_tolerance(rank_tol, "rank")
    if state.total_dim > MAX_HILBERT_DIM:
        raise EnumerationTooLarge(
            f"Hilbert dimension {state.total_dim} exceeds the oracle guard "
            f"{MAX_HILBERT_DIM}")
    count = sum(n * n - 1 for n in acting_dims(state.dims, state.symmetry))
    if count > MAX_GENERATORS:
        raise EnumerationTooLarge(
            f"{count} generators exceed the oracle guard {MAX_GENERATORS}")
    stack = state if isinstance(state, StateStack) else StateStack.of([state])
    norms = np.linalg.norm(stack.coeffs.reshape(len(stack), -1), axis=-1)
    if not (np.abs(norms - 1.0) <= NORM_TOL).all():  # a NaN norm fails too
        raise NotNormalized("degeneracy_rank needs unit vectors")
    if reduced is None:
        reduced = reduced_matrices(stack)
    symplectic, kernel = _kernel_generators(stack, reduced, rank_tol)
    for s in symplectic:
        if s % 2:
            raise RankUnstable(f"symplectic form has odd numerical rank {s}")
    degeneracy = _stable_rank(np.linalg.eigvalsh(_orbit_metric(stack, kernel)),
                              rank_tol, "orbit Gram matrix").tolist()
    ranks = [DegeneracyRank(s + d, s, d) for s, d in zip(symplectic, degeneracy)]
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
    if not abs(state.norm - 1.0) <= NORM_TOL:  # a NaN norm fails too
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
