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
rows, and no form on k either: Omega_k(X, Y) = (M_k / 2) Im tr(rho_k [X, Y])
is fixed by the spectrum of rho_k.  In an eigenbasis u_i of rho_k it
pairs the two directions u_i u_j^dag - u_j u_i^dag and
i(u_i u_j^dag + u_j u_i^dag) of each i < j with weight
M_k (lambda_i - lambda_j) and vanishes on the Cartan directions, so one
``eigh`` of the marginals per factor dim gives both s and a basis of
ker Omega = (+)_k ker Omega_k.  Indistinguishable particles have one
factor, the SU(N) acting on every slot, with M_k = M; otherwise M_k = 1.
Rows X_j v are built for the kernel directions alone, and G on them is
one real product of their float view, Re<x|y> being the dot product of
the real views; the alpha_j are the products of that view with the view
of i v.

All rank decisions share one relative threshold with the refusal rule of
``measure.decide``: a value within a factor ten of the cut raises
RankUnstable instead of guessing.  The symplectic cut acts on the gaps
|lambda_i - lambda_j| themselves, the singular values of Omega_k; the
metric cut acts on the eigenvalues of G on ker Omega.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import EnumerationTooLarge, Inconsistency, NotNormalized, RankUnstable
from .lie import rep_action
from .measure import DEFAULT_CLUSTER_TOL, check_tolerance, decide
from .moment import ReducedMatrices, reduced_matrices
from .states import DISTINGUISHABLE, StateStack, StateTensor, acting_dims, embed

if TYPE_CHECKING:
    from .report import ConsistencyRecord

#: gaps and eigenvalues below this fraction of the largest count as zero
DEFAULT_RANK_TOL = 1e-8
#: desk-scale guards on dim H and on the G generators of K: the metric's
#: eigvalsh costs up to O(G^3), reached when every marginal is maximally
#: mixed and all of k is ker Omega, and the at most G kernel rows take
#: G dim H entries
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


def _kernel_generators(stack: StateStack, reduced: ReducedMatrices,
                       rank_tol: float):
    """s for each state, and generator tuples that span ker Omega.

    Omega_k(X, Y) = (M_k / 2) Im tr(rho_k [X, Y]) is fixed by the spectrum of
    rho_k: in an eigenbasis u_i of rho_k it vanishes on the N_k - 1 Cartan
    directions i(u_a u_a^dag - u_{a+1} u_{a+1}^dag) and pairs the two
    directions u_i u_j^dag - u_j u_i^dag and i(u_i u_j^dag + u_j u_i^dag) of
    each i < j with weight M_k (lambda_i - lambda_j).  So one ``eigh`` per
    factor dim, over the stacked marginals of that dim, gives both: s counts
    the ordered pairs whose gap lies above the cut, taken against each
    state's largest gap, and the kernel is spanned by the Cartan directions
    and the pairs below it.  The reduced matrix is C^k = conj(rho_k), so the
    u_i are the conjugates of its eigenvectors; indistinguishable particles
    have one factor acting on every slot, whose marginal is the sum of the M
    slot marginals, M rho.  A stack takes, per party, the union of its
    states' kernel pairs; a state whose own gap lies above the cut gets zero
    blocks there, whose zero images add only zero eigenvalues to the metric.
    """
    group = acting_dims(stack.dims, stack.symmetry)
    marginals = reduced.matrices
    if stack.symmetry != DISTINGUISHABLE:
        marginals = (sum(marginals),)
    factors = []
    for n in dict.fromkeys(group):
        parties = [k for k, m in enumerate(group) if m == n]
        evals, evecs = np.linalg.eigh(np.stack([marginals[k] for k in parties], axis=-3))
        gap = np.abs(evals[..., :, None] - evals[..., None, :])
        factors.append((parties, evecs, gap))
    gaps = np.concatenate([gap.reshape(len(stack), -1) for *_, gap in factors], axis=-1)
    above = _stable_mask(gaps, rank_tol, "symplectic form")
    generators, offset = [], 0
    for parties, evecs, gap in factors:
        kept = ~above[:, offset:offset + gap[0].size].reshape(gap.shape)
        offset += gap[0].size
        u = evecs.conj().swapaxes(-1, -2)  # u[b, p, a] is the eigenvector u_a
        proj = u[..., :, None] * u.conj()[..., None, :]  # u_a u_a^dag
        cartan = 1j * (proj[:, :, :-1] - proj[:, :, 1:])
        generators += [embed(x, party, stack.parties, stack.symmetry)
                       for p, party in enumerate(parties) for x in cartan[:, p].swapaxes(0, 1)]
        for p, i, j in zip(*np.nonzero(kept.any(axis=0))):
            if i < j:  # each pair once; the diagonal's zero gap is always kept
                x = u[:, p, i, :, None] * u[:, p, j, None, :].conj()
                x *= kept[:, p, i, j, None, None]
                y = x.conj().swapaxes(-1, -2)
                generators += [embed(z, parties[p], stack.parties, stack.symmetry)
                               for z in (x - y, 1j * (x + y))]
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

    s is the rank of Omega = (+)_k Omega_k, the KKS forms at the reduced
    matrices rho_k: the count of ordered pairs of eigenvalues of the rho_k
    whose gap M_k |lambda_i - lambda_j| lies above the cut, taken against
    the largest, from one ``eigh`` per factor dim (``_kernel_generators``).
    The same eigenvectors give a basis X_j of ker Omega.  Since ker T lies
    inside ker Omega (T being the tangent map A -> Av - v<v|Av>: a
    stabilizer direction pairs to zero under omega), r = s + D, where D is
    the rank of the metric G = Re<R_i|R_j> - alpha_i alpha_j on the images
    R_j = X_j v (``_orbit_metric``), read off its eigenvalues.  Neither cut
    acts on the metric on all of k, whose eigenvalues shrink with the
    square of the spectral gaps; no SVD is taken and no su(N) basis built.

    A StateTensor gives one DegeneracyRank.  A StateStack gives a list with
    one per state: the ``eigh``, the kernel rows, the metric, its spectrum
    and both rank cuts run once over the stack, and a refusal of any state
    raises for the whole stack.  ``reduced`` is the input's
    ``reduced_matrices``, for a caller that already holds them; by default
    they are computed here.  The two size guards and then the unit-norm
    check (NotNormalized, NaN included) run before any marginal is read or
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
