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
M_k (lambda_i - lambda_j) and vanishes on the Cartan directions.  Which
eigenvalues are equal is decided once, by the clustering of
``moment.marginal_eigenbases``, whose ``eigh`` per party dim the report
shares: ker Omega_k is spanned by the Cartan directions and the pairs
inside one block, the kernel block included, so s is the coadjoint
formula of the same clustering.  Indistinguishable particles have one
factor, the SU(N) acting on every slot, with M_k = M; otherwise M_k = 1.
Rows X_j v are built for the kernel directions alone (``_kernel_rows``),
and G on them is one real product of their float view (``_orbit_metric``).

This holds for any clustering at any tolerance: it splits only gaps that
are nonzero, so its kernel K' contains ker Omega and with it ker T, and
r = s' + D' for s' the codimension of K' and D' = dim T(K').  The rank
tolerance decides D alone: the eigenvalues of G on the kernel count
above a relative cut, and one within a factor ten of it raises
RankUnstable instead of guessing (the refusal rule of ``measure.decide``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import EnumerationTooLarge, Inconsistency, RankUnstable
from .lie import _embedded_action, rep_action
from .measure import DEFAULT_CLUSTER_TOL, check_tolerance, decide
from .moment import marginal_eigenbases, reduced_matrices
from .states import (
    DISTINGUISHABLE,
    StateStack,
    StateTensor,
    acting_dims,
    check_unit_norm,
    embed,
)

if TYPE_CHECKING:
    from .report import ConsistencyRecord

#: metric eigenvalues below this fraction of the largest count as zero
DEFAULT_RANK_TOL = 1e-8
#: desk-scale guards on dim H and on the G generators of K: the metric's
#: eigvalsh costs up to O(G^3), reached when every marginal is maximally
#: mixed and all of k is ker Omega; the at most G kernel rows take
#: G dim H entries, and the kernel directions U E_q U^dag, at most
#: n^2 - 1 matrices of n^2 entries for a party of dim n, G (G + 1) in all
MAX_HILBERT_DIM = 4096
MAX_GENERATORS = 256
#: the two evaluations of omega must agree this tightly
OMEGA_CHECK_TOL = 1e-10


def _stable_rank(values, rel_tol: float, what: str) -> np.ndarray:
    """How many values in each row lie above rel_tol * scale, refusing
    near-threshold cases.

    ``scale`` is the row's largest magnitude, floored at 1.0, the metric
    scale: the metric pairs generator images Av at a unit v, so its
    entries are bounded by order one (by M^2 for M indistinguishable
    particles, whose generators act on every slot), and a matrix that is
    pure float noise must read as rank zero rather than have its noise
    promoted to full rank.
    """
    mags = np.abs(np.asarray(values, dtype=float))
    cut = rel_tol * np.maximum(mags.max(axis=-1, keepdims=True, initial=0.0), 1.0)
    return decide(mags, cut, RankUnstable, f"{what}: singular value").sum(axis=-1)


@functools.lru_cache(maxsize=None)
def _eigen_directions(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """su(n) in eigen coordinates, read-only: its n^2 - 1 directions E_q are
    the n - 1 Cartan directions i(E_aa - E_{a+1,a+1}), then E_ij - E_ji and
    i(E_ij + E_ji) for each pair i < j in turn.  Returns the pairs, as
    arrays i and j, and for each direction the flat index i n + j of the
    eigenvalue pair that decides whether it lies in ker Omega, 0 (one
    eigenvalue with itself) for the Cartan ones."""
    i, j = np.triu_indices(n, 1)
    decided_by = np.concatenate([np.zeros(n - 1, dtype=np.intp), (i * n + j).repeat(2)])
    for table in (i, j, decided_by):
        table.setflags(write=False)
    return i, j, decided_by


def _rotated_directions(evecs: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """U E_q U^dag for the Cartan directions and those of the pairs (i, j),
    in the order of ``_eigen_directions``: (..., J, n, n) for (..., n, n)
    eigenvectors, J = n - 1 + 2 len(i).  U = conj(evecs) has the
    eigenvectors u_a as columns.  E_q has two nonzero entries, so U E_q
    U^dag is i(u_a u_a^dag - u_{a+1} u_{a+1}^dag), or x - x^dag and
    i(x + x^dag) for x = u_i u_j^dag: outer products of the u_a, formed for
    all directions at once without a matrix product (on a stack, those
    would be one tiny product per state, party and direction)."""
    n = evecs.shape[-1]
    u = evecs.conj().swapaxes(-1, -2)  # row a is u_a
    v = evecs.swapaxes(-1, -2)  # row a is conj(u_a)
    x = np.empty((*u.shape[:-2], n - 1 + 2 * i.size, n, n), dtype=complex)
    proj = u[..., :, None] * v[..., None, :]  # u_a u_a^dag
    cartan = x[..., :n - 1, :, :]
    np.subtract(proj[..., :-1, :, :], proj[..., 1:, :, :], out=cartan)
    cartan *= 1j
    outer = u[..., i, :, None] * v[..., j, None, :]  # u_i u_j^dag
    adjoint = outer.conj().swapaxes(-1, -2)
    np.subtract(outer, adjoint, out=x[..., n - 1::2, :, :])
    symmetric = x[..., n::2, :, :]
    np.add(outer, adjoint, out=symmetric)
    symmetric *= 1j
    return x


def _orbit_metric(stack: StateStack, rows: np.ndarray) -> np.ndarray:
    """G = Re<R_i|R_j> - alpha_i alpha_j for each state, (B, J, J), on the
    images R_j = X_j v, given as (B, J, dim H) rows.

    Re<x|y> is the dot product of the real views of x and y, so one real
    product of the rows' float view with itself gives Re<R_i|R_j>: a plain
    2-d product (a symmetric rank update) for one state.  alpha_j =
    Im<v|R_j> = Re<i v|R_j> is one matrix-vector product of the same view
    with that of i v, and the moment-map term is taken off in place.
    """
    real = rows.view(float)
    phase = (1j * stack.coeffs.reshape(len(stack), -1)).view(float)
    alpha = real @ phase[..., None]
    if len(stack) == 1:
        gram = (real[0] @ real[0].T)[None]
    else:
        gram = real @ real.swapaxes(-1, -2)
    gram -= alpha * alpha.swapaxes(-1, -2)
    return gram


@functools.lru_cache(maxsize=None)
def _kernel_mask(profile: tuple[int, tuple[int, ...]]) -> np.ndarray:
    """Which directions of ``_eigen_directions(n)`` lie in ker Omega_k for
    a descending spectrum clustered as ``profile`` (kernel multiplicity,
    positive multiplicities): the Cartan directions and the pairs inside
    one block, the kernel block included.  Read-only, (n^2 - 1,)."""
    kernel, multiplicities = profile
    labels = np.repeat(np.arange(len(multiplicities) + 1), multiplicities + (kernel,))
    mask = (labels[:, None] == labels).ravel()[_eigen_directions(labels.size)[2]]
    mask.setflags(write=False)
    return mask


def _kernel_rows(stack: StateStack, eigenbases):
    """s for each state, and the images X_j v of generators X_j that span
    ker Omega, as (B, J, dim H) rows, from ``moment.marginal_eigenbases``
    of the stack's reduced matrices.

    The clustering decides which eigenvalues are equal (``_kernel_mask``),
    and s counts the directions across blocks.  The reduced matrix is
    C^k = conj(rho_k), so the u_i are the conjugates of its eigenvectors;
    indistinguishable particles have one factor acting on every slot, whose
    marginal, eigenbasis and clustering are those of the first slot.

    The kernel directions of one factor dim are built at once, as
    U E_q U^dag for the selected q of every party and state.  A party keeps
    the pairs inside one block in any state of the stack; a state whose own
    pair straddles two blocks gets zero blocks there, whose zero images add
    only zero eigenvalues to the metric.  Each party's images are then
    written by one contraction per acting slot into one preallocated array.
    """
    vectors, clusterings = eigenbases
    group = acting_dims(stack.dims, stack.symmetry)
    symplectic = np.zeros(len(stack), dtype=int)
    blocks = []
    for n in dict.fromkeys(group):
        parties = [k for k, m in enumerate(group) if m == n]
        i, j, _ = _eigen_directions(n)
        keep = np.array([[_kernel_mask(c[k].profile()) for k in parties]
                         for c in clusterings])  # (B, P, n^2 - 1)
        symplectic += (~keep).sum(axis=(1, 2))
        union = keep.any(axis=(0, 1))  # Cartan always kept
        pairs = union[n - 1::2]
        evecs = vectors[n].reshape(len(stack), -1, n, n)[:, :len(parties)]
        x = _rotated_directions(evecs, i[pairs], j[pairs])  # (B, P, J, n, n)
        keep = keep[..., union]
        if keep.all():
            blocks += [(party, x[:, p]) for p, party in enumerate(parties)]
            continue
        x *= keep[..., None, None]
        own = keep.any(axis=0)  # (P, J): what each party keeps in some state
        for p, (party, full) in enumerate(zip(parties, own.all(axis=-1).tolist())):
            blocks.append((party, x[:, p] if full else x[:, p, own[p]]))
    rows = np.empty((len(stack), sum(x.shape[1] for _, x in blocks), stack.total_dim),
                    dtype=complex)
    start = 0
    for party, x in blocks:
        out = rows[:, start:start + x.shape[1]].reshape(*x.shape[:2], *stack.dims)
        _embedded_action(embed(x, party, stack.parties, stack.symmetry), stack.coeffs, out)
        start += x.shape[1]
    return symplectic.tolist(), rows


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
                    eigenbases=None):
    """Orbit dimension r = s + D, symplectic rank s, and degeneracy D.

    s is the rank of Omega = (+)_k Omega_k, the KKS forms at the reduced
    matrices rho_k: the count of ordered pairs of eigenvalues of the rho_k
    that the clustering puts in different blocks, the coadjoint formula.
    The eigenvectors U of the same ``eigh`` give a basis X_j = U E_q U^dag
    of ker Omega, whose images X_j v are written with no ``rep_action``
    call (``_kernel_rows``).  Since ker T lies inside ker Omega, r = s + D,
    where D is the rank of the metric G on the X_j (``_orbit_metric``),
    read off its eigenvalues at ``rank_tol``: the one cut the rank
    tolerance makes.  No SVD is taken and no su(N) basis built.

    A StateTensor gives one DegeneracyRank.  A StateStack gives a list with
    one per state: the kernel rows, the metric, its spectrum and the rank
    cut run once over the stack, and a refusal of any state raises for the
    whole stack.  ``eigenbases`` is ``moment.marginal_eigenbases`` of the
    input's reduced matrices, for a caller that already holds them; by
    default they are computed here, clustered at DEFAULT_CLUSTER_TOL, so
    an undecidable spectrum raises AmbiguousClustering.  The two size
    guards and then the unit-norm check (NotNormalized, NaN included) run
    before any marginal is read or any arithmetic on the coefficients.
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
    check_unit_norm(state, "degeneracy_rank")
    stack = state if isinstance(state, StateStack) else StateStack.of([state])
    if eigenbases is None:
        eigenbases = marginal_eigenbases(reduced_matrices(stack))
    symplectic, rows = _kernel_rows(stack, eigenbases)
    degeneracy = _stable_rank(np.linalg.eigvalsh(_orbit_metric(stack, rows)),
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
    check_unit_norm(state, "fubini_study_omega")
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
    "bounds" for M >= 3, "none" for every other state, whose integers come
    from the oracle alone.  Raises
    Inconsistency (with the falsifying state serialized into the record) on
    any mismatch.
    """
    from .report import ORACLE_VERIFY, analyze_state

    return analyze_state(state, cluster_tol, rank_tol,
                         oracle=ORACLE_VERIFY).consistency
