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

G on ker Omega is read in those eigenbases (``_kernel_metric``).  The
state is rotated once, w = (U_1^dag (x) ... (x) U_M^dag) v, and a kernel
generator U E_q U^dag maps v to E_q w with every inner product kept.  The
Cartan directions are diagonal there, so their block of G is the
covariance of the Cartan charges under |w|^2 (``_charge_table``), with no
rows at all; rows E_q w are written only for the pairs inside one block,
and a generic state has none.

This holds for any clustering at any tolerance: it splits only gaps that
are nonzero, so its kernel K' contains ker Omega and with it ker T, and
r = s' + D' for s' the codimension of K' and D' = dim T(K').  D alone is
decided by a fixed cut, RANK_TOL: the eigenvalues of G on the kernel
count above RANK_TOL times the largest, floored at 1, and one within a
factor ten of that cut raises RankUnstable instead of guessing (the
refusal rule of ``measure.decide``).
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import EnumerationTooLarge, Inconsistency, RankUnstable
from .lie import rep_action
from .measure import DEFAULT_CLUSTER_TOL, decide
from .moment import BYTE_BUDGET, marginal_eigenbases, reduced_matrices
from .states import (
    DISTINGUISHABLE,
    StateStack,
    StateTensor,
    acting_dims,
    check_unit_norm,
    local_product,
)

if TYPE_CHECKING:
    from .report import ConsistencyRecord

#: metric eigenvalues below this fraction of the largest, floored at 1,
#: count as zero
RANK_TOL = 1e-8
#: the end of a rank refusal: no option moves RANK_TOL
RANK_HINT = f"the rank cut RANK_TOL = {RANK_TOL:g} is fixed, so the refusal is final"
#: the pair gathers kept for reuse hold at most this many bytes, in at most
#: GATHER_CACHE_ENTRIES tables
GATHER_CACHE_BYTES = 2**25
GATHER_CACHE_ENTRIES = 64
#: the two evaluations of omega must agree this tightly
OMEGA_CHECK_TOL = 1e-10


def _stable_rank(values, what: str) -> np.ndarray:
    """How many values in each row lie above RANK_TOL * scale, refusing
    near-threshold cases.

    ``scale`` is the row's largest magnitude, floored at 1.0, the metric
    scale: the metric pairs generator images Av at a unit v, so its
    entries are bounded by order one (by M^2 for M indistinguishable
    particles, whose generators act on every slot), and a matrix that is
    pure float noise must read as rank zero rather than have its noise
    promoted to full rank.
    """
    mags = np.abs(np.asarray(values, dtype=float))
    cut = RANK_TOL * np.maximum(mags.max(axis=-1, keepdims=True, initial=0.0), 1.0)
    return decide(mags, cut, RankUnstable, f"{what}: singular value",
                  RANK_HINT).sum(axis=-1)


@functools.lru_cache(maxsize=64)
def _charge_table(dims: tuple[int, ...], symmetry: str) -> np.ndarray:
    """The Cartan charges of every basis state, read-only, (C + 1, dim H)
    for C = sum_k (N_k - 1) over the factors of K: row a of factor k holds
    h_a(x) = [x_k = a] - [x_k = a + 1], the eigenvalue of the Cartan
    direction i(E_aa - E_{a+1,a+1}) of ``lie.su_basis`` divided by i,
    summed over every slot for indistinguishable particles.  A basis state
    is a weight vector, and its weight is its column of charges.  A last
    row of ones lets the product that weighs the charges also sum the
    weights."""
    digits = np.indices(dims).reshape(len(dims), -1)
    rows = []
    for k, n in enumerate(acting_dims(dims, symmetry)):
        slots = digits[[k]] if symmetry == DISTINGUISHABLE else digits
        occupation = (slots[:, None, :] == np.arange(n)[:, None]).sum(axis=0)
        rows.append(occupation[:-1] - occupation[1:])
    rows.append(np.ones((1, digits.shape[1]), dtype=int))
    table = np.concatenate(rows).astype(float)
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=None)
def _kept_pairs(profile: tuple[int, tuple[int, ...]]) -> np.ndarray:
    """Which pair directions of su(n), E_ij - E_ji and i(E_ij + E_ji) for
    each pair i < j in turn, the order of ``lie.su_basis``, lie in
    ker Omega_k for a descending spectrum clustered as ``profile`` (kernel
    multiplicity, positive multiplicities): those whose i and j lie inside
    one block, the kernel block included.  Read-only, (n (n - 1),)."""
    kernel, multiplicities = profile
    labels = np.repeat(np.arange(len(multiplicities) + 1), multiplicities + (kernel,))
    i, j = np.triu_indices(labels.size, 1)
    kept = (labels[i] == labels[j]).repeat(2)
    kept.setflags(write=False)
    return kept


def footprint(dims: tuple[int, ...], symmetry: str,
              pairs: int | None = None) -> tuple[int, int]:
    """(bytes per state, bytes per class) of what the oracle builds for
    states of one class that keep ``pairs`` pair directions in ker Omega;
    by default every pair direction of K, the most a clustering keeps.

    Per state: the rotated state w and its weights |w|^2, the charge table
    weighted by them, and two metrics on ker Omega (the metric and the
    copy that ``eigvalsh`` takes; the moment-map term is subtracted 64
    rows at a time, so its temporary is a third metric only for metrics of
    at most 64 rows); with pairs kept, also the gather source
    [w, -w, i w, 0], the pair rows and their imaginary part, and for
    indistinguishable particles the rows of every slot before they are
    summed.  Per class: the charge table and the pairs' gather table."""
    group = acting_dims(dims, symmetry)
    total = math.prod(dims)
    cartan = sum(n - 1 for n in group)
    if pairs is None:
        pairs = sum(n * (n - 1) for n in group)
    slots = 1 if symmetry == DISTINGUISHABLE else len(dims)
    per_state = (24 + 8 * (cartan + 1)) * total + 16 * (cartan + pairs) ** 2
    if pairs:
        rows = 24 if slots == 1 else 24 + 16 * slots
        per_state += (48 + rows * pairs) * total
    return per_state, 8 * (cartan + 1 + slots * pairs) * total


#: ``_pair_gather``'s tables, least recently used first, and their lock
_gathers: dict[tuple, np.ndarray] = {}
_gathers_lock = threading.Lock()


def _pair_gather(dims: tuple[int, ...], symmetry: str, chosen: np.ndarray) -> np.ndarray:
    """The pair directions ``chosen`` as one gather, read-only and cached:
    (J, S, dim H) indices into the source [w, -w, i w, 0] of length
    3 dim H + 1, such that E_q w is the sum over the S slots of the source
    at them.  ``chosen`` numbers the pair directions of every factor of K,
    factor by factor, and may list them in any order.  S is one for
    distinguishable parties and every slot otherwise.  E_q w puts w's
    slice j, weighted 1, -1 or i, at slice i of the slot's axis, its slice
    i at slice j, and the final 0 elsewhere: one ``take`` where a product
    with E_q would run tiny strided loops on the later slots of a
    many-qubit state.  The cache drops its least recently used tables
    beyond GATHER_CACHE_BYTES or GATHER_CACHE_ENTRIES."""
    key = (dims, symmetry, chosen.tobytes())
    with _gathers_lock:
        table = _gathers.pop(key, None)
        if table is None:
            table = _build_pair_gather(dims, symmetry, chosen)
        _gathers[key] = table
        held = sum(t.nbytes for t in _gathers.values())
        while held > GATHER_CACHE_BYTES or len(_gathers) > GATHER_CACHE_ENTRIES:
            held -= _gathers.pop(next(iter(_gathers))).nbytes
    return table


def _build_pair_gather(dims, symmetry, chosen) -> np.ndarray:
    """``_pair_gather``'s table, built factor by factor for the chosen
    directions of each factor alone.  The q-th pair direction of su(n)
    belongs to the (q // 2)-th pair i < j: E_ij - E_ji for even q, which
    moves x_j to row i and -x_i to row j, and i(E_ij + E_ji) for odd q,
    which moves i x_j and i x_i there."""
    group = acting_dims(dims, symmetry)
    digits = np.indices(dims).reshape(len(dims), -1)
    total = digits.shape[1]
    strides = [math.prod(dims[k + 1:]) for k in range(len(dims))]
    offsets = np.cumsum([0, *(n * (n - 1) for n in group)])
    factor = np.searchsorted(offsets, chosen, side="right") - 1
    every = symmetry != DISTINGUISHABLE
    table = np.empty((len(chosen), len(dims) if every else 1, total), dtype=np.intp)
    for k in np.unique(factor).tolist():
        at = np.flatnonzero(factor == k)
        q = chosen[at, None] - offsets[k]
        i, j = (t[q // 2] for t in np.triu_indices(group[k], 1))  # (J_k, 1) each
        for s, slot in enumerate(range(len(dims)) if every else [k]):
            d = digits[slot]
            row_i, row_j = d == i, d == j  # (J_k, dim H)
            moved = np.arange(total) + (j - i) * (row_i.astype(np.intp) - row_j) * strides[slot]
            segment = np.where(q % 2 == 1, 2, np.where(row_i, 0, 1))  # w, -w or i w
            table[at, s] = np.where(row_i | row_j, segment * total + moved, 3 * total)
    table.setflags(write=False)
    return table


def _pair_rows(w: np.ndarray, dims, symmetry, chosen, keep) -> np.ndarray:
    """The rows R = E_q w, (B, J, dim H), of the pair directions ``chosen``
    (numbered as in ``_pair_gather``), by one ``take`` from the stacked
    [w, -w, i w, 0]; for indistinguishable particles the slots add up.
    ``keep``, (B, J), zeroes a direction in a state that does not keep it."""
    table = _pair_gather(dims, symmetry, chosen)
    count, total = w.shape
    source = np.empty((count, 3 * total + 1), dtype=complex)
    source[:, :total] = w
    np.negative(w, out=source[:, total:2 * total])
    np.multiply(w, 1j, out=source[:, 2 * total:3 * total])
    source[:, -1] = 0
    rows = source.take(table, axis=1)  # (B, J, S, dim H)
    rows = rows[:, :, 0] if rows.shape[2] == 1 else rows.sum(axis=2)
    if not keep.all():
        rows *= keep[..., None]
    return rows


def _kernel_metric(stack: StateStack, eigenbases):
    """s for each state, and the metric G on generators X_j that span
    ker Omega, (B, J, J), from ``moment.marginal_eigenbases`` of the
    stack's reduced matrices.

    The clustering decides which eigenvalues are equal (``_kept_pairs``),
    and s counts the pair directions across blocks; the Cartan directions
    always lie in ker Omega.  The reduced matrix is C^k = conj(rho_k), so
    the eigenvectors of rho_k are the columns of U_k = conj(evecs_k);
    indistinguishable particles have one factor acting on every slot,
    whose marginal, eigenbasis and clustering are those of the first slot.

    The kernel generators are X = U_k E_q U_k^dag for the Cartan and the
    kept pair directions E_q of ``lie.su_basis``.  The state is rotated
    once into the eigenbases,
    w = (U_1^dag (x) ... (x) U_M^dag) v (``local_product``), and X v maps to
    R = E_q w, a unitary change that keeps every inner product.  The Cartan
    directions act diagonally, R = i h w with the charges h of
    ``_charge_table``, so their block of G is the covariance of the charges
    under p = |w|^2, (H p) H^T - a a^T with a = H p, and needs no rows.
    Rows R = E_q w are written only for the pairs inside one block
    (``_pair_rows``): the pair block is Re<R_i|R_j> - alpha_i alpha_j,
    one real product of the rows' float view, and the cross block
    H Im(conj(w) R)^T - a alpha^T, whose last column, from the table's row
    of ones, is alpha = Im sum conj(w) R.  A generic state has no pair
    rows at all.  A party keeps the pairs inside one block in any state of
    the stack; a state whose own pair straddles two blocks gets a zero row
    there, which adds only a zero eigenvalue to the metric.

    Once the clustering has fixed the kept pairs, and before any array per
    state is built, the stack is refused with EnumerationTooLarge when
    what the oracle would build (``footprint``) exceeds BYTE_BUDGET.
    """
    vectors, clusterings = eigenbases
    count, dims, symmetry = len(stack), stack.dims, stack.symmetry
    group = acting_dims(dims, symmetry)
    symplectic = np.zeros(count, dtype=int)
    turns, chosen, blocks = [None] * len(group), [], []
    # where each factor's pair directions start in ``_pair_gather``
    offsets = np.cumsum([0, *(n * (n - 1) for n in group)]).tolist()
    for n in dict.fromkeys(group):
        parties = [k for k, m in enumerate(group) if m == n]
        pairs = np.array([[_kept_pairs(c[k].profile()) for k in parties]
                          for c in clusterings])  # (B, P, n (n - 1))
        symplectic += (~pairs).sum(axis=(1, 2))
        evecs = vectors[n].reshape(count, -1, n, n)
        for p, party in enumerate(parties):
            turns[party] = evecs[:, p]  # local_product applies evecs^T = U_k^dag
        own = pairs.any(axis=0)  # (P, pairs): what each party keeps in some state
        for p in np.flatnonzero(own.any(axis=1)).tolist():
            chosen.append(offsets[parties[p]] + np.flatnonzero(own[p]))
            blocks.append(pairs[:, p, own[p]])
    kept = sum(map(len, chosen))
    per_state, per_class = footprint(dims, symmetry, kept)
    needed = count * per_state + per_class
    if needed > BYTE_BUDGET:
        raise EnumerationTooLarge(
            f"the oracle needs {needed} bytes for a stack of {count} at dims "
            f"{dims} keeping {kept} pair directions, above its budget of "
            f"{BYTE_BUDGET} bytes")
    if symmetry != DISTINGUISHABLE:
        turns = turns * stack.parties
    w = local_product(stack.coeffs, turns).reshape(count, -1)
    charges = _charge_table(dims, symmetry)  # (C + 1, dim H), ones last
    cartan = len(charges) - 1
    prob = w.real ** 2 + w.imag ** 2
    weighed = (charges * prob[:, None]) @ charges.T  # (B, C + 1, C + 1)
    if not blocks:
        gram, alpha = weighed[:, :cartan, :cartan], weighed[:, :cartan, cartan]
    else:
        rows = _pair_rows(w, dims, symmetry, np.concatenate(chosen),
                          np.concatenate(blocks, axis=1))
        size = cartan + rows.shape[1]
        gram = np.empty((count, size, size))
        gram[:, :cartan, :cartan] = weighed[:, :cartan, :cartan]
        real = rows.view(float)
        np.matmul(real, real.swapaxes(-1, -2), out=gram[:, cartan:, cartan:])
        rows *= w.conj()[:, None]  # conj(w) R, in place
        cross = np.ascontiguousarray(rows.imag) @ charges.T  # (B, J, C + 1)
        gram[:, cartan:, :cartan] = cross[..., :cartan]
        gram[:, :cartan, cartan:] = cross[..., :cartan].swapaxes(-1, -2)
        alpha = np.concatenate([weighed[:, :cartan, cartan], cross[..., cartan]], axis=1)
    # minus the moment-map term, 64 rows at a time: no temporary as large
    # as the metric
    for top in range(0, gram.shape[1], 64):
        band = slice(top, top + 64)
        gram[:, band] -= alpha[:, band, None] * alpha[:, None, :]
    return symplectic.tolist(), gram


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


def degeneracy_rank(state: StateTensor | StateStack, *, eigenbases=None):
    """Orbit dimension r = s + D, symplectic rank s, and degeneracy D.

    s is the rank of Omega = (+)_k Omega_k, the KKS forms at the reduced
    matrices rho_k: the count of ordered pairs of eigenvalues of the rho_k
    that the clustering puts in different blocks, the coadjoint formula.
    The eigenvectors U of the same ``eigh`` give a basis X_j = U E_q U^dag
    of ker Omega.  Since ker T lies inside ker Omega, r = s + D, where D is
    the rank of the metric G on the X_j, read off its eigenvalues at the
    fixed cut RANK_TOL (``_stable_rank``).  G is read in the
    eigenbases (``_kernel_metric``): the state is rotated once, the Cartan
    block is the covariance of the Cartan charges under |w|^2, and rows
    are written only for the pairs inside one block.  No SVD is taken, no
    su(N) basis built and no ``rep_action`` called.

    The one size limit is a byte budget: once the clustering has fixed the
    pairs each state keeps, a stack for which the oracle would build more
    than BYTE_BUDGET (``footprint``) raises EnumerationTooLarge, naming
    the bytes, before any array per state is built.  So dim H and the
    generator count are not limited as such: a generic (64, 64) state,
    with no pair rows, is answered, and the maximally entangled one, whose
    8064 pair directions would take 528 MB of rows and a 537 MB metric, is
    refused.

    A StateTensor gives one DegeneracyRank.  A StateStack gives a list with
    one per state: the rotation, the metric, its spectrum and the rank
    cut run once over the stack, and a refusal of any state raises for the
    whole stack.  ``eigenbases`` is ``moment.marginal_eigenbases`` of the
    input's reduced matrices, for a caller that already holds them; by
    default they are computed here, clustered at DEFAULT_CLUSTER_TOL, so
    an undecidable spectrum raises AmbiguousClustering.  A bare call
    reads the unit norm off the traces of the reduced matrices it builds
    (``ReducedMatrices.check_unit_norm``; NotNormalized, NaN included),
    after their byte budget and before any eigenvalue is taken, as
    ``analyze_state`` does.  Given eigenbases, the norms were read off
    their eigenvalue sums, the traces of the marginals, which their
    clustering refuses unless they sum to one within NORM_TOL.  Either
    way no pass over the coefficients is made for the norm.
    """
    stack = state if isinstance(state, StateStack) else StateStack.of([state])
    if eigenbases is None:
        reduced = reduced_matrices(stack)
        reduced.check_unit_norm("degeneracy_rank")
        eigenbases = marginal_eigenbases(reduced)
    symplectic, gram = _kernel_metric(stack, eigenbases)
    degeneracy = _stable_rank(np.linalg.eigvalsh(gram), "orbit Gram matrix").tolist()
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
                           ) -> ConsistencyRecord:
    """Check the oracle ranks against the formulas for one state.

    Runs ``analyze_state(..., oracle="verify")`` and returns the comparison
    record it built, in the mode of the state's route (``report.ROUTES``).
    Raises Inconsistency (with the falsifying state serialized into the
    record) on any mismatch.
    """
    from .report import ORACLE_VERIFY, analyze_state

    return analyze_state(state, cluster_tol, oracle=ORACLE_VERIFY).consistency
