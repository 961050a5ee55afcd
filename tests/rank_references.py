"""Reference ranks for the oracle's tests: the projected-frame oracle on
all of k, at the oracle's rank cut, and the tolerance-free (r, s, D) of a
Gaussian-integer state; the gather of every pair direction, which the
oracle builds only for the pairs it keeps; and the dense integer weight
path (basis tensors, weights and the Kostant-Sternberg test by matmuls),
which the sparse one in ``orbitent.exact`` replaces."""

import itertools
import math

import numpy as np

from orbitent import BOSONIC, DISTINGUISHABLE, FERMIONIC, rep_action, su_basis
from orbitent.lie import _embedded_action, cartan_charges
from orbitent.oracle import RANK_TOL, _stable_rank
from orbitent.states import acting_dims, permutation_sign


def embed(matrix, party: int, parties: int, symmetry: str) -> tuple:
    """Per-slot tuple of one generator of K: the matrix at its own party
    (``None`` elsewhere), or on every slot for indistinguishable particles."""
    if symmetry != DISTINGUISHABLE:
        return (matrix,) * parties
    return tuple(matrix if k == party else None for k in range(parties))


def all_generators(state):
    """Every basis generator A_a of K as its per-slot tuple, in ``su_basis``
    order."""
    group = acting_dims(state.dims, state.symmetry)
    return [embed(el.matrix, el.party, state.parties, state.symmetry)
            for el in su_basis(group).elements]


def all_rows(state):
    """The images A_a v of every basis generator of K, one ``rep_action``
    call each: (G, dim H) for a state, (B, G, dim H) for a stack."""
    lead = state.coeffs.shape[:state.coeffs.ndim - state.parties]
    return np.stack([rep_action(mats, state).reshape(*lead, -1)
                     for mats in all_generators(state)], axis=-2)


def reference_symplectic_rank(state):
    """s as the rank of Omega = -Im<A_a v|A_b v> on all of k, from the image
    of every basis generator: its singular values are linear in the
    spectral gaps, and no clustering enters."""
    rows = all_rows(state)
    im = (rows.conj() @ rows.T).imag
    sing = np.linalg.svd((im.T - im) / 2.0, compute_uv=False)
    s = int(_stable_rank(sing, RANK_TOL, "reference symplectic form"))
    assert s % 2 == 0
    return s


def reference_ranks(state):
    """The projected-frame oracle: project each generator image onto the
    tangent space and read r off the Gram matrix of the projections, on
    all of k; s is ``reference_symplectic_rank``."""
    rows = all_rows(state)
    v = state.coeffs.reshape(1, -1)
    tangents = rows - (rows @ v.conj().T) * v
    gram = (tangents.conj() @ tangents.T).real
    r = int(_stable_rank(np.linalg.eigvalsh((gram + gram.T) / 2.0), RANK_TOL,
                         "reference Gram matrix"))
    s = reference_symplectic_rank(state)
    return r, s, r - s


def exact_rank(matrix) -> int:
    """The rank of an integer matrix, by fraction-free (Bareiss) elimination
    in Python ints: after each pivot every entry is a minor of the input,
    so each division by the previous pivot is exact."""
    a = np.array(matrix, dtype=object)
    rank, previous = 0, 1
    for col in range(a.shape[1]):
        nonzero = [i for i in range(rank, a.shape[0]) if a[i, col] != 0]
        if not nonzero:
            continue
        a[[rank, nonzero[0]]] = a[[nonzero[0], rank]]
        pivot = a[rank, col]
        a[rank + 1:, col + 1:] = (pivot * a[rank + 1:, col + 1:]
                                  - np.outer(a[rank + 1:, col], a[rank, col + 1:])) // previous
        a[rank + 1:, col] = 0
        previous, rank = pivot, rank + 1
    return rank


def exact_ranks(real, imag, symmetry=DISTINGUISHABLE):
    """(r, s, D) with no tolerance, for the state c of Gaussian-integer
    coefficients ``real + i imag`` (int64 tensors).

    Over the integer basis of k (``su_basis``: entries 0, +-1, +-i) the
    images Xc are Gaussian-integer vectors, and at the unit state c / |c|
    the forms scale to the integer matrices
    G' = |c|^2 Re<Xc|Yc> - Im<c|Xc> Im<c|Yc> (|c|^4 G, rank r) and
    Omega' = -Im<Xc|Yc> (|c|^2 Omega, rank s), whose ranks ``exact_rank``
    takes.  The images and their products are int64, guarded against
    overflow; G' is formed in Python ints."""
    dims = real.shape
    images = []
    for el in su_basis(acting_dims(dims, symmetry)).elements:
        a, b = (embed(part.astype(np.int64), el.party, len(dims), symmetry)
                for part in (el.matrix.real, el.matrix.imag))
        images.append([(rep_action(a, x) + sign * rep_action(b, y)).reshape(-1)
                       for x, y, sign in ((real, imag, -1), (imag, real, 1))])
    xr, xi = np.array(images).swapaxes(0, 1)  # (G, dim H) each
    c_r, c_i = real.reshape(-1), imag.reshape(-1)
    peak = max(int(np.abs(t).max(initial=0)) for t in (xr, xi, c_r, c_i))
    assert 2 * real.size * peak ** 2 < 2 ** 63, "the int64 products would overflow"
    overlap_re = xr @ xr.T + xi @ xi.T
    overlap_im = xr @ xi.T - xi @ xr.T
    alpha = (xi @ c_r - xr @ c_i).astype(object)  # Im<c|Xc>
    norm = int(c_r @ c_r + c_i @ c_i)
    r = exact_rank(norm * overlap_re.astype(object) - np.outer(alpha, alpha))
    s = exact_rank(overlap_im)
    return r, s, r - s


def full_pair_gather(dims, symmetry):
    """Every pair direction E_q of every factor of K, factor by factor, as
    one gather: (J, S, dim H) indices into [w, -w, i w, 0], built for the
    whole class at once from the matrices of ``su_basis``, as the oracle
    did before it built only the pairs a stack keeps.  Each pair direction
    has one nonzero entry per row or none, so (E_q x)_a =
    weight[q, a] x[source[q, a]]."""
    digits = np.indices(dims).reshape(len(dims), -1)
    total = digits.shape[1]
    strides = [math.prod(dims[k + 1:]) for k in range(len(dims))]
    tables = []
    for k, n in enumerate(acting_dims(dims, symmetry)):
        pairs = np.array([el.matrix for el in su_basis((n,)).elements])[n - 1:]
        source = np.abs(pairs).argmax(axis=-1)
        weight = np.take_along_axis(pairs, source[..., None], axis=-1)[..., 0]
        per_slot = []
        for slot in ([k] if symmetry == DISTINGUISHABLE else range(len(dims))):
            d = digits[slot]
            moved = np.arange(total) + (source[:, d] - d) * strides[slot]  # (J, dim H)
            segment = np.select([weight[:, d] == 1, weight[:, d] == -1], [0, 1], 2)
            per_slot.append(np.where(weight[:, d] == 0, 3 * total, segment * total + moved))
        tables.append(np.stack(per_slot, axis=1))
    return np.concatenate(tables)


def dense_basis_tensor(indices, dims, symmetry):
    """The int64 tensor of the (anti)symmetrized basis element for
    ``indices``: one entry per distinct ordering, with the sign of its
    permutation for fermions."""
    coeffs = np.zeros(dims, dtype=np.int64)
    if symmetry == DISTINGUISHABLE:
        coeffs[tuple(indices)] = 1
        return coeffs
    seen = set()
    for perm in itertools.permutations(range(len(indices))):
        placed = tuple(indices[p] for p in perm)
        if placed in seen:
            continue
        seen.add(placed)
        coeffs[placed] = permutation_sign(perm) if symmetry == FERMIONIC else 1
    return coeffs


def dense_basis_indices(dims, symmetry):
    """The index tuples of the basis, in the order of ``weight_table``."""
    n, m = dims[0], len(dims)
    if symmetry == DISTINGUISHABLE:
        return itertools.product(*[range(d) for d in dims])
    if symmetry == BOSONIC:
        return itertools.combinations_with_replacement(range(n), m)
    return itertools.combinations(range(n), m)


def dense_weight(ints, symmetry):
    """The weight of an integer tensor, read off the charges of its support
    by the oracle's vectorized ``cartan_charges``; None unless they agree."""
    charges = cartan_charges(ints.shape, symmetry, np.array(np.nonzero(ints)))
    if (charges != charges[:, :1]).any():
        return None
    return tuple(charges[:, 0].tolist())


def dense_ks_check(ints, weight, symmetry):
    """The Kostant-Sternberg test on a dense integer tensor: (True, None),
    or (False, (party, i, j)) for the first root of weight 0, party-major,
    whose raising operator, applied by ``lie._embedded_action``, leaves a
    nonzero tensor."""
    dims = ints.shape
    group = acting_dims(dims, symmetry)
    offsets = np.cumsum([0] + [n - 1 for n in group])
    for k, n in enumerate(group):
        for i, j in itertools.combinations(range(n), 2):
            if sum(weight[offsets[k] + m] for m in range(i, j)):
                continue
            raising = np.zeros((n, n), dtype=np.int64)
            raising[i, j] = 1
            if _embedded_action(embed(raising, k, len(dims), symmetry), ints).any():
                return False, (k, i, j)
    return True, None
