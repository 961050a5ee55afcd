"""su(N) bases, roots and weights, and the symplectic-orbit test at weight vectors.

The compact algebra k = su(N_1) (+) ... (+) su(N_M) is spanned, party by
party, by the anti-Hermitian matrices i*H_j with H_j = E_jj - E_{j+1,j+1}
(Cartan part) together with the pairs E_ij - E_ji and i(E_ij + E_ji) for
i < j.  Root bookkeeping runs over the complexification: raising operators
E_ij with i < j, lowering operators E_ji, coroots H_ij = [E_ij, E_ji].

Weight arithmetic is exact.  Root operators, coroots, and the basis states
of the tensor / symmetric / antisymmetric spaces all have integer entries,
so eigenvalue conditions such as lambda(H_ij) = 0 are decided without
tolerances.  For indistinguishable particles the group is the single SU(N)
acting diagonally on every slot.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EnumerationTooLarge,
    NotAWeightVector,
    SymmetryViolation,
)
from .states import (
    BOSONIC,
    DISTINGUISHABLE,
    FERMIONIC,
    StateStack,
    StateTensor,
    acting_dims,
    build_state,
    check_dims,
    embed,
    party_rows,
    permutation_sign,
)

#: dense tensors above this size are refused by enumeration routines
MAX_ENUMERATION = 10**6


def _unit_entry(n: int, i: int, j: int, dtype=np.int64) -> np.ndarray:
    e = np.zeros((n, n), dtype=dtype)
    e[i, j] = 1
    return e


@dataclass(frozen=True)
class LieBasisElement:
    """One real basis element of su(N_k), acting on a single party."""

    party: int
    matrix: np.ndarray  # anti-Hermitian, traceless
    label: str


@dataclass(frozen=True)
class LieBasis:
    """Indexed real basis of (+)_k su(N_k), party-major, Cartan first."""

    dims: tuple[int, ...]
    elements: tuple[LieBasisElement, ...]

    def __len__(self) -> int:
        return len(self.elements)


def su_basis(dims) -> LieBasis:
    """Standard real basis of (+)_k su(N_k).

    Ordering per party: i*H_1 ... i*H_{N-1}, then for each pair i < j in
    lexicographic order the elements E_ij - E_ji and i(E_ij + E_ji).
    The basis is frozen and its matrices are read-only.
    """
    dims = check_dims(dims)
    elements = []
    for k, n in enumerate(dims):
        for j in range(n - 1):
            h = _unit_entry(n, j, j) - _unit_entry(n, j + 1, j + 1)
            elements.append(LieBasisElement(k, 1j * h, f"p{k}.iH{j + 1}"))
        for i, j in itertools.combinations(range(n), 2):
            eij = _unit_entry(n, i, j).astype(complex)
            eji = _unit_entry(n, j, i).astype(complex)
            elements.append(
                LieBasisElement(k, eij - eji, f"p{k}.A{i + 1}{j + 1}"))
            elements.append(
                LieBasisElement(k, 1j * (eij + eji), f"p{k}.S{i + 1}{j + 1}"))
    for e in elements:
        e.matrix.setflags(write=False)
    return LieBasis(dims, tuple(elements))


@dataclass(frozen=True)
class CartanGenerator:
    """H_m = E_mm - E_{m+1,m+1} of party ``party`` (integer entries)."""

    party: int
    index: int
    matrix: np.ndarray


def cartan_basis(dims) -> tuple[CartanGenerator, ...]:
    """Fixed Cartan basis, party-major: H_1 ... H_{N_k - 1} per party."""
    dims = check_dims(dims)
    gens = []
    for k, n in enumerate(dims):
        for m in range(n - 1):
            h = _unit_entry(n, m, m) - _unit_entry(n, m + 1, m + 1)
            h.setflags(write=False)
            gens.append(CartanGenerator(k, m, h))
    return tuple(gens)


@dataclass(frozen=True)
class Sl2Triple:
    """Root triple (E_ij, E_ji, H_ij) along the positive root i < j.

    Satisfies [H, E] = 2E, [H, F] = -2F, [E, F] = H with E = raising,
    F = lowering.
    """

    party: int
    i: int  # 0-based, i < j
    j: int
    raising: np.ndarray
    lowering: np.ndarray
    coroot: np.ndarray

    @property
    def label(self) -> str:
        a, b = self.i + 1, self.j + 1
        return f"party {self.party + 1}: (E{a}{b}, E{b}{a}, H{a}{b})"


def sl2_triples(dims) -> tuple[Sl2Triple, ...]:
    """All positive-root sl2 triples of (+)_k sl(N_k, C), party-major."""
    dims = check_dims(dims)
    triples = []
    for k, n in enumerate(dims):
        for i, j in itertools.combinations(range(n), 2):
            e = _unit_entry(n, i, j)
            f = _unit_entry(n, j, i)
            h = e @ f - f @ e
            for m in (e, f, h):
                m.setflags(write=False)
            triples.append(Sl2Triple(k, i, j, e, f, h))
    return tuple(triples)


def _embedded_action(mats, coeffs: np.ndarray) -> np.ndarray:
    """Apply sum_k I (x) ... (x) A_k (x) ... (x) I to a coefficient tensor,
    or to each state of a stack: the parties are the trailing ``len(mats)``
    axes, any axes before them index states, and each acting block is one
    (N_k, N_k) matrix.

    Party k sits on axis a and acts on the middle axis of the (pre, N_k,
    rest) view, pre = prod(shape[:a]).  When the trailing side is empty
    (the last party) the view is a matrix, and the action is one product
    on it.  When the leading side is the shorter one, it is one matmul
    batched over it.  Otherwise it is one product with the rows of axis a
    across the whole stack (``states.party_rows``): the later qubits of a
    many-qubit state, or a long stack, would else cost hundreds of tiny
    matmuls.  The first acting slot writes the result and later ones add
    to it.  Every term is a matmul, so integer inputs stay exact.
    """
    acting = [(k, m) for k, m in enumerate(mats) if m is not None]
    if not acting:
        return np.zeros_like(coeffs)
    stacked = coeffs.ndim - len(mats)
    shape = coeffs.shape
    out = np.empty(shape, dtype=np.result_type(coeffs, *(m for _, m in acting)))
    for slot, (k, m) in enumerate(acting):
        axis = stacked + k
        pre, n, post = (math.prod(shape[:axis]), shape[axis],
                        math.prod(shape[axis + 1:]))
        target = out.reshape(pre, n, post)
        if post > 1 and pre > post:
            product = m @ party_rows(coeffs, axis)
            target = target.swapaxes(-3, -2)
            product = product.reshape(target.shape)
        else:
            if post == 1:
                operands = coeffs.reshape(pre, n), m.T
                target = target[..., 0]
            else:
                operands = m[None], coeffs.reshape(pre, n, post)
            if slot == 0:
                np.matmul(*operands, out=target)
                continue
            product = np.matmul(*operands)
        if slot == 0:
            target[...] = product
        else:
            target += product
    return out


def _normalize_generator(generator, dims, symmetry):
    """Expand a generator argument into one matrix (or None) per party."""
    if isinstance(generator, np.ndarray) and generator.ndim == 2:
        n = generator.shape[0]
        if generator.shape != (n, n) or any(d != n for d in dims):
            raise DimensionMismatch(
                "a single matrix acts diagonally and needs equal party dims")
        return tuple(generator for _ in dims)
    mats = tuple(generator)
    if len(mats) != len(dims):
        raise DimensionMismatch(
            f"generator tuple has {len(mats)} entries for {len(dims)} parties")
    out = []
    for k, m in enumerate(mats):
        if m is None:
            out.append(None)
            continue
        m = np.asarray(m)
        if m.shape != (dims[k], dims[k]):
            raise DimensionMismatch(
                f"party {k} generator has shape {m.shape}, expected "
                f"{(dims[k], dims[k])}")
        out.append(m)
    if symmetry != DISTINGUISHABLE:
        first = out[0]
        same = first is not None and all(
            m is first or m is not None and np.array_equal(m, first)
            for m in out)
        if not same:
            raise SymmetryViolation(
                "indistinguishable particles take the diagonal action: "
                "all blocks must be one identical matrix")
    return tuple(out)


def rep_action(generator, state) -> np.ndarray:
    """Derivative action sum_k I (x) ... (x) A_k (x) ... (x) I on a state.

    ``generator`` is either a single N x N matrix (diagonal action, equal
    dims) or a sequence of per-party matrices where ``None`` means no action
    on that party.  ``state`` may be a StateTensor, a StateStack (each
    state is acted on; the result keeps the stack axis first) or a bare
    coefficient tensor.  The result is a plain, generally unnormalized,
    tensor.
    """
    if isinstance(state, (StateTensor, StateStack)):
        coeffs, dims, symmetry = state.coeffs, state.dims, state.symmetry
    else:
        coeffs = np.asarray(state)
        dims, symmetry = coeffs.shape, DISTINGUISHABLE
    mats = _normalize_generator(generator, dims, symmetry)
    return _embedded_action(mats, coeffs)


@dataclass(frozen=True)
class WeightVector:
    """Basis state that is a simultaneous eigenvector of the Cartan action.

    ``weight`` lists the integer eigenvalue under each generator of
    :func:`cartan_basis` (party-major).  ``int_coeffs`` is the unnormalized
    integer coefficient tensor used for exact eigenvalue checks; ``state``
    is the normalized StateTensor.
    """

    label: str
    weight: tuple[int, ...]
    state: StateTensor
    int_coeffs: np.ndarray


def _exact_weight(int_coeffs: np.ndarray, cartans, symmetry) -> tuple[int, ...]:
    """Eigenvalues of the Cartan generators, verified exactly."""
    flat = int_coeffs.reshape(-1)
    pivot = int(np.argmax(np.abs(flat)))
    if flat[pivot] == 0:
        raise NotAWeightVector("the zero tensor is not a weight vector")
    weight = []
    for gen in cartans:
        mats = embed(gen.matrix, gen.party, int_coeffs.ndim, symmetry)
        image = _embedded_action(mats, int_coeffs)
        lam = int(image.reshape(-1)[pivot]) // int(flat[pivot])
        if not np.array_equal(image, lam * int_coeffs):
            raise NotAWeightVector(
                "state is not an exact eigenvector of the Cartan action")
        weight.append(lam)
    return tuple(weight)


def _weight_space_dims(dims, symmetry) -> tuple[int, ...]:
    """Checked dims of a tensor / Sym^M / Wedge^M space small enough to
    enumerate densely."""
    dims = check_dims(dims, symmetry)
    if math.prod(dims) > MAX_ENUMERATION:
        raise EnumerationTooLarge(
            f"dense tensor of size {math.prod(dims)} exceeds {MAX_ENUMERATION}")
    return dims


def _basis_index_tuples(dims, symmetry):
    n, m = dims[0], len(dims)
    if symmetry == DISTINGUISHABLE:
        return itertools.product(*[range(d) for d in dims])
    if symmetry == BOSONIC:
        return itertools.combinations_with_replacement(range(n), m)
    return itertools.combinations(range(n), m)


def _int_basis_tensor(indices, dims, symmetry) -> np.ndarray:
    """Integer tensor of the (anti)symmetrized basis element for ``indices``."""
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
        sign = permutation_sign(perm) if symmetry == FERMIONIC else 1
        coeffs[placed] = sign
    return coeffs


def _basis_label(indices, symmetry) -> str:
    names = [f"e{i + 1}" for i in indices]
    if symmetry == BOSONIC:
        return ".".join(names)   # symmetrized product
    if symmetry == FERMIONIC:
        return "^".join(names)   # wedge product
    return "*".join(names)


def _make_weight_vector(indices, dims, symmetry, cartans) -> WeightVector:
    ints = _int_basis_tensor(indices, dims, symmetry)
    weight = _exact_weight(ints, cartans, symmetry)
    return WeightVector(
        label=_basis_label(indices, symmetry),
        weight=weight,
        state=build_state(ints.astype(complex), symmetry),
        int_coeffs=ints,
    )


def weight_table(dims, symmetry: str = DISTINGUISHABLE) -> tuple[WeightVector, ...]:
    """Enumerate all weight vectors of the tensor / Sym^M / Wedge^M basis.

    One entry per basis vector; weights are computed, and verified exactly,
    by applying the Cartan generators.
    """
    dims = _weight_space_dims(dims, symmetry)
    cartans = cartan_basis(acting_dims(dims, symmetry))
    return tuple(
        _make_weight_vector(idx, dims, symmetry, cartans)
        for idx in _basis_index_tuples(dims, symmetry))


def highest_weight_vector(dims, symmetry: str = DISTINGUISHABLE) -> WeightVector:
    """The basis weight vector annihilated by every raising operator.

    e_1 (x) ... (x) e_1 for distinguishable particles and bosons, the top
    antisymmetrized element e_1 ^ ... ^ e_M for fermions.  Annihilation is
    verified exactly.
    """
    dims = _weight_space_dims(dims, symmetry)
    if symmetry == FERMIONIC:
        indices = tuple(range(len(dims)))
    else:
        indices = (0,) * len(dims)
    group = acting_dims(dims, symmetry)
    wv = _make_weight_vector(indices, dims, symmetry, cartan_basis(group))
    for triple in sl2_triples(group):
        raising = embed(triple.raising, triple.party, len(dims), symmetry)
        if _embedded_action(raising, wv.int_coeffs).any():
            raise NotAWeightVector(
                f"{wv.label} is not annihilated by {triple.label}")
    return wv


@dataclass(frozen=True)
class KSVerdict:
    """Outcome of the weight-vector symplecticity test."""

    symplectic: bool
    witness: Sl2Triple | None

    @property
    def verdict(self) -> str:
        return "symplectic" if self.symplectic else "not_symplectic"


def kostant_sternberg_check(w: WeightVector) -> KSVerdict:
    """Decide whether the K-orbit through a weight vector is symplectic.

    The orbit is symplectic iff for every positive root alpha with
    lambda(H_alpha) = 0 both E_alpha and E_{-alpha} annihilate the vector.
    Scans all sl2 triples of every party (the diagonal su(N) for
    indistinguishable particles); returns the first violating triple as
    witness otherwise.  All eigenvalue tests are exact integer arithmetic.
    """
    parties, symmetry = w.state.parties, w.state.symmetry
    group = acting_dims(w.state.dims, symmetry)
    if _exact_weight(w.int_coeffs, cartan_basis(group), symmetry) != tuple(w.weight):
        raise NotAWeightVector("stored weight does not match the Cartan action")
    offsets = np.cumsum([0] + [n - 1 for n in group])
    for triple in sl2_triples(group):
        base = offsets[triple.party]
        lam = sum(w.weight[base + m] for m in range(triple.i, triple.j))
        if lam != 0:
            continue
        for op in (triple.raising, triple.lowering):
            if _embedded_action(embed(op, triple.party, parties, symmetry),
                                w.int_coeffs).any():
                return KSVerdict(False, triple)
    return KSVerdict(True, None)
