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
acting diagonally on every slot.  The weight path (``sl2_triples``,
``weight_table``, ``highest_weight_vector``, ``kostant_sternberg_check``)
runs in Python integers in ``exact`` and is re-exported here; this module
holds the array side: the real basis and the derivative action on
coefficient tensors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SymmetryViolation
from .exact import (  # noqa: F401  (the weight path, re-exported)
    MAX_ENUMERATION,
    KSVerdict,
    Sl2Triple,
    WeightVector,
    _unit_entry,
    highest_weight_vector,
    kostant_sternberg_check,
    sl2_triples,
    weight_table,
)
from .states import (
    DISTINGUISHABLE,
    StateStack,
    StateTensor,
    check_dims,
    party_rows,
)


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


def _embedded_action(mats, coeffs: np.ndarray) -> np.ndarray:
    """Apply sum_k I (x) ... (x) A_k (x) ... (x) I to a coefficient tensor,
    or to each state of a stack: the parties are the trailing ``len(mats)``
    axes, any axes before them index states, and each acting block is one
    (N_k, N_k) matrix.

    Each acting party adds one product with the rows of its axis across
    the whole stack (``states.party_rows``) into one output.  Every term is
    a matmul, so integer inputs stay exact.
    """
    acting = [(k, m) for k, m in enumerate(mats) if m is not None]
    stacked = coeffs.ndim - len(mats)
    shape = coeffs.shape
    out = np.zeros(shape, dtype=np.result_type(coeffs, *(m for _, m in acting)))
    for k, m in acting:
        axis = stacked + k
        target = out.reshape(math.prod(shape[:axis]), shape[axis], -1).swapaxes(0, 1)
        target += (m @ party_rows(coeffs, axis)).reshape(target.shape)
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
