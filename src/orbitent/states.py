"""Pure-state coefficient tensors and their local special-unitary action.

A state of M parties with local dimensions (N_1, ..., N_M) is stored as a
normalized complex tensor of that shape.  Indistinguishable particles carry
a symmetry tag: bosonic tensors must be invariant under every transposition
of slots, fermionic tensors must change sign (which also forces vanishing
entries on repeated indices).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotNormalized, SymmetryViolation, ZeroState
from .exact import (  # noqa: F401  (the rules that need no arrays, re-exported)
    BOSONIC,
    DISTINGUISHABLE,
    FERMIONIC,
    SYMMETRY_CLASSES,
    acting_dims,
    check_dims,
    is_integral,
    permutation_sign,
)

#: relative tolerance for verifying a declared exchange symmetry
SYMMETRY_TOL = 1e-10
#: tolerance on |<psi|phi>| = 1 when comparing states projectively
PHASE_TOL = 1e-10
#: blocks must satisfy U^dag U = I to this absolute tolerance
UNITARITY_TOL = 1e-10
#: block determinants must sit within this distance of 1
DETERMINANT_TOL = 1e-8
#: a state handed to a decomposition must have a norm this close to 1
NORM_TOL = 1e-8
#: norms inside this range come from squares that neither underflow nor
#: overflow; build_state and symmetrize prescale inputs outside it
NORM_RANGE = (2.0**-500, 2.0**500)
#: the local product fuses adjacent slots into one product while their
#: dims multiply to at most this
FUSED_DIM = 8


@dataclass(frozen=True)
class StateTensor:
    """Normalized pure state of a composite system.

    Construct through :func:`build_state` or :func:`symmetrize`, which
    validate normalization and the declared symmetry; the raw constructor
    only checks shapes.
    """

    dims: tuple[int, ...]
    coeffs: np.ndarray
    symmetry: str = DISTINGUISHABLE

    def __post_init__(self):
        _store_coeffs(self)

    @property
    def parties(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def overlap(self, other: "StateTensor") -> complex:
        """Hermitian inner product <self|other>."""
        if self.dims != other.dims:
            raise DimensionMismatch("states live in different spaces")
        return complex(np.vdot(self.coeffs, other.coeffs))

    def projectively_equals(self, other: "StateTensor", tol: float = PHASE_TOL) -> bool:
        """True when the two unit states agree up to a global phase."""
        return abs(abs(self.overlap(other)) - 1.0) < tol


@dataclass(frozen=True)
class StateStack:
    """States of one class stacked along a leading axis.

    ``coeffs`` has shape ``(B, *dims)`` with B >= 1, and each slice is one
    state; the stack is read-only.  Build it with :meth:`of` from
    StateTensors that share dims and symmetry.  ``parties`` and
    ``total_dim`` describe one state.  Kernels given a stack act on its
    trailing party axes and keep the stack axis first.
    """

    dims: tuple[int, ...]
    coeffs: np.ndarray
    symmetry: str = DISTINGUISHABLE

    def __post_init__(self):
        _store_coeffs(self, stacked=True)

    @classmethod
    def of(cls, states) -> "StateStack":
        states = list(states)
        if not states:
            raise DimensionMismatch("a stack needs at least one state")
        first = states[0]
        if any(s.dims != first.dims or s.symmetry != first.symmetry
               for s in states):
            raise DimensionMismatch("stacked states must share dims and symmetry")
        # the states were validated and hold read-only complex copies of
        # the right shape: a lone C-ordered one is wrapped as a view, and
        # any other list gets one fresh stacked copy, with no second one
        if len(states) == 1 and first.coeffs.flags.c_contiguous:
            return _wrap(cls, first.dims, first.coeffs[None], first.symmetry)
        return _wrap(cls, first.dims, np.array([s.coeffs for s in states]),
                     first.symmetry)

    @property
    def parties(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def __len__(self) -> int:
        return self.coeffs.shape[0]

    def __getitem__(self, index: int) -> StateTensor:
        return StateTensor(self.dims, self.coeffs[index], self.symmetry)


def check_unit_norm(state: StateTensor | StateStack, what: str) -> None:
    """Raise NotNormalized unless the state, or every state of a stack,
    has a norm within NORM_TOL of 1; a NaN norm fails too.  The raw
    constructors check shapes only, so each decomposition calls this before
    reading the coefficients."""
    flat = state.coeffs.reshape(-1, state.total_dim).view(float)
    norms = np.sqrt(np.einsum("ij,ij->i", flat, flat))
    if not (np.abs(norms - 1.0) <= NORM_TOL).all():
        raise NotNormalized(f"{what} needs unit vectors")


def _wrap(cls, dims, coeffs: np.ndarray, symmetry: str):
    """A StateTensor or StateStack that holds the coefficients as they
    are, made read-only in place.  For a fresh complex C-contiguous array
    of checked dims, or a view of a state's read-only one, whose layout
    the caller vouches for: the constructor's check and copy would only
    repeat work."""
    obj = object.__new__(cls)
    coeffs.setflags(write=False)
    for name, value in (("dims", dims), ("coeffs", coeffs), ("symmetry", symmetry)):
        object.__setattr__(obj, name, value)
    return obj


def _store_coeffs(obj, stacked: bool = False) -> None:
    """Validate and store the dims and a read-only complex copy of the
    coefficients of a StateTensor or, one axis deeper, a StateStack."""
    dims = check_dims(obj.dims, obj.symmetry)
    coeffs = np.array(obj.coeffs, dtype=complex)
    if (coeffs.shape[1:] if stacked else coeffs.shape) != dims:
        raise DimensionMismatch(
            f"tensor shape {coeffs.shape} does not match dims {dims}")
    if stacked and coeffs.shape[0] == 0:
        raise DimensionMismatch("a stack needs at least one state")
    coeffs.setflags(write=False)
    object.__setattr__(obj, "dims", dims)
    object.__setattr__(obj, "coeffs", coeffs)


def build_state(raw, symmetry: str = DISTINGUISHABLE) -> StateTensor:
    """Validate, normalize and wrap a raw coefficient tensor.

    Any finite nonzero tensor is accepted and rescaled to unit norm; the
    exactly zero tensor is rejected.  When the norm leaves ``NORM_RANGE``
    (so squared entries may have underflowed or overflowed), the entries
    are first scaled by a power of two taken from the largest one; that is
    exact, so the result matches the unscaled one wherever both are
    defined.  A declared bosonic or fermionic symmetry is verified, never
    silently imposed (use :func:`symmetrize` to project).

    Raises:
        DimensionMismatch: a shape that breaks :func:`check_dims`, checked
            before any arithmetic.
        ValueError: a NaN or infinite entry, or an unknown symmetry class.
        ZeroState: all-zero input.
        SymmetryViolation: tensor fails the declared symmetry beyond
            ``SYMMETRY_TOL`` relative to its largest entry.
    """
    coeffs = np.array(raw, dtype=complex)
    check_dims(coeffs.shape, symmetry)
    norm = _prescale(coeffs)
    state = StateTensor(coeffs.shape, coeffs / norm, symmetry)
    if symmetry != DISTINGUISHABLE:
        _verify_exchange_symmetry(state)
    return state


def _prescale(coeffs: np.ndarray) -> float:
    """Norm of a complex tensor, after scaling it in place by a power of two
    when the plain norm leaves ``NORM_RANGE``.  Raises ValueError on a NaN
    or infinite entry, ZeroState on all zeros."""
    with np.errstate(over="ignore"):  # an overflow is caught just below
        norm = float(np.linalg.norm(coeffs))
    if not NORM_RANGE[0] < norm < NORM_RANGE[1]:  # also NaN
        if not np.isfinite(coeffs).all():
            raise ValueError("state coefficients must be finite")
        peak = max(float(np.abs(coeffs.real).max(initial=0.0)),
                   float(np.abs(coeffs.imag).max(initial=0.0)))
        if peak == 0.0:
            raise ZeroState("the zero tensor does not define a state")
        _, exponent = math.frexp(peak)
        coeffs.real = np.ldexp(coeffs.real, -exponent)
        coeffs.imag = np.ldexp(coeffs.imag, -exponent)
        norm = float(np.linalg.norm(coeffs))
    return norm


def _verify_exchange_symmetry(state: StateTensor) -> None:
    # adjacent transpositions generate the full symmetric group
    sign = 1.0 if state.symmetry == BOSONIC else -1.0
    scale = float(np.abs(state.coeffs).max())
    for k in range(state.parties - 1):
        swapped = np.swapaxes(state.coeffs, k, k + 1)
        if np.abs(state.coeffs - sign * swapped).max() > SYMMETRY_TOL * scale:
            raise SymmetryViolation(
                f"tensor is not {state.symmetry} under transposition of "
                f"slots {k} and {k + 1}")


def symmetrize(raw, symmetry: str) -> StateTensor:
    """Project a raw tensor onto the totally (anti)symmetric subspace.

    For ``distinguishable`` the projection is the identity and the input is
    just normalized.  The shape must pass :func:`check_dims`, so a trivial
    antisymmetric space raises DimensionMismatch before any arithmetic.
    Raises ZeroState when the projection vanishes (for example the
    antisymmetrization of e_i x e_i).
    """
    coeffs = np.array(raw, dtype=complex)
    if symmetry == DISTINGUISHABLE:
        return build_state(coeffs, symmetry)
    check_dims(coeffs.shape, symmetry)
    norm = _prescale(coeffs)
    sign = -1 if symmetry == FERMIONIC else 1
    total = coeffs
    for m in range(1, coeffs.ndim):
        # P_{m+1} = (1 + sign sum_{k<m} (k m)) P_m / (m + 1), (k m) the swap
        # of slots k and m, one coset of S_m in S_{m+1} per term: M - 1
        # steps in place of a sum over M! permutations
        swaps = sum(np.swapaxes(total, k, m) for k in range(m))
        total = (total + sign * swaps) / (m + 1)
    if np.linalg.norm(total) <= 1e-12 * norm:
        raise ZeroState(f"the {symmetry} projection of the input vanishes")
    return build_state(total, symmetry)


def special_unitary(matrix) -> np.ndarray:
    """Rescale a unitary by det^(-1/N) so its determinant becomes 1; a
    (..., N, N) stack is rescaled matrix by matrix, with one ``det``.
    Non-finite entries are refused before it: a NaN determinant would pass
    the modulus check."""
    m = np.array(matrix, dtype=complex)
    if not np.isfinite(m).all():
        raise ValueError("block entries must be finite")
    det = np.linalg.det(m)
    if (abs(abs(det) - 1.0) > DETERMINANT_TOL).any():
        raise ValueError("matrix determinant does not have unit modulus")
    return m * np.reshape(_phases(det, m.shape[-1]), (*det.shape, 1, 1))


def _phases(det: np.ndarray, n: int) -> list[complex]:
    """The phase exp(-i arg(det) / N) of each determinant of N x N
    matrices: times it, a matrix has a real positive determinant."""
    # np.angle(d) is this arctan2, one element at a time; then one scalar
    # phase per matrix: on an array, the arithmetic can differ in the last bit
    det = np.asarray(det)
    return [np.exp(-1j * a / n) for a in np.arctan2(det.imag, det.real).ravel()]


def _unitarity_drift(stack: np.ndarray) -> np.ndarray:
    """max |U^dag U - I| of each matrix of an (S, N, N) stack; inf or NaN,
    without a warning, where the Gram product overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = stack.conj().swapaxes(-1, -2) @ stack
        return np.abs(gram - np.eye(stack.shape[-1])).max(axis=(-2, -1))


@dataclass(frozen=True)
class LocalUnitaryTuple:
    """One special-unitary block per party.

    The constructor takes blocks that are special unitary already;
    :meth:`from_blocks` rescales unit-modulus determinants by det^(-1/N).
    """

    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", _checked_blocks(self.blocks))

    @classmethod
    def from_blocks(cls, blocks) -> "LocalUnitaryTuple":
        """The tuple of the given blocks, each first rescaled as
        :func:`special_unitary` does, inside the constructor's one pass per
        block size (``_checked_blocks``)."""
        return cls._of_checked(_checked_blocks(blocks, rescale=True))

    @classmethod
    def _of_checked(cls, blocks) -> "LocalUnitaryTuple":
        """The tuple of special-unitary blocks checked already, made
        read-only here, without a second check."""
        g = object.__new__(cls)
        for b in blocks:
            b.setflags(write=False)
        object.__setattr__(g, "blocks", tuple(blocks))
        return g

    @classmethod
    def identity(cls, dims) -> "LocalUnitaryTuple":
        return cls(tuple(np.eye(int(n), dtype=complex) for n in dims))

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(b.shape[0] for b in self.blocks)

    def inverse(self) -> "LocalUnitaryTuple":
        return LocalUnitaryTuple(tuple(b.conj().T for b in self.blocks))


def _checked_blocks(blocks, rescale: bool = False) -> tuple[np.ndarray, ...]:
    """The blocks as read-only complex special-unitary matrices, checked in
    one pass per block size: one stacked ``det`` and one Gram product.

    With ``rescale`` each block is first rescaled by the phase det^(-1/N)
    of that ``det``, with the bits and the memory layout of its own
    :func:`special_unitary` call, and its determinant is then its modulus.
    The first failing block raises: with ``rescale`` the errors of
    :func:`special_unitary` block by block come first (a block outside the
    stacked pass, such as a ragged list, gets its own call), then those of
    the constructor.
    """
    blocks, arrays = tuple(blocks), []
    for b in blocks:
        try:
            arrays.append(np.array(b, dtype=complex))
        except (TypeError, ValueError):
            if not rescale:
                raise
            arrays.append(None)
    sizes: dict[int, list[int]] = {}
    for k, m in enumerate(arrays):
        if (m is not None and m.ndim == 2 and m.shape[0] == m.shape[1]
                and np.isfinite(m).all()):
            sizes.setdefault(m.shape[0], []).append(k)
    drift, dets = {}, {}
    for n, at in sizes.items():
        stack = np.array([arrays[k] for k in at])
        det = np.linalg.det(stack)
        if rescale:
            phases = _phases(det, n)
            stack *= np.reshape(phases, (-1, 1, 1))
            det = abs(det)
            for k, phase in zip(at, phases):
                # each block keeps its memory layout, which the bits of
                # later products with it depend on
                arrays[k] = arrays[k] * phase
        drift.update(zip(at, _unitarity_drift(stack).tolist()))
        dets.update(zip(at, det.tolist()))
    if rescale:
        for k, b in enumerate(blocks):
            if k not in dets:  # raises, or gives a stack the constructor refuses
                arrays[k] = special_unitary(b)
            elif abs(dets[k] - 1.0) > DETERMINANT_TOL:
                raise ValueError("matrix determinant does not have unit modulus")
    for k, m in enumerate(arrays):
        if k not in drift:
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise DimensionMismatch("unitary blocks must be square")
            raise ValueError("block entries must be finite")
        if not drift[k] <= UNITARITY_TOL:  # NaN included
            raise ValueError("block is not unitary within tolerance")
        if abs(dets[k] - 1.0) > DETERMINANT_TOL:
            raise ValueError(
                "block determinant must equal 1 "
                "(use from_blocks to rescale)")
        m.setflags(write=False)
    return tuple(arrays)


def party_rows(coeffs: np.ndarray, k: int, batch: int = 0) -> np.ndarray:
    """The (N_k, dim H / N_k) matrix whose rows run over party k; the
    columns run over the other parties in order.  The first ``batch`` axes
    index a stack of states and stay in front: party k is axis batch + k."""
    lead = coeffs.shape[:batch]
    n = coeffs.shape[batch + k]
    pre = math.prod(coeffs.shape[batch:batch + k])
    return coeffs.reshape(*lead, pre, n, -1).swapaxes(-3, -2).reshape(*lead, n, -1)


def local_product(coeffs: np.ndarray, blocks) -> np.ndarray:
    """Each state v of a (B, *dims) stack with its party axis k contracted
    with the row index of ``blocks[k]``, (B_1^T (x) ... (x) B_M^T) v, as a
    (B, *dims) array; a block is one (N_k, N_k) matrix for the whole stack
    or a (B, N_k, N_k) stack of them.  :func:`apply_local` passes U_k^T.

    One product per run of adjacent slots whose dims multiply to at most
    FUSED_DIM, with the Kronecker product of their blocks: BLAS handles a
    product with 2 x 2 matrices poorly, and twelve qubits take four
    products instead of twelve.  Each product contracts the leading axes of
    the (B, n, rest) view, read transposed, and leaves the new index last,
    so after the last run the party axes are back in order, with no copy
    between the products.
    """
    count, w = coeffs.shape[0], coeffs
    runs, size = [], FUSED_DIM + 1
    for n, block in zip(coeffs.shape[1:], blocks):
        if size * n > FUSED_DIM:
            runs.append(block)
            size = n
        else:
            kron = runs[-1][..., :, None, :, None] * block[..., None, :, None, :]
            runs[-1] = kron.reshape(-1, size * n, size * n)
            size *= n
    for block in runs:
        w = w.reshape(count, block.shape[-1], -1).swapaxes(-1, -2) @ block
    return w.reshape(coeffs.shape)


def apply_local(state: StateTensor, g: LocalUnitaryTuple) -> StateTensor:
    """Act with U_1 (x) ... (x) U_M on the state, by :func:`local_product`.

    Bipartite special case in matrix form: coefficient matrix C maps to
    U_1 C U_2^T.  Norm and symmetry class are preserved; for bosonic and
    fermionic states all blocks must be identical (one common evolution).
    """
    if g.dims != state.dims:
        raise DimensionMismatch(
            f"block dims {g.dims} do not match state dims {state.dims}")
    if state.symmetry != DISTINGUISHABLE:
        first = g.blocks[0]
        for b in g.blocks[1:]:
            if not np.allclose(b, first, rtol=0.0, atol=1e-12):
                raise SymmetryViolation(
                    "indistinguishable particles must all undergo the same block")
    # the product is a fresh C-contiguous complex array of the state's shape
    out = local_product(state.coeffs[None], [b.T for b in g.blocks])[0]
    return _wrap(StateTensor, state.dims, out, state.symmetry)
