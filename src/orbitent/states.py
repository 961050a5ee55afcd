"""Pure-state coefficient tensors and their local special-unitary action.

A state of M parties with local dimensions (N_1, ..., N_M) is stored as a
normalized complex tensor of that shape.  Indistinguishable particles carry
a symmetry tag: bosonic tensors must be invariant under every transposition
of slots, fermionic tensors must change sign (which also forces vanishing
entries on repeated indices).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SymmetryViolation, ZeroState

DISTINGUISHABLE = "distinguishable"
BOSONIC = "bosonic"
FERMIONIC = "fermionic"
SYMMETRY_CLASSES = (DISTINGUISHABLE, BOSONIC, FERMIONIC)

#: relative tolerance for verifying a declared exchange symmetry
SYMMETRY_TOL = 1e-10
#: tolerance on |<psi|phi>| = 1 when comparing states projectively
PHASE_TOL = 1e-10
#: blocks must satisfy U^dag U = I to this absolute tolerance
UNITARITY_TOL = 1e-10
#: block determinants must sit within this distance of 1
DETERMINANT_TOL = 1e-8
#: norms inside this range come from squares that neither underflow nor
#: overflow; build_state and symmetrize prescale inputs outside it
NORM_RANGE = (2.0**-500, 2.0**500)


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
        dims = tuple(int(n) for n in self.dims)
        coeffs = np.array(self.coeffs, dtype=complex)
        if self.symmetry not in SYMMETRY_CLASSES:
            raise ValueError(f"unknown symmetry class {self.symmetry!r}")
        if len(dims) < 1:
            raise DimensionMismatch("a state needs at least one party")
        if any(n < 2 for n in dims):
            raise DimensionMismatch("every local dimension must be >= 2")
        if coeffs.shape != dims:
            raise DimensionMismatch(
                f"tensor shape {coeffs.shape} does not match dims {dims}")
        if self.symmetry != DISTINGUISHABLE and len(set(dims)) > 1:
            raise DimensionMismatch(
                "indistinguishable particles share one single-particle space")
        coeffs.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def parties(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims))

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def vector(self) -> np.ndarray:
        """Flat row-major copy of the coefficient tensor."""
        return self.coeffs.reshape(-1).copy()

    def overlap(self, other: "StateTensor") -> complex:
        """Hermitian inner product <self|other>."""
        if self.dims != other.dims:
            raise DimensionMismatch("states live in different spaces")
        return complex(np.vdot(self.coeffs, other.coeffs))

    def projectively_equals(self, other: "StateTensor", tol: float = PHASE_TOL) -> bool:
        """True when the two unit states agree up to a global phase."""
        return abs(abs(self.overlap(other)) - 1.0) < tol


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
        ValueError: a NaN or infinite entry.
        ZeroState: all-zero input.
        DimensionMismatch: bad shape, or unequal dims for an
            indistinguishable-particle class.
        SymmetryViolation: tensor fails the declared symmetry beyond
            ``SYMMETRY_TOL`` relative to its largest entry.
    """
    coeffs = np.array(raw, dtype=complex)
    if coeffs.ndim == 0:
        raise DimensionMismatch("scalar input has no parties")
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


def permutation_sign(perm) -> int:
    """Sign of a permutation given as a tuple of images of 0..n-1."""
    inversions = sum(
        1 for a, b in itertools.combinations(range(len(perm)), 2)
        if perm[a] > perm[b])
    return -1 if inversions % 2 else 1


def symmetrize(raw, symmetry: str) -> StateTensor:
    """Project a raw tensor onto the totally (anti)symmetric subspace.

    For ``distinguishable`` the projection is the identity and the input is
    just normalized.  Raises ZeroState when the projection vanishes (for
    example the antisymmetrization of e_i x e_i).
    """
    coeffs = np.array(raw, dtype=complex)
    if symmetry == DISTINGUISHABLE:
        return build_state(coeffs, symmetry)
    if coeffs.ndim == 0:
        raise DimensionMismatch("scalar input has no parties")
    if len(set(coeffs.shape)) > 1:
        raise DimensionMismatch("symmetrization needs equal local dimensions")
    norm = _prescale(coeffs)
    m = coeffs.ndim
    total = np.zeros_like(coeffs)
    for perm in itertools.permutations(range(m)):
        term = np.transpose(coeffs, perm)
        if symmetry == FERMIONIC and permutation_sign(perm) < 0:
            total -= term
        else:
            total += term
    total /= math.factorial(m)
    if np.linalg.norm(total) <= 1e-12 * norm:
        raise ZeroState(f"the {symmetry} projection of the input vanishes")
    return build_state(total, symmetry)


def special_unitary(matrix) -> np.ndarray:
    """Rescale a unitary by det^(-1/N) so its determinant becomes 1."""
    m = np.array(matrix, dtype=complex)
    det = np.linalg.det(m)
    if abs(abs(det) - 1.0) > DETERMINANT_TOL:
        raise ValueError("matrix determinant does not have unit modulus")
    return m * np.exp(-1j * np.angle(det) / m.shape[0])


@dataclass(frozen=True)
class LocalUnitaryTuple:
    """One special-unitary block per party.

    Blocks must already be special unitary; pass ``fix_determinant=True`` to
    :meth:`from_blocks` to rescale unit-modulus determinants by det^(-1/N).
    """

    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        checked = []
        for b in self.blocks:
            m = np.array(b, dtype=complex)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise DimensionMismatch("unitary blocks must be square")
            n = m.shape[0]
            if np.abs(m.conj().T @ m - np.eye(n)).max() > UNITARITY_TOL:
                raise ValueError("block is not unitary within tolerance")
            if abs(np.linalg.det(m) - 1.0) > DETERMINANT_TOL:
                raise ValueError(
                    "block determinant must equal 1 "
                    "(use from_blocks(..., fix_determinant=True) to rescale)")
            m.setflags(write=False)
            checked.append(m)
        object.__setattr__(self, "blocks", tuple(checked))

    @classmethod
    def from_blocks(cls, blocks, fix_determinant: bool = False) -> "LocalUnitaryTuple":
        if fix_determinant:
            blocks = [special_unitary(b) for b in blocks]
        return cls(tuple(blocks))

    @classmethod
    def identity(cls, dims) -> "LocalUnitaryTuple":
        return cls(tuple(np.eye(int(n), dtype=complex) for n in dims))

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(b.shape[0] for b in self.blocks)

    def inverse(self) -> "LocalUnitaryTuple":
        return LocalUnitaryTuple(tuple(b.conj().T for b in self.blocks))


def apply_local(state: StateTensor, g: LocalUnitaryTuple) -> StateTensor:
    """Act with U_1 (x) ... (x) U_M on the state.

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
    out = state.coeffs
    for k, block in enumerate(g.blocks):
        out = np.moveaxis(np.tensordot(block, out, axes=([1], [k])), 0, k)
    return StateTensor(state.dims, out, state.symmetry)
