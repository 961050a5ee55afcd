"""Random states and Haar-style local unitaries for tests and `verify`.

States are normalized complex-Gaussian tensors (projectively uniform, so
spectra are generic with probability one); special unitaries come from the
QR decomposition of a complex Gaussian matrix with the usual phase fix,
rescaled onto SU(N).
"""

from __future__ import annotations

import numpy as np

from .states import (
    DISTINGUISHABLE,
    LocalUnitaryTuple,
    StateTensor,
    build_state,
    check_dims,
    special_unitary,
    symmetrize,
)


def _rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def random_state(dims, symmetry: str = DISTINGUISHABLE, rng=None) -> StateTensor:
    """Normalized complex-Gaussian tensor, (anti)symmetrized if requested."""
    rng = _rng(rng)
    dims = check_dims(dims, symmetry)
    raw = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    if symmetry == DISTINGUISHABLE:
        return build_state(raw)
    return symmetrize(raw, symmetry)


def random_product_state(dims, rng=None) -> StateTensor:
    """Tensor product of independent random single-party states."""
    dims = check_dims(dims)
    rng = _rng(rng)
    tensor = np.ones((), dtype=complex)
    for n in dims:
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        tensor = np.tensordot(tensor, v / np.linalg.norm(v), axes=0)
    return build_state(tensor)


def random_special_unitary(n: int, rng=None) -> np.ndarray:
    """Haar-distributed U(n) matrix via QR, rescaled to determinant one."""
    rng = _rng(rng)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return special_unitary(q)


def random_local_unitaries(dims, symmetry: str = DISTINGUISHABLE,
                           rng=None) -> LocalUnitaryTuple:
    """Random tuple of SU(N_k) blocks; one shared block when the particles
    are indistinguishable.  The dims follow ``states.check_dims``."""
    dims = check_dims(dims, symmetry)
    rng = _rng(rng)
    if symmetry == DISTINGUISHABLE:
        blocks = tuple(random_special_unitary(n, rng) for n in dims)
    else:
        u = random_special_unitary(dims[0], rng)
        blocks = tuple(u for _ in dims)
    return LocalUnitaryTuple(blocks)
