"""The rules that need no arrays, and the exact symplecticity test at
weight vectors, in Python integers alone.

This module imports no numpy, so the CLI can parse its arguments and run
``ks-check`` without loading it.  It holds the symmetry classes and the
one rule on dims (``check_dims``), the parser's constants (the default
cluster tolerance, the oracle modes and the boson conventions), and the
weight path: the sl2 triples of the roots, the weight vectors of the
tensor / symmetric / antisymmetric basis and the Kostant-Sternberg test.
``states``, ``measure``, ``report`` and ``lie`` re-export these names as
the same objects.

A basis weight vector is held by its sparse support, {index tuple: +-1}:
the (anti)symmetrized sum over the distinct orderings of its indices.  Its
Cartan charges are read off each index tuple, and a root operator E_ij
moves the digit j to i in each slot it acts on.  The coefficient tensor
and the normalized state are built, with numpy, only when read.
"""

from __future__ import annotations

import functools
import itertools
import math
from numbers import Integral, Real
from typing import NamedTuple

from .errors import DimensionMismatch, EnumerationTooLarge, NotAWeightVector

DISTINGUISHABLE = "distinguishable"
BOSONIC = "bosonic"
FERMIONIC = "fermionic"
SYMMETRY_CLASSES = (DISTINGUISHABLE, BOSONIC, FERMIONIC)

#: default relative clustering tolerance (relative to the largest eigenvalue)
DEFAULT_CLUSTER_TOL = 1e-7

ORACLE_OFF = "off"
ORACLE_VERIFY = "verify"
ORACLE_MODES = (ORACLE_OFF, ORACLE_VERIFY)

BOSON_SYMMETRIC_SIMPLE = "symmetric-simple-tensor"
BOSON_PRODUCT = "product-of-same-vector"
BOSON_CONVENTIONS = (BOSON_SYMMETRIC_SIMPLE, BOSON_PRODUCT)

#: dense tensors above this size are refused by enumeration routines
MAX_ENUMERATION = 10**6


def is_integral(n) -> bool:
    """An integer, numpy's included, or an integral float such as 2.0; a
    boolean, a string or 2.5 is not."""
    if isinstance(n, bool):
        return False
    # int first: the common case, ahead of the slower checks against the ABCs
    return isinstance(n, (int, Integral)) or (isinstance(n, Real) and float(n).is_integer())


def check_dims(dims, symmetry: str = DISTINGUISHABLE) -> tuple[int, ...]:
    """The dims as a tuple of ints, checked against the one rule every
    entry point applies before any arithmetic: a known symmetry class, at
    least one party, every local dimension an integer (``is_integral``)
    and >= 2, one shared dimension for indistinguishable particles, and no
    more fermions than single-particle states (their antisymmetric space
    would be trivial)."""
    if symmetry not in SYMMETRY_CLASSES:
        raise ValueError(f"unknown symmetry class {symmetry!r}")
    dims = tuple(dims)
    for n in dims:
        if not is_integral(n):
            raise DimensionMismatch(
                f"every local dimension must be an integer, got {n!r}")
    dims = tuple(int(n) for n in dims)
    if len(dims) < 1:
        raise DimensionMismatch("a state needs at least one party")
    if any(n < 2 for n in dims):
        raise DimensionMismatch("every local dimension must be >= 2")
    if symmetry != DISTINGUISHABLE and len(set(dims)) > 1:
        raise DimensionMismatch(
            "indistinguishable particles share one single-particle space")
    if symmetry == FERMIONIC and len(dims) > dims[0]:
        raise DimensionMismatch(f"the antisymmetric space of {len(dims)} particles "
                                f"in dimension {dims[0]} is trivial")
    return dims


def acting_dims(dims: tuple[int, ...], symmetry: str) -> tuple[int, ...]:
    """Dims of the acting group K: one SU(N_k) per distinguishable party,
    the single SU(N) acting on every slot for indistinguishable particles."""
    return dims if symmetry == DISTINGUISHABLE else dims[:1]


def permutation_sign(perm) -> int:
    """Sign of a permutation given as a tuple of images of 0..n-1."""
    inversions = sum(
        1 for a, b in itertools.combinations(range(len(perm)), 2)
        if perm[a] > perm[b])
    return -1 if inversions % 2 else 1


def index_charges(index, dims, symmetry: str) -> tuple[int, ...]:
    """The Cartan charges of the basis state at one index tuple, party-major
    over the factors of K: entry m of factor k is
    h_m(x) = [x_k = m] - [x_k = m + 1], the eigenvalue of
    H_m = E_mm - E_{m+1,m+1}, summed over every slot for indistinguishable
    particles.  ``lie.cartan_charges`` computes the same for many states
    at once, with numpy."""
    out = []
    for k, n in enumerate(acting_dims(dims, symmetry)):
        charges = [0] * (n - 1)
        for x in (index[k],) if symmetry == DISTINGUISHABLE else index:
            if x < n - 1:  # [x = m] at m = x
                charges[x] += 1
            if x:  # -[x = m + 1] at m = x - 1
                charges[x - 1] -= 1
        out += charges
    return tuple(out)


def _unit_entry(n: int, i: int, j: int):
    """A fresh read-only (n, n) int64 matrix E_ij."""
    import numpy as np

    e = np.zeros((n, n), dtype=np.int64)
    e[i, j] = 1
    e.setflags(write=False)
    return e


class Sl2Triple(NamedTuple):
    """Root triple (E_ij, E_ji, H_ij) along the positive root i < j of the
    su(N) of one party, N = ``dim``.

    Satisfies [H, E] = 2E, [H, F] = -2F, [E, F] = H with E = raising,
    F = lowering.  The exact test needs only (party, i, j); the read-only
    integer matrices are built, with numpy, when read.
    """

    party: int
    i: int  # 0-based, i < j
    j: int
    dim: int

    @property
    def label(self) -> str:
        a, b = self.i + 1, self.j + 1
        return f"party {self.party + 1}: (E{a}{b}, E{b}{a}, H{a}{b})"

    @property
    def raising(self):
        return _unit_entry(self.dim, self.i, self.j)

    @property
    def lowering(self):
        return _unit_entry(self.dim, self.j, self.i)

    @property
    def coroot(self):
        h = _unit_entry(self.dim, self.i, self.i) - _unit_entry(self.dim, self.j, self.j)
        h.setflags(write=False)
        return h


def sl2_triples(dims) -> tuple[Sl2Triple, ...]:
    """All positive-root sl2 triples of (+)_k sl(N_k, C), party-major, the
    pairs i < j of each party in lexicographic order."""
    return _triples(check_dims(dims))


@functools.lru_cache(maxsize=64)
def _triples(dims: tuple[int, ...]) -> tuple[Sl2Triple, ...]:
    """``sl2_triples`` of checked dims, shared by every weight vector of a
    class."""
    return tuple(Sl2Triple(k, i, j, n) for k, n in enumerate(dims)
                 for i, j in itertools.combinations(range(n), 2))


class WeightVector:
    """Basis state that is a simultaneous eigenvector of the Cartan action.

    ``weight`` lists the integer eigenvalue under each Cartan generator
    H_m = E_mm - E_{m+1,m+1}, party-major.  ``support`` maps the index
    tuple of each nonzero entry to its integer coefficient; the exact tests
    read it.  ``int_coeffs`` is the unnormalized integer coefficient tensor
    and ``state`` the normalized StateTensor; for a vector of
    ``weight_table`` both are built from the support on first read.  A
    vector made by hand, ``WeightVector(label, weight, state, int_coeffs)``,
    reads its support off ``int_coeffs``, which ``state`` must normalize up
    to a phase (else DimensionMismatch on a shape other than ``state.dims``,
    NotAWeightVector on zeros, ValueError otherwise).  Instances are frozen.
    """

    def __init__(self, label: str, weight: tuple[int, ...], state, int_coeffs):
        import numpy as np

        from .states import build_state

        if np.shape(int_coeffs) != state.dims:
            raise DimensionMismatch(f"int_coeffs of shape {np.shape(int_coeffs)} "
                                    f"for a state of dims {state.dims}")
        if not np.any(int_coeffs):
            raise NotAWeightVector("the zero tensor is not a weight vector")
        if not state.projectively_equals(build_state(int_coeffs, state.symmetry)):
            raise ValueError("state is not int_coeffs normalized, up to a global phase")
        vars(self).update(label=label, weight=weight, dims=state.dims,
                          symmetry=state.symmetry, state=state,
                          int_coeffs=int_coeffs)

    @classmethod
    def _of_support(cls, label, weight, dims, symmetry, support) -> "WeightVector":
        wv = object.__new__(cls)
        vars(wv).update(label=label, weight=weight, dims=dims, symmetry=symmetry,
                        support=support)
        return wv

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a WeightVector")

    def __repr__(self) -> str:
        return f"WeightVector(label={self.label!r}, weight={self.weight!r})"

    @functools.cached_property
    def support(self) -> dict[tuple[int, ...], int]:
        import numpy as np

        ints = np.asarray(self.int_coeffs)
        return {tuple(index): int(ints[tuple(index)])
                for index in np.argwhere(ints).tolist()}

    @functools.cached_property
    def int_coeffs(self):
        import numpy as np

        coeffs = np.zeros(self.dims, dtype=np.int64)
        for index, c in self.support.items():
            coeffs[index] = c
        return coeffs

    @functools.cached_property
    def state(self):
        from .states import build_state

        return build_state(self.int_coeffs.astype(complex), self.symmetry)


def _support_weight(support: dict, dims, symmetry) -> tuple[int, ...]:
    """The Cartan eigenvalues of a sparse vector, verified exactly: the
    charges of every index of its support (``index_charges``), which must
    all be one vector."""
    charges = {index_charges(index, dims, symmetry) for index in support}
    if len(charges) > 1:
        raise NotAWeightVector(
            "state is not an exact eigenvector of the Cartan action")
    return charges.pop()


def _raises_nonzero(support: dict, slots, i: int, j: int) -> bool:
    """Whether the root operator E_ij, acting on each of ``slots`` and
    summed, leaves a nonzero vector: on one slot it moves an index tuple
    whose digit there is j to the tuple with i in its place, keeping the
    coefficient, and images of one tuple add up."""
    image: dict[tuple[int, ...], int] = {}
    for index, c in support.items():
        for s in slots:
            if index[s] == j:
                moved = index[:s] + (i,) + index[s + 1:]
                image[moved] = image.get(moved, 0) + c
    return any(image.values())


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


def _basis_support(indices, symmetry) -> dict[tuple[int, ...], int]:
    """Sparse support of the (anti)symmetrized basis element for
    ``indices``: each distinct ordering of the indices, with the sign of
    its permutation for fermions."""
    if symmetry == DISTINGUISHABLE:
        return {tuple(indices): 1}
    support = {}
    for perm in itertools.permutations(range(len(indices))):
        placed = tuple(indices[p] for p in perm)
        if placed not in support:
            support[placed] = permutation_sign(perm) if symmetry == FERMIONIC else 1
    return support


def _basis_label(indices, symmetry) -> str:
    names = [f"e{i + 1}" for i in indices]
    if symmetry == BOSONIC:
        return ".".join(names)   # symmetrized product
    if symmetry == FERMIONIC:
        return "^".join(names)   # wedge product
    return "*".join(names)


def _make_weight_vector(indices, dims, symmetry) -> WeightVector:
    support = _basis_support(indices, symmetry)
    return WeightVector._of_support(_basis_label(indices, symmetry),
                                    _support_weight(support, dims, symmetry),
                                    dims, symmetry, support)


def weight_table(dims, symmetry: str = DISTINGUISHABLE) -> tuple[WeightVector, ...]:
    """Enumerate all weight vectors of the tensor / Sym^M / Wedge^M basis.

    One entry per basis vector; weights are read, and verified exactly, off
    the Cartan charges of each vector's support.
    """
    dims = _weight_space_dims(dims, symmetry)
    return tuple(
        _make_weight_vector(idx, dims, symmetry)
        for idx in _basis_index_tuples(dims, symmetry))


def _acting_slots(triple: Sl2Triple, parties: int, symmetry: str):
    """The slots a root operator of ``triple`` acts on: its own party, or
    every slot for indistinguishable particles."""
    return (triple.party,) if symmetry == DISTINGUISHABLE else range(parties)


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
    wv = _make_weight_vector(indices, dims, symmetry)
    for triple in _triples(acting_dims(dims, symmetry)):
        slots = _acting_slots(triple, len(dims), symmetry)
        if _raises_nonzero(wv.support, slots, triple.i, triple.j):
            raise NotAWeightVector(
                f"{wv.label} is not annihilated by {triple.label}")
    return wv


class KSVerdict(NamedTuple):
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
    Only E_alpha is applied: a vector it kills is a highest-weight vector
    of weight 0 for that sl2, which spans a trivial module, so E_{-alpha}
    kills it too.  Scans all sl2 triples of every party (the diagonal su(N)
    for indistinguishable particles); returns the first violating triple as
    witness otherwise.  All tests are exact integer arithmetic on the
    vector's sparse support.
    """
    dims, symmetry = w.dims, w.symmetry
    group = acting_dims(dims, symmetry)
    if _support_weight(w.support, dims, symmetry) != tuple(w.weight):
        raise NotAWeightVector("stored weight does not match the Cartan action")
    offsets = list(itertools.accumulate([0] + [n - 1 for n in group]))
    for triple in _triples(group):
        base = offsets[triple.party]
        lam = sum(w.weight[base + m] for m in range(triple.i, triple.j))
        if lam != 0:
            continue
        if _raises_nonzero(w.support, _acting_slots(triple, len(dims), symmetry),
                           triple.i, triple.j):
            return KSVerdict(False, triple)
    return KSVerdict(True, None)
