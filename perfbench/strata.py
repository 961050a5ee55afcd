"""Seeded benchmark states together with the integers their construction fixes.

Each state is built inside a known stratum and then rotated by random local
special unitaries (``sampling.random_local_unitaries``), which changes no
integer.  The strata:

- Schmidt profiles on bipartite states: prescribed block multiplicities and
  kernel, including product and maximally entangled states; the generic
  bipartite stratum is the profile with every multiplicity one;
- GHZ (with any number of levels) and W states, Bell (x) product;
- bosonic v^(x)M and fermionic Slater determinants;
- generic samples from ``sampling.random_state`` for three or more parties
  and for indistinguishable particles.

Gaussian states alone are all multiplicity one, so without the strata the
m_n^2 and m_0^2 terms of the counts would never be exercised.  Every gap
and every positive value of every reduced spectrum is kept at least
``MARGIN`` times above the default clustering threshold, so no operation is
refused; :func:`check_margins` verifies this with plain numpy before a state
is used, and generic samples that fail it are redrawn.

The expected integers are derived here from the construction (stabilizer
dimensions), not read back from the library, with one exception: the
generic stabilizer dimension of three fermions in C^6 (see
``GENERIC_STABILIZER_DIM``) is a regression pin taken from the oracle at
the commit that defined the benchmark.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from orbitent.measure import DEFAULT_CLUSTER_TOL
from orbitent.sampling import random_local_unitaries, random_state
from orbitent.states import (
    BOSONIC,
    DISTINGUISHABLE,
    FERMIONIC,
    apply_local,
    build_state,
    symmetrize,
)

#: every reduced-spectrum gap and positive value sits this factor above the
#: clustering threshold tol * max(spectrum)
MARGIN = 1e3
#: eigenvalues of one degenerate block (or of the kernel) agree to this
SAME_VALUE = 1e-12

#: dimension of the stabilizer, inside SU(N) acting diagonally, of a generic
#: indistinguishable-particle state.  Two fermions in C^5 are a rank-4 2-form
#: a e1^e2 + b e3^e4 fixed by SU(2) x SU(2) x U(1) (7); the bosonic families
#: have finite generic stabilizers.  Three fermions in C^6 are not derived
#: here: their 2 is pinned to what the oracle gave on every sample drawn when
#: the benchmark was defined, so a change there shows as a failure.
GENERIC_STABILIZER_DIM = {
    ((3, 3), BOSONIC): 0,
    ((4, 4, 4), BOSONIC): 0,
    ((2,) * 6, BOSONIC): 0,
    ((5, 5), FERMIONIC): 7,
    ((6, 6, 6), FERMIONIC): 2,
}


@dataclass(frozen=True)
class Case:
    """One benchmark state and the report its construction implies.

    ``profiles`` holds (kernel multiplicity, positive multiplicities) per
    reduced matrix.  ``orbit_dim`` and ``degeneracy`` are an int, or a
    (low, high) pair where the report gives closed-form bounds.
    """

    label: str
    state: object  # orbitent.states.StateTensor
    profiles: tuple
    orbit_dim: object
    coadjoint_dim: int
    degeneracy: object
    separable: object  # bool | None

    def expected_report(self) -> dict:
        return {
            "orbit_dim": self.orbit_dim,
            "coadjoint_dim": self.coadjoint_dim,
            "degeneracy": self.degeneracy,
            "separable": self.separable,
            "profiles": self.profiles,
        }


def _collapse(low, high):
    return low if low == high else (low, high)


def _squares(profile) -> int:
    return sum(m * m for m in profile[1])


def distinguishable_case(label, state, profiles) -> Case:
    """Expected integers for distinguishable particles from the profiles.

    The stabilizer of the moment-map image holds one U(m) per cluster,
    kernel included, less one determinant condition per party.  For two
    parties the stabilizer of [C] holds one U(m_n) per Schmidt block and
    both kernels, less the two determinant conditions, which gives the
    orbit dimension; M >= 3 parties get the multiplicity bounds on D.
    """
    dims = state.dims
    parties = len(dims)
    squares = [_squares(p) for p in profiles]
    kernels = [p[0] for p in profiles]
    coadjoint = (sum(n * n - 1 for n in dims)
                 - (sum(s + k * k for s, k in zip(squares, kernels)) - parties))
    separable = all(s == 1 for s in squares)
    if parties == 2:
        orbit = sum(n * n for n in dims) - squares[0] - sum(k * k for k in kernels) - 1
        return Case(label, state, profiles, orbit, coadjoint, squares[0] - 1, separable)
    low, high = max(squares) - 1, sum(squares) - parties
    return Case(label, state, profiles, _collapse(coadjoint + low, coadjoint + high),
                coadjoint, _collapse(low, high), separable)


def indistinguishable_case(label, state, profile, stabilizer_dim) -> Case:
    """Expected integers for bosons or fermions acted on by one SU(N)."""
    n, parties = state.dims[0], state.parties
    group = n * n - 1
    coadjoint = group - (profile[0] ** 2 + _squares(profile) - 1)
    orbit = group - stabilizer_dim
    degeneracy = orbit - coadjoint
    rank = sum(profile[1])
    if state.symmetry == FERMIONIC:
        separable = rank == parties
    elif degeneracy == 0:
        separable = True
    else:
        separable = rank <= 2 if parties == 2 else None
    return Case(label, state, (profile,) * parties, orbit, coadjoint,
                degeneracy, separable)


def _rotate(rng, state):
    return apply_local(state, random_local_unitaries(state.dims, state.symmetry, rng))


def _spaced_values(rng, count: int) -> np.ndarray:
    """Distinct descending values in [0.3, 1], at least half a step apart."""
    if count == 1:
        return np.ones(1)
    base = np.linspace(1.0, 0.3, count)
    step = 0.7 / (count - 1)
    return base + rng.uniform(-0.25, 0.25, count) * step


def schmidt_case(rng, dims, multiplicities) -> Case:
    """Bipartite state with prescribed Schmidt block multiplicities.

    Each party's kernel is its dimension minus the Schmidt rank.
    """
    rank = sum(multiplicities)
    values = np.repeat(_spaced_values(rng, len(multiplicities)), multiplicities)
    coeffs = np.zeros(dims, dtype=complex)
    coeffs[np.arange(rank), np.arange(rank)] = values
    profiles = tuple((n - rank, tuple(multiplicities)) for n in dims)
    label = f"{dims} schmidt m={tuple(multiplicities)}"
    return distinguishable_case(label, _rotate(rng, build_state(coeffs)), profiles)


def ghz_case(rng, dims, levels: int) -> Case:
    """sum_{i < levels} |i ... i>, every reduced matrix a scaled projector."""
    coeffs = np.zeros(dims, dtype=complex)
    for i in range(levels):
        coeffs[(i,) * len(dims)] = 1.0
    profiles = tuple((n - levels, (levels,)) for n in dims)
    label = f"{dims} ghz{levels}"
    return distinguishable_case(label, _rotate(rng, build_state(coeffs)), profiles)


def w_case(rng, qubits: int) -> Case:
    """W state on qubits >= 3: each reduced spectrum ((n-1)/n, 1/n)."""
    dims = (2,) * qubits
    coeffs = np.zeros(dims, dtype=complex)
    for k in range(qubits):
        index = [0] * qubits
        index[k] = 1
        coeffs[tuple(index)] = 1.0
    profiles = ((0, (1, 1)),) * qubits
    return distinguishable_case(f"{dims} w", _rotate(rng, build_state(coeffs)), profiles)


def bell_product_case(rng) -> Case:
    """Bell pair on qubits 1-2 tensored with a product state on qubits 3-4."""
    coeffs = np.zeros((2, 2, 2, 2), dtype=complex)
    coeffs[0, 0, 0, 0] = coeffs[1, 1, 0, 0] = 1.0
    profiles = ((0, (2,)), (0, (2,)), (1, (1,)), (1, (1,)))
    return distinguishable_case("(2, 2, 2, 2) bell x product",
                                _rotate(rng, build_state(coeffs)), profiles)


def power_case(rng, dims) -> Case:
    """Bosonic v^(x)M: the orbit is CP^(N-1) and D = 0."""
    n = dims[0]
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    coeffs = np.ones((), dtype=complex)
    for _ in dims:
        coeffs = np.tensordot(coeffs, v, axes=0)
    state = _rotate(rng, build_state(coeffs, BOSONIC))
    # stabilizer of [v]: U(N-1) x U(1) inside U(N), less det -> (N-1)^2
    return indistinguishable_case(f"{dims} bosonic power", state,
                                  (n - 1, (1,)), (n - 1) ** 2)


def slater_case(rng, dims) -> Case:
    """Fermionic e_1 ^ ... ^ e_M: the orbit is a Grassmannian, D = 0."""
    n, m = dims[0], len(dims)
    raw = np.zeros(dims, dtype=complex)
    raw[tuple(range(m))] = 1.0
    state = _rotate(rng, symmetrize(raw, FERMIONIC))
    # stabilizer S(U(M) x U(N-M)): M^2 + (N-M)^2 - 1
    return indistinguishable_case(f"{dims} fermionic slater", state,
                                  (n - m, (m,)), m * m + (n - m) ** 2 - 1)


def generic_case(rng, dims, symmetry=DISTINGUISHABLE) -> Case:
    """A Gaussian sample, redrawn until its spectra clear the margin.

    Bipartite distinguishable states take the all-ones Schmidt profile
    instead: the smallest singular value of a square Gaussian matrix
    falls too close to zero too often at 32 x 32 and above.
    """
    if symmetry == DISTINGUISHABLE and len(dims) == 2:
        return schmidt_case(rng, dims, (1,) * min(dims))
    for _ in range(100):
        case = _generic_expectation(_rotate(rng, random_state(dims, symmetry, rng)))
        if check_margins(case, strict=False):
            return case
    raise RuntimeError(f"no generic sample of {dims} cleared the margin")


def _generic_expectation(state) -> Case:
    dims, symmetry = state.dims, state.symmetry
    if symmetry == DISTINGUISHABLE:
        ranks = [min(n, state.total_dim // n) for n in dims]
        profiles = tuple((n - r, (1,) * r) for n, r in zip(dims, ranks))
        return distinguishable_case(f"{dims} generic", state, profiles)
    n = dims[0]
    if symmetry == FERMIONIC and len(dims) == 2:
        profile = (n % 2, (2,) * (n // 2))  # antisymmetric: paired singular values
    else:
        profile = (0, (1,) * n)
    return indistinguishable_case(f"{dims} {symmetry} generic", state, profile,
                                  GENERIC_STABILIZER_DIM[(dims, symmetry)])


def reduced_spectra(coeffs: np.ndarray):
    """Descending spectrum of each one-party reduced matrix, plain numpy."""
    spectra = []
    for k in range(coeffs.ndim):
        a = np.moveaxis(coeffs, k, 0).reshape(coeffs.shape[k], -1)
        spectra.append(np.sort(np.linalg.eigvalsh(a.conj() @ a.T))[::-1])
    return spectra


def check_margins(case: Case, strict: bool = True) -> bool:
    """True when every reduced spectrum matches the case's profile with
    every gap and positive value ``MARGIN`` times above the threshold.

    Raises ValueError instead of returning False when ``strict``: a
    constructed stratum that misses its own profile is a generator bug.
    """
    for k, spectrum in enumerate(reduced_spectra(case.state.coeffs)):
        kernel, mults = case.profiles[k]
        cut = MARGIN * DEFAULT_CLUSTER_TOL * spectrum[0]
        blocks, start = [], 0
        for m in mults + ((kernel,) if kernel else ()):
            blocks.append(spectrum[start:start + m])
            start += m
        ok = (start == spectrum.size
              and all(np.ptp(b) <= SAME_VALUE for b in blocks)
              and all(a.min() - b.max() >= cut for a, b in zip(blocks, blocks[1:]))
              and (kernel == 0 or blocks[-1].max() <= SAME_VALUE)
              and blocks[len(mults) - 1].min() >= cut)
        if not ok:
            if strict:
                raise ValueError(f"{case.label}: party {k} spectrum misses its profile")
            return False
    return True



#: the states ``verify`` samples clear the clustering threshold by this
#: factor, ten times outside the window in which the library refuses;
#: ``MARGIN`` would turn down five seeds in six of 1000 two-qutrit states
VERIFY_MARGIN = 1e2


def verify_seed(rng, count: int, dims) -> int:
    """A seed, drawn from ``rng``, for ``orbitent verify --count count
    --dims dims`` whose every sampled state clears ``VERIFY_MARGIN``.

    ``verify`` stops at the first state it refuses, and about one seed in
    fifty of 1000 two-qutrit states holds a Gaussian state whose smallest
    Schmidt weight lies inside the refusal window.  Such seeds are passed
    over, as generic samples that miss the margin are redrawn.
    """
    for _ in range(100):
        seed = int(rng.integers(2**31))
        sampler = np.random.default_rng(seed)
        coeffs = np.stack([random_state(dims, DISTINGUISHABLE, sampler).coeffs
                           for _ in range(count)])
        if all(_weights_clear(coeffs, k) for k in range(len(dims))):
            return seed
    raise RuntimeError(f"no verify seed of {count} states {dims} cleared the margin")


def _weights_clear(coeffs: np.ndarray, k: int) -> bool:
    """Every positive Schmidt weight of party ``k``, and every gap between
    them, is ``VERIFY_MARGIN`` times above the threshold, in each state of
    the stack ``coeffs``."""
    a = np.moveaxis(coeffs, k + 1, 1).reshape(coeffs.shape[0], coeffs.shape[k + 1], -1)
    weights = np.linalg.svd(a, compute_uv=False)[:, :min(a.shape[1:])] ** 2
    cut = VERIFY_MARGIN * DEFAULT_CLUSTER_TOL * weights[:, :1]
    return bool((weights >= cut).all() and (-np.diff(weights, axis=1) >= cut).all())

#: Schmidt profiles beyond the default maximally entangled one
SCHMIDT_PROFILES = {
    (3, 3): [(1,), (3,)],  # product, maximally entangled
    (4, 4): [(2, 2)],
    (11, 11): [(4, 3, 1)],  # kernel 3
    (16, 16): [(4, 4)],  # kernel 8
    (3, 5): [(2,)],
    (4, 7): [(2, 1)],
}


def families(dims, symmetry=DISTINGUISHABLE):
    """Builders of the stratified states used for one shape, in turn."""
    if symmetry == BOSONIC:
        return [lambda rng: power_case(rng, dims)]
    if symmetry == FERMIONIC:
        return [lambda rng: slater_case(rng, dims)]
    if len(dims) == 2:
        n = min(dims)
        return [lambda rng, m=m: schmidt_case(rng, dims, m)
                for m in SCHMIDT_PROFILES.get(tuple(dims), [(n,)])]
    if tuple(dims) == (2, 2, 2, 2):
        return [bell_product_case]
    if set(dims) == {2}:
        return [lambda rng: ghz_case(rng, dims, 2),
                lambda rng: w_case(rng, len(dims))]
    levels = min(dims)
    return [lambda rng: ghz_case(rng, dims, levels),
            lambda rng: ghz_case(rng, dims, 2)]


def build_pool(rng, shapes, per_half: int):
    """``per_half`` generic and ``per_half`` stratified cases per shape.

    ``shapes`` lists (dims, symmetry) pairs.  Stratified cases cycle through
    the shape's families.  Every case passes :func:`check_margins`.
    """
    pool = []
    for dims, symmetry in shapes:
        builders = itertools.cycle(families(dims, symmetry))
        for _ in range(per_half):
            pool.append(generic_case(rng, dims, symmetry))
            case = next(builders)(rng)
            check_margins(case)
            pool.append(case)
    return pool
