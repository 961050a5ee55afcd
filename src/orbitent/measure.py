"""Multiplicity clustering and the closed-form orbit dimension counts.

Every count here is a function of spectral multiplicity data alone.  With
per-party blocks of multiplicities m_{k,n} (n >= 1, distinct positive
eigenvalues) and kernel multiplicity m_{k,0}:

  orbit dim (bipartite, equal N)   2N^2 - 2 m_0^2 - sum_n m_n^2 - 1
  coadjoint image dim (any M)      sum_k (N_k^2 - 1) - (sum_{k,n>=0} m_{k,n}^2 - M)
  degeneracy (bipartite, equal N)  D = sum_{n>=1} m_n^2 - 1
  degeneracy bounds (M >= 3)       max_k S_k - 1 <= D <= sum_k S_k - M,
                                   S_k = sum_{n>=1} m_{k,n}^2
  separable                        S_k = 1 for every party

All formulas are integer identities; the only floating-point step is the
gap clustering that extracts the multiplicities.  It, and every rank
decision of ``oracle``, thresholds through ``decide``, which refuses to
guess near the cut; ``check_tolerance`` bounds every tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AmbiguousClustering, DimensionMismatch
from .exact import DEFAULT_CLUSTER_TOL

#: values within this factor of a decision cut are refused
AMBIGUITY_FACTOR = 10.0
#: the end of a clustering refusal: ``--cluster-tol`` moves the cut
CLUSTER_HINT = "adjust the tolerance"


def check_tolerance(tol: float, what: str) -> None:
    """Raise ValueError unless the relative tolerance lies in (0, 1e-2)."""
    if not 0.0 < tol < 1e-2:
        raise ValueError(f"{what} tolerance {tol!r} must lie in (0, 1e-2)")


def decide(values: np.ndarray, cut, error: type, what: str, hint: str) -> np.ndarray:
    """The mask ``values >= cut``; raises ``error`` when a value lies strictly
    within a factor AMBIGUITY_FACTOR of the cut, where a small change of
    tolerance would flip it and the integers counted from the mask.

    ``cut`` is a number or an array that broadcasts against ``values``,
    such as one cut per row of a stack; the message names the smallest
    offending value and its own cut, and ends with the caller's ``hint``:
    what, if anything, the user can do about the refusal."""
    near = (values > cut / AMBIGUITY_FACTOR) & (values < cut * AMBIGUITY_FACTOR)
    if near.any():
        offenders = values[near]
        at = int(offenders.argmin())
        offender = float(offenders[at])
        threshold = float(np.broadcast_to(cut, values.shape)[near][at])
        raise error(f"{what} {offender:.3e} lies within a factor {AMBIGUITY_FACTOR:g} "
                    f"of the threshold {threshold:.3e}; {hint}")
    return values >= cut


@dataclass(frozen=True)
class SpectrumClustering:
    """Sorted spectrum partitioned into kernel and positive multiplicity blocks."""

    kernel_dim: int
    blocks: tuple[tuple[float, int], ...]  # (value, multiplicity), descending
    tolerance: float
    # several count formulas read these for every report; a clustering is
    # frozen, so they are computed once, with it
    multiplicities: tuple[int, ...] = field(init=False, repr=False, compare=False)
    #: number of nonzero eigenvalues, counted with multiplicity
    positive_rank: int = field(init=False, repr=False, compare=False)
    #: sum_{n>=1} m_n^2 over the positive blocks
    square_sum: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kernel_dim < 0:
            raise ValueError("kernel multiplicity cannot be negative")
        # one pass validates the blocks and sums their multiplicities; a
        # bad multiplicity anywhere is reported ahead of a bad order
        multiplicities = []
        rank = square_sum = 0
        ordered = True
        previous = None
        for value, m in self.blocks:
            if m < 1:
                raise ValueError("block multiplicities must be >= 1")
            if previous is not None and previous <= value:
                ordered = False
            previous = value
            multiplicities.append(m)
            rank += m
            square_sum += m * m
        if not ordered:
            raise ValueError("block values must be strictly descending")
        vars(self).update(multiplicities=tuple(multiplicities), positive_rank=rank,
                          square_sum=square_sum)

    @classmethod
    def _of_walk(cls, kernel_dim: int, blocks: tuple, tolerance: float,
                 multiplicities: tuple[int, ...], positive_rank: int) -> "SpectrumClustering":
        """The clustering that ``_walk`` walked a spectrum to, with
        the multiplicities and their sum counted on the way.  The walk
        leaves a nonnegative kernel and descending blocks of multiplicity
        at least one, so ``__post_init__`` would only check them again."""
        c = object.__new__(cls)
        vars(c).update(kernel_dim=kernel_dim, blocks=blocks, tolerance=tolerance,
                       multiplicities=multiplicities, positive_rank=positive_rank,
                       square_sum=sum([m * m for m in multiplicities]))
        return c

    @property
    def size(self) -> int:
        return self.kernel_dim + self.positive_rank

    @property
    def square_sum_with_kernel(self) -> int:
        return self.kernel_dim**2 + self.square_sum

    def profile(self) -> tuple[int, tuple[int, ...]]:
        """(kernel multiplicity, positive multiplicities) - the integer data."""
        return self.kernel_dim, self.multiplicities

    def to_json_dict(self) -> dict:
        return {
            "kernel": self.kernel_dim,
            "blocks": [{"value": v, "multiplicity": m} for v, m in self.blocks],
            "tolerance": self.tolerance,
        }


def cluster_spectrum(values, tol: float = DEFAULT_CLUSTER_TOL):
    """Greedy gap clustering of a probability spectrum.

    Adjacent sorted values merge into one block iff their gap is below the
    effective tolerance tol * max(values); values below it go to the kernel.
    Raises AmbiguousClustering (see ``decide``) whenever a gap or a value
    lies within a factor of ten of the threshold, since the resulting
    integer counts would flip under small tolerance changes.

    A 1-d spectrum gives one SpectrumClustering.  A 2-d array holds one
    spectrum per row and gives a tuple with one clustering per row: one
    sort and one sum for all rows, then ``_walk`` over the rows in order, so
    the first failing row raises its own error.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[-1] == 0:
        raise ValueError("expected a nonempty spectrum, or a 2-d array of them")
    check_tolerance(tol, "clustering")
    rows = arr.reshape(-1, arr.shape[-1])
    out = _walk(zip(np.sort(rows).tolist(), rows.sum(axis=1).tolist()), float(tol))
    return tuple(out) if arr.ndim == 2 else out[0]


def _walk(rows, tol: float) -> list[SpectrumClustering]:
    """The clusterings of spectra given as ``(ascending values, sum)``
    pairs, the values a list of floats that is reversed in place.  Each
    spectrum in turn gets the range and sum checks, then one walk with the
    arithmetic and comparisons of ``decide`` that finds the blocks and the
    kernel and tests each gap and value for the refusal window, so the
    first failing spectrum raises its own error."""
    out = []
    for values, total in rows:
        # NaN sorts last, and a comparison with it is false, so it fails here
        if not (values[0] >= -1e-10 and values[-1] <= 1.0 + 1e-8):
            raise ValueError("eigenvalues must lie in [0, 1]")
        if abs(total - 1.0) > 1e-8:
            raise ValueError("spectrum must sum to 1")
        values.reverse()
        # The largest value is never near its cut (tol < 1e-2); each later
        # value is tested with the gap above it, up to the first kernel
        # value.  Past it, every value, clamped at 0 as ``decide`` sees it,
        # and every gap is at most cut/10, so far from the cut.  The clamp
        # moves nothing tested: only a kernel value can be negative, and the
        # gap above the first one comes down from a value at least 10 cut.
        previous = values[0]
        eff = tol * previous
        low, high = eff / AMBIGUITY_FACTOR, eff * AMBIGUITY_FACTOR
        blocks, sizes, start, count = [], [], 0, len(values)
        for stop in range(1, count):
            value = values[stop]
            gap = previous - value
            if low < gap < high or low < value < high:
                _refuse(values, tol)
            if gap >= eff or value < eff:  # a block ends at stop
                blocks.append(_block(values, start, stop))
                sizes.append(stop - start)
                start = stop
                if value < eff:
                    count = stop
                    break
            previous = value
        else:
            blocks.append(_block(values, start, count))
            sizes.append(count - start)
        out.append(SpectrumClustering._of_walk(len(values) - count, tuple(blocks), tol,
                                               tuple(sizes), count))
    return out


def _block(values: list, start: int, stop: int) -> tuple[float, int]:
    """(value, multiplicity) of a block of a descending spectrum: its mean
    summed by numpy in descending order, as ``np.ndarray.mean`` of that
    slice of the row."""
    if stop - start == 1:
        return values[start], 1
    return float(np.array(values[start:stop]).mean()), stop - start


def _refuse(values: list, tol: float):
    """Raise the refusal of a descending spectrum with a gap or a value near
    its cut: ``decide`` per kind over the values clamped at 0, gaps first,
    so a gap refusal wins over a value refusal."""
    svals = np.maximum(np.array(values), 0.0)
    eff = tol * svals[0]
    decide(svals[:-1] - svals[1:], eff, AmbiguousClustering, "spectral gap", CLUSTER_HINT)
    decide(svals, eff, AmbiguousClustering, "eigenvalue", CLUSTER_HINT)
    raise AssertionError("a value near the cut escaped decide")


def orbit_dimension_bipartite(clustering: SpectrumClustering, dim: int) -> int:
    """dim of the SU(N) x SU(N) orbit in projective space, equal dims N."""
    if clustering.size != dim:
        raise DimensionMismatch(
            f"clustering covers {clustering.size} eigenvalues, expected {dim}")
    return (2 * dim * dim
            - 2 * clustering.kernel_dim**2
            - clustering.square_sum
            - 1)


def coadjoint_dimension(clusterings, dims) -> int:
    """dim of the coadjoint orbit of the moment-map image, any M >= 1.

    The stabilizer is block-diagonal per party with one unitary block per
    eigenvalue cluster (kernel included), minus one determinant condition
    per party.
    """
    clusterings = tuple(clusterings)
    dims = tuple(int(n) for n in dims)
    if len(clusterings) != len(dims):
        raise DimensionMismatch("one clustering per party is required")
    for c, n in zip(clusterings, dims):
        if c.size != n:
            raise DimensionMismatch(
                f"clustering covers {c.size} eigenvalues for a dim-{n} party")
    total = sum(n * n - 1 for n in dims)
    stabilizer = sum(c.square_sum_with_kernel for c in clusterings) - len(dims)
    return total - stabilizer


def degeneracy_bipartite(clustering: SpectrumClustering) -> int:
    """Exact degeneracy D = sum_{n>=1} m_n^2 - 1 for equal-dims bipartite states."""
    return clustering.square_sum - 1


def degeneracy_bounds(clusterings) -> tuple[int, int]:
    """[max_k S_k - 1, sum_k S_k - M] for M >= 3 parties."""
    clusterings = tuple(clusterings)
    if len(clusterings) < 3:
        raise DimensionMismatch("bounds apply to three or more parties")
    sums = [c.square_sum for c in clusterings]
    return max(sums) - 1, sum(sums) - len(clusterings)


def separability_test(clusterings) -> bool:
    """True iff every party's reduced matrix has one nondegenerate nonzero
    eigenvalue (rank one), i.e. the state is a product state."""
    return all(c.square_sum == 1 for c in clusterings)


@dataclass(frozen=True)
class DegeneracyReport:
    """Full dimension-count report for one state.

    ``orbit_dim`` and ``degeneracy`` are exact integers where a closed form
    or the oracle provides them, or a (low, high) interval for M >= 3
    bounds.  ``oracle`` is an optional attachment dict with the numerically
    computed ranks.  ``route`` names the formulas the integers came from
    (a key of ``report.ROUTES``), and ``consistency`` holds the
    formula-versus-oracle record (``report.ConsistencyRecord``) whenever the
    oracle ran; neither is part of the JSON document.
    """

    dims: tuple[int, ...]
    symmetry: str
    orbit_dim: object  # int | (int, int)
    coadjoint_dim: int
    degeneracy: object  # int | (int, int)
    separable: object  # bool | None
    clusterings: tuple[SpectrumClustering, ...]
    oracle: dict | None = None
    boson_convention: str | None = None
    route: str | None = None
    consistency: object = None  # report.ConsistencyRecord | None

    def to_json_dict(self) -> dict:
        doc = {
            "dims": list(self.dims),
            "symmetry": self.symmetry,
            "orbit_dim": _dim_json(self.orbit_dim),
            "coadjoint_dim": self.coadjoint_dim,
            "degeneracy": _dim_json(self.degeneracy),
            "separable": self.separable,
            "clusterings": [c.to_json_dict() for c in self.clusterings],
            "oracle": self.oracle,
        }
        if self.boson_convention is not None:
            doc["boson_convention"] = self.boson_convention
        return doc


def _dim_json(value):
    if isinstance(value, tuple):
        return {"low": value[0], "high": value[1]}
    return value
