"""JSON state documents: the on-disk contract for every CLI input.

Document shape::

    {
      "symmetry": "distinguishable" | "bosonic" | "fermionic",
      "dims": [N_1, ..., N_M],
      "coeffs": nested arrays, one nesting level per party, with complex
                scalars encoded as [re, im] (bare reals also accepted)
    }

A flat row-major list may be supplied under "coeffs_flat" instead of the
nested "coeffs".  Writers always emit the nested form with [re, im] leaves.
"""

from __future__ import annotations

import json
import math
from numbers import Real

import numpy as np

from .errors import DimensionMismatch
from .states import StateTensor, build_state, is_integral


#: numpy's limit on the number of array axes, one per party
MAX_PARTIES = 64


def _is_real(x) -> bool:
    """A JSON number; true and false are not numbers here."""
    return isinstance(x, Real) and not isinstance(x, bool)


def _parse_scalar(leaf) -> complex:
    if _is_real(leaf):
        return complex(leaf)
    if (isinstance(leaf, (list, tuple)) and len(leaf) == 2
            and all(_is_real(x) for x in leaf)):
        return complex(leaf[0], leaf[1])
    raise ValueError(f"expected [re, im] or a real number, got {leaf!r}")


def _parse_dims(raw) -> tuple[int, ...]:
    """The "dims" entry: a list of integers (an integral float such as 2.0
    counts, a string, a boolean or 2.9 does not), at most MAX_PARTIES of
    them, so a deep document is refused before its nesting is parsed."""
    if not isinstance(raw, (list, tuple)):
        raise ValueError(f"dims must be a list of integers, got {raw!r}")
    if len(raw) > MAX_PARTIES:
        raise ValueError(
            f"dims lists {len(raw)} parties; at most {MAX_PARTIES} fit in an array")
    for n in raw:
        if not is_integral(n):
            raise ValueError(f"dims must be integers, got {n!r}")
    return tuple(int(n) for n in raw)


def _parse_nested(node, dims):
    if not dims:
        return _parse_scalar(node)
    if not isinstance(node, (list, tuple)) or len(node) != dims[0]:
        raise DimensionMismatch(
            f"expected a list of length {dims[0]} at this nesting level")
    return [_parse_nested(child, dims[1:]) for child in node]


def state_from_document(doc: dict) -> StateTensor:
    """Build a validated, normalized state from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ValueError("state document must be a JSON object")
    try:
        symmetry = doc["symmetry"]
        dims = _parse_dims(doc["dims"])
    except KeyError as missing:
        raise ValueError(f"state document lacks key {missing}") from None
    if "coeffs" in doc:
        coeffs = np.array(_parse_nested(doc["coeffs"], dims), dtype=complex)
    elif "coeffs_flat" in doc:
        flat = [_parse_scalar(x) for x in doc["coeffs_flat"]]
        if len(flat) != math.prod(dims):
            raise DimensionMismatch(
                f"coeffs_flat has {len(flat)} entries for dims {list(dims)}")
        coeffs = np.array(flat, dtype=complex).reshape(dims)
    else:
        raise ValueError("state document needs 'coeffs' or 'coeffs_flat'")
    return build_state(coeffs, symmetry)


def complex_array_to_json(array: np.ndarray) -> list:
    """Nested lists with [re, im] leaves."""
    arr = np.asarray(array, dtype=complex)
    return np.stack((arr.real, arr.imag), axis=-1).tolist()


def state_to_document(state: StateTensor) -> dict:
    return {
        "symmetry": state.symmetry,
        "dims": list(state.dims),
        "coeffs": complex_array_to_json(state.coeffs),
    }


def load_state(path) -> StateTensor:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return state_from_document(json.load(fh))
        except RecursionError:
            raise ValueError("state document nests too deeply") from None


def save_state(state: StateTensor, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_document(state), fh, indent=2, sort_keys=True)
        fh.write("\n")
