"""Command line interface: analyze, schmidt, canonical, ks-check, verify.

Exit codes: 0 success, 2 when a clustering or rank decision is too close
to its tolerance (AmbiguousClustering / RankUnstable), 1 for every other
error.  Errors are emitted as one machine-readable JSON object on stderr.
Identical input, configuration and seed produce byte-identical JSON output.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import AmbiguousClustering, Inconsistency, OrbitentError, RankUnstable
from .io import complex_array_to_json, load_state, state_to_document
from .lie import kostant_sternberg_check, weight_table
from .measure import DEFAULT_CLUSTER_TOL, DegeneracyReport
from .moment import canonical_form, schmidt
from .oracle import DEFAULT_RANK_TOL, verify_against_formula
from .report import (
    BOSON_CONVENTIONS,
    BOSON_SYMMETRIC_SIMPLE,
    ORACLE_MODES,
    ORACLE_OFF,
    ROUTE_BIPARTITE,
    ROUTE_BOUNDS,
    ROUTE_ORACLE,
    ROUTE_ORACLE_ONLY,
    ROUTE_SINGLE,
    analyze_state,
)
from .sampling import random_state
from .states import DISTINGUISHABLE, SYMMETRY_CLASSES

COADJOINT_NOTE = "dim(mu(O)) = sum_k (N_k^2 - 1) - (sum_{k,n} m_kn^2 - M)"
BOUNDS_NOTE = "max_k S_k - 1 <= D <= sum_k S_k - M,  S_k = sum m_kn^2"
SINGLE_NOTE = "one party: dim(O) = dim(mu(O)) = 2(N - 1), D = 0"
ORACLE_NOTE = "numerical oracle"
#: (orbit, coadjoint, degeneracy) line notes for each route of analyze_state
ROUTE_NOTES = {
    ROUTE_BIPARTITE: ("dim(O) = 2N^2 - 2 m0^2 - sum m_n^2 - 1",
                      COADJOINT_NOTE, "D = sum_{n>=1} m_n^2 - 1"),
    ROUTE_SINGLE: (SINGLE_NOTE, COADJOINT_NOTE, SINGLE_NOTE),
    ROUTE_BOUNDS: (BOUNDS_NOTE, COADJOINT_NOTE, BOUNDS_NOTE),
    ROUTE_ORACLE: (ORACLE_NOTE, COADJOINT_NOTE, ORACLE_NOTE),
    ROUTE_ORACLE_ONLY: (ORACLE_NOTE,) * 3,
}

SEPARABLE_NOTES = {
    "distinguishable": "separable iff every party has sum_{n>=1} m_kn^2 = 1",
    "fermionic": "single Slater iff reduced rank = particle count",
    "product-of-same-vector": "v^(x)M iff reduced rank = 1",
    "symmetric-simple-tensor": "D = 0 implies yes; rank <= 2 decides 2 bosons",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitent",
        description="Classify pure states by the symplectic geometry of "
                    "their local-unitary orbits.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, cluster_tol=False, rank_tol=False):
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="report format (default: text)")
        if cluster_tol:  # the library call that takes it checks its value
            p.add_argument("--cluster-tol", type=float, default=DEFAULT_CLUSTER_TOL,
                           help="relative eigenvalue clustering tolerance")
        if rank_tol:
            p.add_argument("--rank-tol", type=float, default=DEFAULT_RANK_TOL,
                           help="relative numerical rank tolerance")

    p = sub.add_parser("analyze",
                       help="degeneracy report for a state file")
    p.add_argument("--input", required=True, help="JSON state document")
    p.add_argument("--oracle", choices=ORACLE_MODES, default=ORACLE_OFF,
                   help="numerical oracle mode (default: off)")
    p.add_argument("--boson-convention", choices=BOSON_CONVENTIONS,
                   default=BOSON_SYMMETRIC_SIMPLE,
                   help="which bosonic states count as nonentangled")
    add_common(p, cluster_tol=True, rank_tol=True)

    p = sub.add_parser("schmidt", help="Schmidt data of a bipartite state")
    p.add_argument("--input", required=True)
    add_common(p, cluster_tol=True)

    p = sub.add_parser("canonical",
                       help="local-unitary canonical form of a state")
    p.add_argument("--input", required=True)
    add_common(p, cluster_tol=True)

    p = sub.add_parser("ks-check",
                       help="symplecticity verdict for every weight vector")
    p.add_argument("--dims", required=True,
                   help="comma-separated local dimensions, e.g. 2,2")
    p.add_argument("--symmetry", choices=SYMMETRY_CLASSES,
                   default=DISTINGUISHABLE)
    add_common(p)

    p = sub.add_parser("verify",
                       help="compare closed forms with the oracle on random states")
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--dims", required=True)
    p.add_argument("--symmetry", choices=SYMMETRY_CLASSES,
                   default=DISTINGUISHABLE)
    p.add_argument("--seed", type=int, default=0)
    add_common(p, cluster_tol=True, rank_tol=True)
    return parser


def _parse_dims(text, symmetry) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse dims {text!r}") from None
    if symmetry != DISTINGUISHABLE and len(dims) == 1:
        dims = dims * 2  # a single dim means two indistinguishable particles
    return dims


def _print_payload(payload: dict, text: str, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _fmt_dim(value) -> str:
    if isinstance(value, dict):
        return f"[{value['low']}, {value['high']}]"
    if value is None:
        return "n/a"
    return str(value)


def _render_report(report: DegeneracyReport) -> str:
    doc = report.to_json_dict()
    lines = [
        f"state: dims {doc['dims']}, symmetry {doc['symmetry']}",
        f"reduced-spectrum clusters (relative tol "
        f"{report.clusterings[0].tolerance:g}):",
    ]
    for k, c in enumerate(report.clusterings):
        blocks = ", ".join(f"{v:.6g} x{m}" for v, m in c.blocks)
        lines.append(f"  party {k + 1}: kernel {c.kernel_dim} | {blocks}")
    orbit_note, coadjoint_note, deg_note = ROUTE_NOTES[report.route]
    lines.append(f"orbit dim      {_fmt_dim(doc['orbit_dim']):>8}   ({orbit_note})")
    lines.append(f"coadjoint dim  {doc['coadjoint_dim']:>8}   ({coadjoint_note})")
    lines.append(f"degeneracy D   {_fmt_dim(doc['degeneracy']):>8}   ({deg_note})")
    sep = {True: "yes", False: "no", None: "undetermined"}[report.separable]
    sep_note = SEPARABLE_NOTES[report.boson_convention or report.symmetry]
    lines.append(f"separable      {sep:>8}   ({sep_note})")
    if report.boson_convention:
        lines.append(f"boson convention: {report.boson_convention}")
    if report.oracle:
        o = report.oracle
        extra = ""
        if "consistent" in o:
            extra = f", consistent with closed forms: {o['consistent']}"
        lines.append(
            f"oracle         r={o['orbit_dim']} s={o['symplectic_rank']} "
            f"D={o['degeneracy']}{extra}")
    return "\n".join(lines)


def _cmd_analyze(args) -> int:
    state = load_state(args.input)
    report = analyze_state(state, args.cluster_tol, args.rank_tol, args.oracle,
                           args.boson_convention)
    _print_payload(report.to_json_dict(), _render_report(report), args.format)
    return 0


def _cmd_schmidt(args) -> int:
    state = load_state(args.input)
    data = schmidt(state, args.cluster_tol)
    payload = {
        "singular_values": [float(v) for v in data.singular_values],
        "block_values": list(data.block_values),
        "multiplicities": list(data.multiplicities),
        "kernel_dim": data.kernel_dim,
        "left_unitary": complex_array_to_json(data.left),
        "right_unitary": complex_array_to_json(data.right),
        "canonical_state": state_to_document(data.diagonal_state),
        "convention": "apply_local(state, (left, right.T)) equals the "
                      "canonical diagonal state up to a global phase",
    }
    blocks = ", ".join(
        f"{v:.6g} x{m}" for v, m in zip(data.block_values, data.multiplicities))
    text = "\n".join([
        f"singular values: {np.array2string(data.singular_values, precision=6)}",
        f"blocks: {blocks}; kernel dim {data.kernel_dim}",
        "left/right special unitaries map the state onto "
        "sum_i p_i e_i (x) e_i via apply_local((left, right.T))",
    ])
    _print_payload(payload, text, args.format)
    return 0


def _cmd_canonical(args) -> int:
    state = load_state(args.input)
    canon, tuple_ = canonical_form(state, args.cluster_tol)
    payload = {
        "state": state_to_document(canon),
        "local_unitaries": [complex_array_to_json(b) for b in tuple_.blocks],
    }
    text = "\n".join([
        "canonical state (all reduced matrices diagonal, descending):",
        np.array2string(canon.coeffs, precision=6, suppress_small=True),
    ])
    _print_payload(payload, text, args.format)
    return 0


def _cmd_ks_check(args) -> int:
    dims = _parse_dims(args.dims, args.symmetry)
    rows = []
    for wv in weight_table(dims, args.symmetry):
        verdict = kostant_sternberg_check(wv)
        rows.append({
            "label": wv.label,
            "weight": list(wv.weight),
            "verdict": verdict.verdict,
            "witness": verdict.witness.label if verdict.witness else None,
        })
    payload = {"dims": list(dims), "symmetry": args.symmetry, "rows": rows}
    width = max(len(r["label"]) for r in rows) + 2
    lines = [f"weight vectors of dims {list(dims)} ({args.symmetry}):"]
    for r in rows:
        witness = f"  witness {r['witness']}" if r["witness"] else ""
        lines.append(
            f"  {r['label']:<{width}} weight {tuple(r['weight'])!s:<12} "
            f"{r['verdict']}{witness}")
    _print_payload(payload, "\n".join(lines), args.format)
    return 0


def _cmd_verify(args) -> int:
    dims = _parse_dims(args.dims, args.symmetry)
    if args.count < 1:
        raise ValueError("--count must be positive")
    rng = np.random.default_rng(args.seed)
    mode = None
    for _ in range(args.count):
        state = random_state(dims, args.symmetry, rng)
        record = verify_against_formula(state, args.cluster_tol, args.rank_tol)
        mode = record.mode
    payload = {
        "count": args.count,
        "passed": args.count,
        "failed": 0,
        "dims": list(dims),
        "symmetry": args.symmetry,
        "seed": args.seed,
        "mode": mode,
    }
    text = (f"{args.count}/{args.count} random states consistent "
            f"({mode} comparison) for dims {list(dims)}, seed {args.seed}")
    _print_payload(payload, text, args.format)
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "schmidt": _cmd_schmidt,
    "canonical": _cmd_canonical,
    "ks-check": _cmd_ks_check,
    "verify": _cmd_verify,
}


def _emit_error(exc: BaseException) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, Inconsistency) and exc.record is not None:
        payload["record"] = exc.record.to_json_dict()
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # keep exit code 2 reserved for tolerance issues
        return 0 if exc.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args)
    except (AmbiguousClustering, RankUnstable) as exc:
        _emit_error(exc)
        return 2
    except OrbitentError as exc:
        _emit_error(exc)
        return 1
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        _emit_error(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
