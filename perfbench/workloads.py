"""The three workloads, their fixed operation lists and their output checks.

Every workload is a closed loop with one caller: the next operation is
issued only after the previous one returns, from one process with no extra
threads.  An operation is one library call, or one CLI invocation on
``cli``.  The list is generated from the workload seed and sized from the
run length by a nominal rate measured at the commit that defined the
benchmark (2-core x86 VM, BLAS on one thread), so a faster commit runs the
same operations, gets the same sample count and reports the same tail
percentile.

Outputs are checked after each call returns, outside its timed window,
against the integers fixed by how each state was built (see ``strata``).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable

import numpy as np

import orbitent
import orbitent.cli
import orbitent.moment
import orbitent.report
from orbitent.io import save_state
from orbitent.states import (
    BOSONIC,
    DISTINGUISHABLE,
    FERMIONIC,
    LocalUnitaryTuple,
    StateTensor,
    apply_local,
)

import strata

SRC = os.path.dirname(os.path.dirname(os.path.abspath(orbitent.__file__)))
#: a CLI child that runs longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 120
#: off-diagonal entries of a canonical reduced matrix, and 1 - |<a|b>| of
#: the projective comparison, must stay below this
CANONICAL_TOL = 1e-9

QUBITS = [(2,) * n for n in (3, 4, 6, 8, 10, 12)]


@dataclass
class Op:
    """One operation: ``call`` is timed, ``check`` runs after it.

    ``check`` returns None, or the name of what was wrong.  ``states`` is
    the number of states whose integers the operation verifies; it feeds
    ``verify_states_per_s``.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    states: int = 0


@dataclass
class Outcome:
    """Per-operation latencies and failures of one pass over the list."""

    latencies_ns: list = field(default_factory=list)
    verify_ns: int = 0
    verify_states: int = 0
    failures: Counter = field(default_factory=Counter)

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def merge(self, other: "Outcome") -> None:
        self.latencies_ns += other.latencies_ns
        self.verify_ns += other.verify_ns
        self.verify_states += other.verify_states
        self.failures += other.failures


def run_ops(ops, tracer=None, first: int = 0) -> Outcome:
    """Run the list once, timing each call and checking its output after.

    An exception or a failed check counts the operation as failed, keyed
    by the exception type or the check's verdict.  With a tracer, spans
    carry the operation's index, counted from ``first``.
    """
    latencies, failures = [], Counter()
    verify_ns = verify_states = 0
    for index, op in enumerate(ops, first):
        if tracer is not None:
            tracer.op_id = index
        start = perf_counter_ns()
        try:
            result = op.call()
        except Exception as exc:  # every failure is counted, none stops the run
            latencies.append(perf_counter_ns() - start)
            failures[type(exc).__name__] += 1
            continue
        elapsed = perf_counter_ns() - start
        latencies.append(elapsed)
        if op.states:
            verify_ns += elapsed
            verify_states += op.states
        try:
            problem = op.check(result)
        except (ValueError, KeyError, TypeError, IndexError):  # malformed output
            problem = "wrong_output"
        if problem:
            failures[problem] += 1
    return Outcome(latencies, verify_ns, verify_states, failures)


def passes_for(seconds: float, nominal_ops_per_s: float, ops_per_pass: int) -> int:
    return max(1, round(seconds * nominal_ops_per_s / ops_per_pass))


# --- checks -------------------------------------------------------------

def _report_problem(case, orbit, coadjoint, degeneracy, separable, profiles):
    got = {"orbit_dim": orbit, "coadjoint_dim": coadjoint,
           "degeneracy": degeneracy, "separable": separable,
           "profiles": tuple(profiles)}
    return None if got == case.expected_report() else "wrong_integer"


def check_report(case, report):
    if report is None:
        return "wrong_integer"
    return _report_problem(
        case, report.orbit_dim, report.coadjoint_dim, report.degeneracy,
        report.separable, (c.profile() for c in report.clusterings))


def check_report_document(case, doc):
    """The same comparison on the JSON an ``analyze`` invocation printed."""
    def dim(value):
        return (value["low"], value["high"]) if isinstance(value, dict) else value

    profiles = (
        (c["kernel"], tuple(b["multiplicity"] for b in c["blocks"]))
        for c in doc["clusterings"])
    return _report_problem(case, dim(doc["orbit_dim"]), doc["coadjoint_dim"],
                           dim(doc["degeneracy"]), doc["separable"], profiles)


def check_canonical(state: StateTensor, canon: np.ndarray, blocks) -> str | None:
    """Reduced matrices diagonal and descending, and the canonical tensor
    projectively equal to apply_local(state, g)."""
    for k in range(canon.ndim):
        a = np.moveaxis(canon, k, 0).reshape(canon.shape[k], -1)
        red = a.conj() @ a.T
        diag = np.real(np.diagonal(red))
        if (np.abs(red - np.diag(diag)).max() > CANONICAL_TOL
                or (np.diff(diag) > CANONICAL_TOL).any()):
            return "wrong_canonical"
    moved = apply_local(state, LocalUnitaryTuple(tuple(blocks))).coeffs
    if abs(abs(np.vdot(moved, canon)) - 1.0) > CANONICAL_TOL:
        return "wrong_canonical"
    return None


# --- closed-form --------------------------------------------------------

class ClosedForm:
    """In-process ``analyze_state(oracle="off")`` then ``canonical_form``
    on every state, over distinguishable particles, half generic and half
    stratified.

    Why: this is the per-state route a user runs.  Its time goes to the
    Python overhead in ``report``, ``moment`` and ``measure`` and to small
    ``eigvalsh`` calls; it never enters ``oracle`` or the ``lie``
    generators, so an oracle change should not move it.  ``canonical_form``
    uses ``moment`` differently: it builds eigenbases and writes a rotated
    state through ``states.apply_local`` where ``analyze_state`` only reads
    spectra.
    """

    name = "closed-form"
    shapes = [((n, n), DISTINGUISHABLE) for n in (2, 3, 4, 6, 8, 11, 16, 32, 64)] + [
        (dims, DISTINGUISHABLE)
        for dims in QUBITS + [(3, 3, 3), (5, 5, 5), (6, 6, 6)]]
    per_half = 2
    nominal_ops_per_s = 950.0

    def prepare(self, seed, seconds, workdir, in_process=True):
        rng = np.random.default_rng(seed)
        pool = strata.build_pool(rng, self.shapes, self.per_half)
        passes = passes_for(seconds, self.nominal_ops_per_s, 2 * len(pool))
        ops = []
        for _ in range(passes):
            for i in rng.permutation(len(pool)):
                ops.extend(self.ops_for(pool[i]))
        for op in ops[:2]:  # warm up each kind once
            op.call()
        return ops

    @staticmethod
    def ops_for(case):
        state = case.state
        return [
            Op("analyze",
               lambda: orbitent.report.analyze_state(state, oracle="off"),
               lambda report: check_report(case, report), states=1),
            Op("canonical",
               lambda: orbitent.moment.canonical_form(state),
               lambda out: check_canonical(state, out[0].coeffs, out[1].blocks)),
        ]


# --- oracle -------------------------------------------------------------

class Oracle:
    """In-process ``analyze_state(oracle="verify")`` inside today's oracle
    guards (dim H <= 4096, at most 256 generators), half generic and half
    stratified.

    Why: ``oracle`` plus ``lie.rep_action`` do most of each operation.
    (11,11) has the most generators (240) and (2,)^12 the largest dim H.
    Unequal dims take the oracle-only path.  Bosons and fermions use the
    same layer differently: every generator acts on all slots at once.
    An oracle built from marginals shows up here.
    """

    name = "oracle"
    shapes = (
        [((n, n), DISTINGUISHABLE) for n in (2, 3, 4, 6, 8, 11)]
        + [((3, 5), DISTINGUISHABLE), ((4, 7), DISTINGUISHABLE)]
        + [(dims, DISTINGUISHABLE)
           for dims in QUBITS + [(3, 3, 3), (4, 4, 4), (6, 6, 6)]]
        + [((3, 3), BOSONIC), ((4, 4, 4), BOSONIC), ((2,) * 6, BOSONIC)]
        + [((5, 5), FERMIONIC), ((6, 6, 6), FERMIONIC)])
    per_half = 2
    nominal_ops_per_s = 180.0

    def prepare(self, seed, seconds, workdir, in_process=True):
        rng = np.random.default_rng(seed)
        pool = strata.build_pool(rng, self.shapes, self.per_half)
        passes = passes_for(seconds, self.nominal_ops_per_s, len(pool))
        ops = [self.op_for(pool[i])
               for _ in range(passes) for i in rng.permutation(len(pool))]
        ops[0].call()  # warm up
        return ops

    @staticmethod
    def op_for(case):
        state = case.state
        return Op("analyze-verify",
                  lambda: orbitent.report.analyze_state(state, oracle="verify"),
                  lambda report: check_report(case, report), states=1)


# --- cli ----------------------------------------------------------------

def child_env() -> dict:
    """The caller's environment (BLAS already pinned) with this checkout's
    sources first on the path."""
    return dict(os.environ, PYTHONPATH=SRC)


def spawn(argv, env):
    """Run ``python -m orbitent argv``; returns (exit code, stdout)."""
    proc = subprocess.run([sys.executable, "-m", "orbitent", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    return proc.returncode, proc.stdout


def fresh_import(probes: int = 5) -> tuple[float, float]:
    """Medians over fresh ``python -c "import orbitent"`` children of
    (wall time from outside in ms, time of the import itself in s)."""
    code = ("import time; start = time.perf_counter(); import orbitent; "
            "print(time.perf_counter() - start)")
    env = child_env()
    walls, imports = [], []
    for _ in range(probes):
        start = perf_counter_ns()
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True,
                              timeout=CHILD_TIMEOUT_S)
        walls.append((perf_counter_ns() - start) / 1e6)
        imports.append(float(proc.stdout))
    return float(np.median(walls)), float(np.median(imports))


def call_in_process(argv):
    """``orbitent.cli.main(argv)`` with its output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = orbitent.cli.main(list(argv))
    return code, out.getvalue()


def _ks_expected(dims, symmetry):
    """(rows, symplectic rows) of ``ks-check``.

    A weight vector is symplectic unless two modes share one nonzero
    occupation, which only bosons allow (e1.e2.e3 among 3 bosons in 4
    modes): the root operator moving a particle between them acts nonzero.
    """
    n, m = dims[0], len(dims)
    if symmetry == BOSONIC:
        occupations = [Counter(idx).values()
                       for idx in itertools.combinations_with_replacement(range(n), m)]
        return len(occupations), sum(len(set(o)) == len(o) for o in occupations)
    rows = math.comb(n, m) if symmetry == FERMIONIC else math.prod(dims)
    return rows, rows


def _cli_check(kind, expected):
    def check(result):
        code, text = result
        if code != 0:
            return "nonzero_exit"
        doc = json.loads(text)
        if kind == "analyze":
            return check_report_document(expected, doc)
        if kind == "schmidt":
            kernel, mults = expected.profiles[0]
            ok = doc["kernel_dim"] == kernel and tuple(doc["multiplicities"]) == mults
            return None if ok else "wrong_integer"
        if kind == "canonical":
            canon = _complex(doc["state"]["coeffs"])
            blocks = [_complex(b) for b in doc["local_unitaries"]]
            return check_canonical(expected.state, canon, blocks)
        if kind == "ks-check":
            rows, symplectic = expected
            got = (len(doc["rows"]),
                   sum(r["verdict"] == "symplectic" for r in doc["rows"]))
            return None if got == (rows, symplectic) else "wrong_integer"
        return None if doc["count"] == expected else "wrong_integer"
    return check


def _complex(nested) -> np.ndarray:
    arr = np.asarray(nested, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


class Cli:
    """Sequential ``python -m orbitent`` subprocesses over a fixed list of
    invocations; setup writes the state files they read.

    Why: this is what a shell user pays.  Interpreter start plus import is
    most of a 260 ms call; the rest is ``io`` parsing, JSON rendering and
    ``verify`` throughput.  The exact-integer weight path in ``lie``
    (``weight_table``, ``kostant_sternberg_check``) is reached only here.
    """

    name = "cli"
    nominal_ops_per_s = 2.2

    def invocations(self, rng, workdir, tag):
        """(kind, argv, expected, states verified) of one pass.

        Each pass writes its own state files, named with ``tag``, and
        samples ``verify`` from its own seeds.
        """
        files = {
            "analyze-off": strata.schmidt_case(rng, (16, 16), (4, 4)),
            "analyze-verify": strata.ghz_case(rng, (3, 3, 3), 3),
            "schmidt": strata.schmidt_case(rng, (11, 11), (4, 3, 1)),
            "canonical": strata.w_case(rng, 6),
        }
        paths = {}
        for key, case in files.items():
            strata.check_margins(case)
            paths[key] = os.path.join(workdir, f"{key}-{tag}.json")
            save_state(case.state, paths[key])
        ks = [((3, 3, 3), DISTINGUISHABLE), ((4, 4, 4), BOSONIC),
              ((6, 6, 6), FERMIONIC), ((2,) * 8, DISTINGUISHABLE)]
        out = [
            ("analyze", ["analyze", "--input", paths["analyze-off"], "--oracle", "off"],
             files["analyze-off"], 0),
            ("analyze", ["analyze", "--input", paths["analyze-verify"], "--oracle", "verify"],
             files["analyze-verify"], 0),
            ("schmidt", ["schmidt", "--input", paths["schmidt"]], files["schmidt"], 0),
            ("canonical", ["canonical", "--input", paths["canonical"]], files["canonical"], 0),
        ]
        for dims, symmetry in ks:
            out.append(("ks-check", ["ks-check", "--dims", ",".join(map(str, dims)),
                                     "--symmetry", symmetry],
                        _ks_expected(dims, symmetry), 0))
        for count, dims in ((1000, (3, 3)), (200, (2, 2, 2))):
            out.append(("verify", ["verify", "--count", str(count),
                                   "--dims", ",".join(map(str, dims)), "--seed",
                                   str(strata.verify_seed(rng, count, dims))],
                        count, count))
        return [(kind, argv + ["--format", "json"], expected, states)
                for kind, argv, expected, states in out]

    def prepare(self, seed, seconds, workdir, in_process=False):
        rng = np.random.default_rng(seed)
        env = child_env()
        run = call_in_process if in_process else (lambda argv: spawn(argv, env))
        first = self.invocations(rng, workdir, 0)
        passes = passes_for(seconds, self.nominal_ops_per_s, len(first))
        ops = []
        for p in range(passes):
            listed = first if p == 0 else self.invocations(rng, workdir, p)
            for kind, argv, expected, states in listed:
                ops.append(Op(kind, lambda argv=argv: run(argv),
                              _cli_check(kind, expected), states))
        self.warm_up(ops, run)
        return ops

    @staticmethod
    def warm_up(ops, run):
        """Each kind once; ``verify`` on five states instead of its count."""
        seen = set()
        for op in ops:
            if op.kind in seen:
                continue
            seen.add(op.kind)
            if op.kind == "verify":
                argv = ["verify", "--count", "5", "--dims", "2,2", "--format", "json"]
                run(argv)
            else:
                op.call()


WORKLOADS = {w.name: w for w in (ClosedForm(), Oracle(), Cli())}
