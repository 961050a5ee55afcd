"""Per-layer spans recorded from outside the library.

While a :class:`Tracer` is installed, each public function listed in
``LAYERS`` is replaced, at every name under which an ``orbitent`` module
looks it up (``orbitent.report.reduced_matrices``,
``orbitent.oracle.rep_action``, ...), by a wrapper that records a span:
its name, start, end, parent span, operation id and the exception it
raised, if any.  Spans stay in memory until the run ends.  A span's self
time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import gzip
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter_ns

from orbitent.states import DISTINGUISHABLE

#: span name -> (module, attribute) of each function the span covers
LAYERS = {
    "report.analyze_state": [("orbitent.report", "analyze_state")],
    "moment.reduced_matrices": [("orbitent.moment", "reduced_matrices")],
    "moment.spectra": [("orbitent.moment", "ReducedMatrices.spectra")],
    "moment.schmidt": [("orbitent.moment", "schmidt")],
    "moment.canonical_form": [("orbitent.moment", "canonical_form")],
    "states.apply_local": [("orbitent.states", "apply_local")],
    "states.build_state": [("orbitent.states", "build_state")],
    "measure.cluster_spectrum": [("orbitent.measure", "cluster_spectrum")],
    "measure.counts": [("orbitent.measure", name) for name in (
        "orbit_dimension_bipartite", "coadjoint_dimension",
        "degeneracy_bipartite", "degeneracy_bounds", "separability_test")],
    "oracle.degeneracy_rank": [("orbitent.oracle", "degeneracy_rank")],
    "oracle.verify_against_formula": [("orbitent.oracle", "verify_against_formula")],
    "lie.su_basis": [("orbitent.lie", "su_basis")],
    "lie.rep_action": [("orbitent.lie", "rep_action")],
    "lie.weight_table": [("orbitent.lie", "weight_table")],
    "lie.kostant_sternberg_check": [("orbitent.lie", "kostant_sternberg_check")],
    "sampling.random_state": [("orbitent.sampling", "random_state")],
    "io.load_state": [("orbitent.io", "load_state")],
    "io.state_to_document": [("orbitent.io", "state_to_document")],
    "cli.main": [("orbitent.cli", "main")],
}
#: exceptions by which a layer refuses to decide an integer
REFUSALS = {"AmbiguousClustering", "RankUnstable", "EnumerationTooLarge"}
#: layers whose ``refused`` count is reported
REFUSING_LAYERS = ("measure.cluster_spectrum", "oracle.degeneracy_rank")
#: layers whose ``calls`` count is reported
COUNTED_LAYERS = ("report.analyze_state", "measure.cluster_spectrum",
                  "oracle.degeneracy_rank", "lie.su_basis", "lie.rep_action",
                  "lie.kostant_sternberg_check")
#: kernel counts of the oracle, computed from array sizes
KERNEL_COUNTS = {"oracle.generators": "count-computed",
                 "oracle.overlap_gflop": "Gflop-computed",
                 "oracle.rows_mb": "MB-computed"}


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int | None
    op: int | None
    error: str | None = None


def oracle_kernel(state) -> dict:
    """Sizes of the oracle's tangent rows and overlap matmul for a state:
    G generators by dim H complex rows, G^2 dim H complex multiply-adds."""
    group = state.dims if state.symmetry == DISTINGUISHABLE else state.dims[:1]
    g = sum(n * n - 1 for n in group)
    h = state.total_dim
    return {"oracle.generators": g,
            "oracle.overlap_gflop": 8 * g * g * h / 1e9,
            "oracle.rows_mb": 16 * g * h / 1e6}


class Tracer:
    """Span recorder; use as a context manager to install the wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.kernel = dict.fromkeys(KERNEL_COUNTS, 0)
        self.op_id = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        kernel = name == "oracle.degeneracy_rank"

        def traced(*args, **kwargs):
            if kernel:
                for key, value in oracle_kernel(args[0]).items():
                    self.kernel[key] += value
            span = Span(name, perf_counter_ns(), 0,
                        stack[-1] if stack else None, self.op_id)
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter_ns()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "orbitent" or key.startswith("orbitent.")]
        for name, targets in LAYERS.items():
            for module_name, attr in targets:
                owner = sys.modules[module_name]
                if "." in attr:  # a method: patch the class
                    cls_name, attr = attr.split(".")
                    self._patch(getattr(owner, cls_name), attr, name)
                    continue
                original = getattr(owner, attr)
                wrapper = self.wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, key, value))
                            setattr(module, key, wrapper)
        return self

    def _patch(self, owner, attr, name):
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def write(self, path) -> None:
        """Spans as gzip CSV: name,start_ns,end_ns,parent,op,error."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,op,error\n")
            for s in self.spans:
                fh.write(f"{s.name},{s.start},{s.end},"
                         f"{'' if s.parent is None else s.parent},"
                         f"{'' if s.op is None else s.op},{s.error or ''}\n")


def self_times(spans) -> list[int]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0, span.start
        for child in sorted((spans[c] for c in children[index]), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def layer_metrics(tracer: Tracer) -> dict:
    """``calls``, ``self_ms`` and ``refused`` per layer, plus kernel counts.

    Every layer is reported, with zeros where the workload never enters it.
    """
    calls, self_ns, refused = Counter(), Counter(), Counter()
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        calls[span.name] += 1
        self_ns[span.name] += own
        if span.error in REFUSALS:
            refused[span.name] += 1
    metrics = {}
    for name in LAYERS:
        if name in COUNTED_LAYERS:
            metrics[f"{name}.calls"] = (calls[name], "count")
        if name in REFUSING_LAYERS:
            metrics[f"{name}.refused"] = (refused[name], "count")
        metrics[f"{name}.self_ms"] = (self_ns[name] / 1e6, "ms")
    for name, unit in KERNEL_COUNTS.items():
        metrics[name] = (tracer.kernel[name], unit)
    return metrics
