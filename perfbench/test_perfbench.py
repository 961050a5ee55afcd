"""Self-tests of the benchmark.  Run: python3 -m pytest perfbench"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import orbitent.report  # noqa: E402
import run  # noqa: E402
import strata  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from orbitent.states import build_state  # noqa: E402


@pytest.mark.parametrize("name", ["closed-form", "oracle"])
def test_one_pass_runs_without_failures(name, tmp_path):
    ops = workloads.WORKLOADS[name].prepare(3, 0, str(tmp_path))
    outcome = workloads.run_ops(ops)
    assert outcome.attempted == len(ops) > 0
    assert outcome.failures == Counter()


@pytest.mark.parametrize("in_process", [True, False])
def test_cli_pass_runs_without_failures(in_process, tmp_path):
    ops = workloads.WORKLOADS["cli"].prepare(3, 0, str(tmp_path), in_process=in_process)
    outcome = workloads.run_ops(ops)
    assert outcome.attempted == len(ops) == 10
    assert outcome.failures == Counter()
    assert outcome.verify_states == 1200


def test_corrupted_expected_integer_is_a_failure():
    case = strata.schmidt_case(np.random.default_rng(0), (4, 4), (2, 2))
    corrupted = dataclasses.replace(case, orbit_dim=case.orbit_dim + 1)
    ops = workloads.ClosedForm.ops_for(case) + workloads.ClosedForm.ops_for(corrupted)
    outcome = workloads.run_ops(ops)
    assert outcome.attempted == 4
    assert outcome.failures == Counter({"wrong_integer": 1})


def test_cli_failures_are_counted_by_kind():
    ks = workloads._cli_check("ks-check", (27, 26))
    result = workloads.call_in_process(
        ["ks-check", "--dims", "3,3,3", "--format", "json"])
    assert result[0] == 0
    assert ks(result) == "wrong_integer"
    assert workloads._cli_check("ks-check", (27, 27))(result) is None
    assert ks((2, "")) == "nonzero_exit"
    garbled = workloads.Op("ks-check", lambda: (0, "not json"), ks)
    assert workloads.run_ops([garbled]).failures == Counter({"wrong_output": 1})


def test_refusal_is_counted_by_exception_type():
    # a Schmidt gap at the clustering threshold is refused, not guessed
    state = build_state(np.diag([np.sqrt(0.5 + 5e-8), np.sqrt(0.5 - 5e-8)]))
    op = workloads.Op("analyze", lambda: orbitent.report.analyze_state(state),
                      lambda report: None)
    assert workloads.run_ops([op]).failures == Counter({"AmbiguousClustering": 1})


def test_expected_integers_of_families():
    rng = np.random.default_rng(1)
    ghz = strata.ghz_case(rng, (2, 2, 2), 2)
    assert (ghz.coadjoint_dim, ghz.degeneracy, ghz.separable) == (0, (3, 9), False)
    product = strata.schmidt_case(rng, (3, 3), (1,))
    assert (product.orbit_dim, product.degeneracy, product.separable) == (8, 0, True)
    slater = strata.slater_case(rng, (5, 5))
    assert (slater.orbit_dim, slater.coadjoint_dim, slater.degeneracy) == (12, 12, 0)
    unequal = strata.schmidt_case(rng, (3, 5), (2,))
    assert (unequal.orbit_dim, unequal.degeneracy) == (19, 3)


def test_inconsistent_oracle_makes_the_run_incorrect(monkeypatch):
    case = strata.schmidt_case(np.random.default_rng(4), (3, 3), (2, 1))
    monkeypatch.setattr(orbitent.report, "orbit_dimension_bipartite",
                        lambda clustering, n: case.orbit_dim + 1)
    outcome = workloads.run_ops([workloads.Oracle.op_for(case)])
    assert outcome.failures == Counter({"Inconsistency": 1})
    assert run.result(outcome, {}) == {
        "correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def test_nonzero_exit_makes_the_run_incorrect(tmp_path):
    argv = ["analyze", "--input", str(tmp_path / "missing.json"), "--format", "json"]
    op = workloads.Op("analyze", lambda: workloads.call_in_process(argv),
                      workloads._cli_check("analyze", None))
    outcome = workloads.run_ops([op])
    assert outcome.failures == Counter({"nonzero_exit": 1})
    assert not run.result(outcome, {})["correct"]


def test_margin_check_rejects_a_near_threshold_gap():
    state = build_state(np.diag([np.sqrt(0.5 + 1e-7), np.sqrt(0.5 - 1e-7)]))
    case = strata.distinguishable_case("tight", state, ((0, (1, 1)),) * 2)
    assert not strata.check_margins(case, strict=False)
    with pytest.raises(ValueError):
        strata.check_margins(case)



class _Seeds:
    """Stands in for a generator: ``integers`` returns the given values."""

    def __init__(self, *values):
        self.values = list(values)

    def integers(self, high):
        return self.values.pop(0)


def test_verify_seed_passes_over_a_seed_verify_refuses():
    refused = 1967865504  # one of its 1000 two-qutrit states is ambiguous
    argv = ["verify", "--count", "1000", "--dims", "3,3", "--format", "json"]
    assert workloads.call_in_process(argv + ["--seed", str(refused)])[0] == 2
    # 5 is accepted by verify but one of its states misses the margin
    seed = strata.verify_seed(_Seeds(refused, 5, 6), 1000, (3, 3))
    assert seed == 6
    assert workloads.call_in_process(argv + ["--seed", str(seed)])[0] == 0

def test_self_time_subtracts_the_union_of_children():
    span = tracing.Span
    spans = [
        span("root", 0, 100, None, 0),
        span("a", 10, 40, 0, 0),
        span("a.child", 15, 25, 1, 0),
        span("b", 50, 90, 0, 0),
        span("c", 80, 95, 0, 0),  # overlaps b: covered once
    ]
    assert tracing.self_times(spans) == [25, 20, 10, 40, 15]
    tracer = tracing.Tracer()
    tracer.spans.extend([span("report.analyze_state", 0, 3_000_000, None, 0),
                         span("moment.reduced_matrices", 0, 1_000_000, 0, 0),
                         span("measure.cluster_spectrum", 1_000_000, 1_500_000, 0, 0,
                              "AmbiguousClustering")])
    metrics = tracing.layer_metrics(tracer)
    assert metrics["report.analyze_state.self_ms"] == (1.5, "ms")
    assert metrics["measure.cluster_spectrum.refused"] == (1, "count")
    assert metrics["lie.rep_action.calls"] == (0, "count")


def test_tracer_wraps_where_callers_look_and_restores():
    original = orbitent.oracle.rep_action
    state = strata.ghz_case(np.random.default_rng(2), (2, 2, 2), 2).state
    tracer = tracing.Tracer()
    with tracer:
        assert orbitent.oracle.rep_action is not original
        orbitent.report.analyze_state(state, oracle="verify")
    assert orbitent.oracle.rep_action is original
    names = Counter(s.name for s in tracer.spans)
    assert names["report.analyze_state"] == 1
    assert names["lie.rep_action"] == 9  # one per generator of su(2)^3
    root = next(i for i, s in enumerate(tracer.spans) if s.name == "report.analyze_state")
    assert all(s.parent is not None for i, s in enumerate(tracer.spans) if i != root)
    assert tracer.kernel["oracle.generators"] == 9


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(range(1000)) == (99.0, 10, 989)
    assert run.tail_percentile(range(40)) == (75.0, 10, 29)
    assert run.tail_percentile(range(30000)) == (99.9, 30, 29969)
    assert run.tail_percentile(range(7)) == (100.0 * 4 / 7, 3, 3)  # the median


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_result_line_names_every_declared_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    args = ["--workload", "closed-form", "--seed", "1", "--seconds", "0.1"]
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args,
                               "--trace", trace],
                              capture_output=True, text=True, timeout=120, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared[section]}
