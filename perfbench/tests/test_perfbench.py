"""Self-tests of the benchmark; run with ``python3 -m pytest perfbench/tests -q``.

They live outside ``tests/`` so the library's own suite never runs them.
"""

import json
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks as ck  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from cayley_greedy import greedy, stats  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_benchmark_json_names_what_the_benchmark_emits():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == (
        layers.specs(workloads.LADDER))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_run_emits_every_metric(name, trace, tmp_path):
    result = run.run(name, seed=5, seconds=0.2, trace=trace, tiny=True,
                     probes=1, out_dir=str(tmp_path))
    assert result["correct"], result["record"]["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    if trace:
        want = [n for n, _, _ in layers.specs(workloads.TINY_LADDER)]
    else:
        want = [n for n, _ in run.END_TO_END]
    assert list(result["metrics"]) == want
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def _tiny_run(name: str) -> run.Run:
    bench = run.Run(workloads.WORKLOADS[name](seed=5, tiny=True))
    bench.rounds(0.0)
    return bench


def test_perturbed_exact_law_fails_its_digest(monkeypatch):
    original = greedy.law_to_json_dict

    def perturbed(law):
        payload = original(law)
        key = min(payload["size_law"])
        p = Fraction(payload["size_law"][key]["fraction"]) + Fraction(1, 10**9)
        payload["size_law"][key]["fraction"] = f"{p.numerator}/{p.denominator}"
        return payload

    monkeypatch.setattr(greedy, "law_to_json_dict", perturbed)
    bench = _tiny_run("exact_laws")
    assert bench.failed == len(workloads.TINY_LADDER)
    assert all("exact law JSON" in m for m in bench.checks.messages)


def test_exact_digests_pass_unperturbed():
    bench = _tiny_run("exact_laws")
    assert bench.failed == 0 and bench.attempted > 0


def test_density_outside_band_counts_as_failure(monkeypatch):
    original = greedy.max_independent_set
    monkeypatch.setattr(greedy, "max_independent_set",
                        lambda tree: original(tree) + tree.n // 20)
    bench = _tiny_run("tree_sweep")
    assert bench.failed > 0
    assert any("max-IS density" in m for m in bench.checks.messages)


def test_chain_statistic_outside_band_counts_as_failure(monkeypatch):
    original = stats.clt_experiment

    def shifted(*args, **kwargs):
        reports = original(*args, **kwargs)
        reports[0].observed *= 1.5  # size variance
        return reports

    monkeypatch.setattr(stats, "clt_experiment", shifted)
    bench = _tiny_run("chain_clt")
    assert bench.failed == 1
    assert "size_variance" in bench.checks.messages[0]


def test_nondeterministic_outputs_fail_the_round_comparison():
    bench = run.Run(workloads.WORKLOADS["markov_peel"](seed=5, tiny=True))
    bench.rounds(0.0)
    bench.fingerprint = ["different"]
    bench.rounds(0.0)
    assert bench.checks.messages == ["outputs identical across rounds: "]


def test_band_helpers_reuse_acceptance_bands():
    bands = ck.clt_bands(2000, 10_000)
    assert bands["size_variance"] == (0.055, 0.070)
    assert bands["root_last_fraction"] == (0.23, 0.27)
    lo, hi = bands["steps_variance"]
    assert lo < 0.75 - 0.6931 < hi < 0.68  # criterion 4's band is unattainable


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(1000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    tracer.begin_op("op")
    outer()
    summary = tracer.summary()
    (o,) = summary.spans("outer")
    kids = summary.spans("inner", parent={"outer"})
    assert len(kids) == 3
    covered = sum(summary.duration[i] for i in kids)
    assert summary.self_time[o] == pytest.approx(summary.duration[o] - covered)
    assert summary.top_level_time() == summary.duration[o]


def test_percentile_reports_samples_beyond():
    values = [float(v) for v in range(1, 201)]
    assert run.percentile(values, 50) == (100.0, 100)
    assert run.percentile(values, 95) == (190.0, 10)
    assert run.percentile(values, 100) == (200.0, 0)


def test_work_clock_leaves_the_speed_kernel_out():
    meter = speed.Speed()
    c0 = meter.clock()
    meter.sample()
    meter.sample()
    kernel_times = [k for _, k in meter.points]
    assert meter.clock() - c0 < min(kernel_times)
    t = meter.points[0][0]
    assert meter.scale(t, t) == pytest.approx(
        speed.REFERENCE_S / (sum(kernel_times) / 2))
