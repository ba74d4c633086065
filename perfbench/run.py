"""Benchmark of the cayley_greedy library: one workload per run.

    python3 perfbench/run.py --workload tree_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The timed pass (``--trace 0``) repeats the
workload's round for ``--seconds`` and reports the end-to-end metrics; the
traced pass (``--trace 1``) spends half the time on untraced rounds and half
on rounds with spans recorded, and reports the per-layer metrics.  Every
output is checked.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0
when every check passed, 1 when one failed, and 2 when the library cannot
be imported from ``src/``.  See perfbench/README.md.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PROBES = 5
WORKLOAD_NAMES = ("tree_sweep", "chain_clt", "exact_laws", "markov_peel")


def _probe_setup(workload: str, seed: int, tiny: bool) -> None:
    """Set-up as a fresh interpreter pays it: import, inputs, warm-up."""
    sys.path[:0] = [SRC, HERE]
    t0 = time.perf_counter()
    import cayley_greedy.cli  # noqa: F401
    t1 = time.perf_counter()
    from workloads import WORKLOADS
    WORKLOADS[workload](seed, tiny).warm_up()
    t2 = time.perf_counter()
    import json
    print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0}))


if __name__ == "__main__" and sys.argv[1:2] == ["--probe-setup"]:
    _probe_setup(sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1")
    sys.exit(0)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

END_TO_END = [
    ("wall_s", "s"),
    ("op_ms.p50", "ms"),
    ("op_ms.tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


TIME_UNITS = ("s", "ms", "us", "ns")


class ProgramMissing(Exception):
    """The library under test is not importable from src/."""


def _import_library():
    sys.path[:0] = [p for p in (SRC, HERE) if p not in sys.path]
    try:
        import cayley_greedy
        import cayley_greedy.cli  # noqa: F401
    except ImportError as err:
        raise ProgramMissing(f"cannot import cayley_greedy from {SRC}: {err}")
    if not os.path.abspath(cayley_greedy.__file__).startswith(SRC + os.sep):
        raise ProgramMissing(f"cayley_greedy imported from {cayley_greedy.__file__}, "
                             f"not from {SRC}")


def _probe(workload: str, seed: int, tiny: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe-setup",
         workload, str(seed), "1" if tiny else "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise ProgramMissing(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(samples: int) -> float:
    """Highest of 99.9, 99, 90 and 50 with at least ten samples beyond it,
    or 100 (the maximum) when even the median has fewer."""
    for pct in (99.9, 99.0, 90.0, 50.0):
        if percentile(range(samples), pct)[1] >= 10:
            return pct
    return 100.0


class Run:
    """Rounds of one workload with their timings and check counts."""

    def __init__(self, workload) -> None:
        from checks import Checks
        from speed import Speed

        self.workload = workload
        self.checks = Checks()
        self.speed = Speed()
        self.ops_attempted = 0
        self.ops_failed = 0
        self.fingerprint = None

    def rounds(self, budget: float, tracer=None) -> list[tuple[float, float, float, list[float]]]:
        """Run rounds for at most ``budget`` seconds (at least one round).

        Returns (start, end, wall, operation latencies) per round, start and
        end on ``perf_counter``.  Without a tracer, the reference kernel
        samples the machine's speed on a timer and the wall time and
        latencies leave it out; with one, it runs only between rounds, so
        that no span contains it.
        """
        from workloads import NullTracer

        speed = self.speed
        rounds = []
        start = time.perf_counter()
        with speed.sampling() if tracer is None else contextlib.nullcontext():
            # start a round only if one more round of the last one's length fits
            while not rounds or (time.perf_counter() - start
                                 + rounds[-1][1] - rounds[-1][0] <= budget):
                if tracer is not None:
                    speed.sample()
                t0, c0 = time.perf_counter(), speed.clock()
                try:
                    times, fingerprint = self.workload.round(
                        self.checks, tracer or NullTracer(), speed.clock)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    self.ops_attempted += 1
                    self.ops_failed += 1
                    break
                rounds.append((t0, time.perf_counter(), speed.clock() - c0, times))
                if self.fingerprint is None:
                    self.fingerprint = fingerprint
                else:
                    self.checks.check("outputs identical across rounds",
                                      fingerprint == self.fingerprint)
                self.ops_attempted += len(times)
        speed.sample()
        return rounds

    def scaled(self, rounds) -> tuple[list[float], list[list[float]]]:
        """Round walls and operation latencies at the reference speed."""
        walls, ops = [], []
        for t0, t1, wall, times in rounds:
            scale = self.speed.scale(t0, t1)
            walls.append(wall * scale)
            ops.append([t * scale for t in times])
        return walls, ops

    @property
    def attempted(self) -> int:
        return self.ops_attempted + self.checks.attempted

    @property
    def failed(self) -> int:
        return self.ops_failed + self.checks.failed


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False, probes: int = PROBES, out_dir: str | None = None) -> dict:
    """One benchmark run; returns the result with its run record."""
    _import_library()
    import layers
    from tracer import Tracer, install
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed, tiny)
    bench = Run(workload)
    setups = [_probe(workload_name, seed, tiny) for _ in range(probes)]
    workload.warm_up()
    rounds = bench.rounds(seconds / 2 if trace else seconds)
    walls, op_times = bench.scaled(rounds)
    record = _record(workload_name, seed, seconds, trace, tiny)
    record["round_walls_s"] = walls
    record["raw_round_walls_s"] = [wall for _, _, wall, _ in rounds]
    record["speed_kernel_s"] = [k for _, k in bench.speed.points]
    record["setup_probes"] = setups
    import_s = statistics.median(s["import_s"] for s in setups)
    setup_s = statistics.median(s["setup_s"] for s in setups)

    if trace:
        tracer = Tracer()
        restore, missing = install(tracer)
        try:
            traced = bench.rounds(seconds / 2, tracer)
        finally:
            restore()
        traced_walls, _ = bench.scaled(traced)
        record["traced_round_walls_s"] = traced_walls
        record["unwrapped"] = missing
        summary = tracer.summary()
        values = layers.compute(summary, len(traced), workload.ladder)
        scale = statistics.mean(bench.speed.scale(t0, t1) for t0, t1, _, _ in traced)
        units = {name: unit for name, unit, _ in layers.specs(workload.ladder)}
        for name, unit in units.items():
            if name in values and unit in TIME_UNITS:
                values[name] *= scale
        values[f"greedy.exact_law_peak_mb.n{max(workload.ladder)}"] = (
            workload.peak_memory_mb())
        values["cli.import_s"] = import_s
        values["trace.overhead_pct"] = 100 * (
            statistics.median(traced_walls) / statistics.median(walls) - 1)
        values["trace.coverage"] = summary.top_level_time() / sum(
            wall for _, _, wall, _ in traced)
        metrics = {name: (values[name], unit) for name, unit in units.items()}
        out_dir = out_dir or os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{workload_name}.csv.gz")
        tracer.write_csv(spans_path)
        record["spans_file"] = spans_path
    else:
        pct = tail_percentile(len(op_times[0]))
        if pct < 100:
            latencies = [t for times in op_times for t in times]
            sample = "every operation of every round"
        else:
            latencies = [statistics.median(samples) for samples in zip(*op_times)]
            sample = "each operation's median over the rounds"
        p50, _ = percentile(latencies, 50)
        tail, beyond = percentile(latencies, pct)
        record["op_ms"] = {"operations_per_round": len(op_times[0]),
                           "samples": len(latencies), "sample": sample,
                           "tail_percentile": pct, "samples_beyond_tail": beyond}
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "wall_s": statistics.median(walls),
            "op_ms.p50": p50 * 1e3,
            "op_ms.tail": tail * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": peak_kb / 1024,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}

    record["fail_ratio"] = bench.failed / bench.attempted
    record["failures"] = bench.checks.messages
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "record": record,
    }


def _record(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": "tiny" if tiny else "full",
        "argv": sys.argv,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _seed(text: str) -> int:
    value = int(text, 0)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=_positive, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for smoke tests of the benchmark")
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     tiny=args.size == "tiny")
    except ProgramMissing as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    record = result.pop("record")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"result-{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**result, "record": record}, fh, indent=2, sort_keys=True)
    for message in record["failures"]:
        print(f"FAILED CHECK {message}", file=sys.stderr)
    print("record " + json.dumps(record, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"fail_ratio = {record['fail_ratio']:.6g} "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    if "op_ms" in record:
        o = record["op_ms"]
        print(f"op_ms.tail is percentile {o['tail_percentile']:g} of {o['samples']} "
              f"samples ({o['sample']}; {o['samples_beyond_tail']} beyond it)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
