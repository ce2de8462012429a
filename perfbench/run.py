"""The repro benchmark: cold regeneration of fixed experiment lists.

Run from the root of a checkout::

    python3 perfbench/run.py --workload closed_loop --seed 1 --seconds 30 --trace 0

Each repetition is a fresh interpreter (``worker.py``) that regenerates
the workload's experiment list through ``Scenario.for_experiment(...)
.run()`` with the on-disk result cache off, so every repetition is cold.
Repetitions run one at a time until ``--seconds`` have passed, after a
few processes that only time the set-up. The seed
fixes the order of the experiments in each repetition; results must not
depend on it. Every result is checked against the digest pinned in
``oracle.json``.

``--trace 0`` reports the end-to-end metrics (medians over the
repetitions). ``--trace 1`` alternates untraced and traced repetitions
and reports the per-layer split from the boundary tracer; a traced
repetition whose work counts differ from the recorded ones fails.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
ORACLE = HERE / "oracle.json"

#: No repetition starts once this much time has passed, so a run exits
#: well inside three minutes however slow the host is.
HARD_LIMIT_S = 150.0

#: Set-up-only processes per run, besides the set-up of every repetition.
SETUP_PROBES = 4

#: Counts that define "the same work"; they must repeat exactly.
WORK_COUNTS = (
    "bench.points",
    "cpu.engine.events",
    "dram.requests",
    "memmodels.requests",
    "core.requests",
)

#: Layers whose self time is reported; the priming span is ``prime``.
SELF_TIME_LAYERS = tuple(layer for layer in LAYERS if layer != "cpu.hierarchy.prime")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of the result line with its unit.

    Layer and experiment times are given as shares of the wall time
    (``trace.wall_s`` for layers, the untraced one for experiments): a
    layer a workload never enters then reads 0 as a share, never as a
    time. Their seconds are printed above the result line.
    """
    units = {f"{layer}.self_share": "ratio" for layer in SELF_TIME_LAYERS}
    units.update(
        {
            "cpu.hierarchy.prime_share": "ratio",
            "cpu.engine.events": "count",
            "cpu.hierarchy.accesses": "count",
            "cpu.hierarchy.prime_calls": "count",
            "cpu.hierarchy.l1_hit_ratio": "ratio",
            "cpu.hierarchy.l2_hit_ratio": "ratio",
            "cpu.hierarchy.llc_hit_ratio": "ratio",
            "cpu.hierarchy.writebacks": "count",
            "dram.requests": "count",
            "dram.row_hit_ratio": "ratio",
            "memmodels.requests": "count",
            "core.requests": "count",
            "bench.points": "count",
            "trace.wall_s": "s",
            "trace.overhead_ratio": "ratio",
            "trace.outside_share": "ratio",
        }
    )
    for workload in WORKLOADS.values():
        for entry in workload.entries:
            if entry.timed:
                units[f"experiments.{entry.label}.share"] = "ratio"
    return units


def child_env() -> dict[str, str]:
    """This process's environment with the program's source importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


def load_oracle(path: Path = ORACLE) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check_experiment(record: dict, digests: dict) -> str | None:
    """Why one experiment run failed the oracle; ``None`` when it passed."""
    if "error" in record:
        return f"raised {record['error']}"
    expected = digests.get(record["key"])
    if expected is None:
        return "no pinned digest"
    if record.get("digest") != expected:
        return f"digest {record.get('digest')} != pinned {expected}"
    return None


def layer_metrics(trace: dict, traced_wall_s: float) -> dict[str, float]:
    """Per-layer seconds, shares and counts of one traced repetition."""
    self_s, calls, counts = trace["self_s"], trace["calls"], trace["counts"]

    def ratio(hits: str, total: str) -> float:
        denominator = counts.get(total, 0)
        return counts.get(hits, 0) / denominator if denominator else 0.0

    seconds = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in SELF_TIME_LAYERS}
    seconds["cpu.hierarchy.prime_s"] = self_s.get("cpu.hierarchy.prime", 0.0)
    seconds["trace.outside_s"] = traced_wall_s - sum(self_s.values())
    metrics = dict(seconds)
    for name, value in seconds.items():
        metrics[name[: -len("_s")] + "_share"] = value / traced_wall_s
    metrics.update(
        {
            "trace.wall_s": traced_wall_s,
            "cpu.engine.events": counts.get("cpu.engine.events", 0),
            "cpu.hierarchy.accesses": calls.get("cpu.hierarchy", 0),
            "cpu.hierarchy.prime_calls": calls.get("cpu.hierarchy.prime", 0),
            "cpu.hierarchy.writebacks": counts.get("cpu.hierarchy.writebacks", 0),
            "dram.requests": calls.get("dram", 0),
            "dram.row_hit_ratio": ratio("dram.row_hits", "dram.row_accesses"),
            "memmodels.requests": calls.get("memmodels", 0),
            "core.requests": calls.get("core", 0),
            "bench.points": calls.get("bench.harness", 0),
        }
    )
    for level in ("l1", "l2", "llc"):
        metrics[f"cpu.hierarchy.{level}_hit_ratio"] = ratio(
            f"cpu.hierarchy.{level}.hits", f"cpu.hierarchy.{level}.accesses"
        )
    return metrics


class Run:
    """The repetitions of one benchmark run and their verdicts."""

    def __init__(self, workload: str, seed: int, oracle: dict) -> None:
        self.workload = WORKLOADS[workload]
        self.rng = random.Random(seed)
        self.digests = oracle["digests"]
        self.recorded_counts = oracle["counts"].get(workload)
        self.attempted = 0
        self.failed = 0
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.setup_s: list[float] = []
        self.started = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def _spawn(self, args: list[str], timeout: float) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, str(WORKER), "--workload", self.workload.name, *args],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )

    def time_setup(self) -> None:
        """Time the set-up alone a few times; the first, untimed, warms caches."""
        for probe in range(SETUP_PROBES + 1):
            done = self._spawn(
                ["--setup-only", "--spawned-at", repr(time.time())], timeout=60
            )
            if done.returncode != 0:
                sys.stderr.write(done.stderr[-4000:])
                raise SystemExit("perfbench: the program does not set up")
            if probe:
                self.setup_s.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])

    def repetition(self, trace: bool) -> dict | None:
        labels = [entry.label for entry in self.workload.entries]
        self.rng.shuffle(labels)
        args = ["--order", ",".join(labels)]
        if trace:
            args.append("--trace")
        self.attempted += len(labels)
        try:
            done = self._spawn(
                [*args, "--spawned-at", repr(time.time())],
                timeout=max(5.0, 175.0 - self.elapsed()),
            )
        except subprocess.TimeoutExpired:
            print(f"{self.workload.name}: repetition timed out", file=sys.stderr)
            self.failed += len(labels)
            return None
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr[-4000:])
            print(f"{self.workload.name}: repetition crashed", file=sys.stderr)
            self.failed += len(labels)
            return None
        report = json.loads(lines[-1])
        for record in report["experiments"]:
            problem = check_experiment(record, self.digests)
            if problem is not None:
                print(f"FAILED {record['key']}: {problem}", file=sys.stderr)
                self.failed += 1
        if trace:
            self._check_work(report["trace"], report["wall_s"])
        (self.traced if trace else self.untraced).append(report)
        if not trace:
            self.setup_s.append(report["setup_s"])
        return report

    def _check_work(self, trace: dict, wall_s: float) -> None:
        """A traced repetition must do exactly the recorded work."""
        self.attempted += 1
        counts = layer_metrics(trace, wall_s)
        measured = {name: counts[name] for name in WORK_COUNTS}
        expected = self.recorded_counts
        if trace["open_spans"] or expected is None or measured != expected:
            print(
                f"FAILED work check: counts {measured} != recorded {expected}"
                f" (open spans: {trace['open_spans']})",
                file=sys.stderr,
            )
            self.failed += 1

    def keep_going(self, seconds: float, done: list[dict]) -> bool:
        if not done:
            return True
        last = max(report["wall_s"] for report in done)
        return self.elapsed() < seconds and self.elapsed() + 2 * last < HARD_LIMIT_S


def end_to_end(untraced: list[dict], setup_s: list[float]) -> dict[str, float]:
    return {
        "wall_s": statistics.median(report["wall_s"] for report in untraced),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": statistics.median(report["peak_rss_mb"] for report in untraced),
    }


def per_layer(entries, untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    """Medians over the traced repetitions, plus untraced experiment times."""
    layers = [layer_metrics(report["trace"], report["wall_s"]) for report in traced]
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / statistics.median(
        report["wall_s"] for report in untraced
    )
    for entry in entries:
        walls = [
            (record["wall_s"], report["wall_s"])
            for report in untraced
            for record in report["experiments"]
            if record["label"] == entry.label
        ]
        metrics[f"experiments.{entry.label}.wall_s"] = statistics.median(
            wall for wall, _ in walls
        )
        metrics[f"experiments.{entry.label}.share"] = statistics.median(
            wall / total for wall, total in walls
        )
    # 0 marks an experiment this workload does not run
    for name in per_layer_units():
        metrics.setdefault(name, 0.0)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, load_oracle())
    run.time_setup()
    # a repetition that crashes ends the run: the failure is already counted
    if args.trace:
        while run.keep_going(args.seconds, run.traced):
            if run.repetition(trace=False) is None or run.repetition(trace=True) is None:
                break
    else:
        while run.keep_going(args.seconds, run.untraced):
            if run.repetition(trace=False) is None:
                break
    if not run.untraced or (args.trace and not run.traced):
        print("perfbench: no repetition completed", file=sys.stderr)
        return 1

    if args.trace:
        metrics = per_layer(run.workload.entries, run.untraced, run.traced)
        units = per_layer_units()
        samples = len(run.traced)
    else:
        metrics = end_to_end(run.untraced, run.setup_s)
        units = END_TO_END
        samples = len(run.untraced)
    print(f"workload {args.workload}: {samples} repetition(s), seed {args.seed}")
    if args.trace:
        for name in sorted(metrics):
            if name.endswith("_s") and name not in units:
                print(f"  {name:40s} {metrics[name]:14.6g} s")
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:14.6g} {unit}")
    print(
        f"  {'failed_share':40s} {run.failed / run.attempted:14.6g} "
        f"({run.failed}/{run.attempted})"
    )
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
