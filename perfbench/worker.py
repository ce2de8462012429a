"""One cold regeneration of a workload's experiment list.

``run.py`` starts this script as a fresh interpreter for every
repetition, so no in-process memo survives from one regeneration to the
next, and the on-disk result cache is never activated::

    PYTHONPATH=src python3 perfbench/worker.py --workload model_probe \
        --order fig4,fig2,... --spawned-at <time.time() before spawn> [--trace]

It prints one JSON object: set-up time, per-experiment wall time and
result digest (or error), peak RSS and, with ``--trace``, the boundary
tracer's per-layer aggregates. ``--setup-only`` stops after the set-up
and prints only its time.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from contextlib import nullcontext

from tracer import Tracer, tracing
from workloads import WORKLOADS


def regenerate(
    entries, trace: bool, spawned_at: float | None = None, setup_only: bool = False
) -> dict:
    """Run ``entries`` in order; the set-up clock stops at the first call.

    With ``setup_only`` the set-up is timed and no experiment runs.
    """
    from repro.bench.perf import deterministic_digest
    from repro.experiments import registry  # noqa: F401  (loads every experiment)
    from repro.runner import active_cache
    from repro.scenario import Scenario

    if active_cache() is not None:
        raise RuntimeError("a result cache is active; the run would not be cold")
    scenarios = [
        Scenario.for_experiment(entry.experiment_id, entry.scale, dict(entry.options))
        for entry in entries
    ]
    setup_s = time.time() - spawned_at if spawned_at is not None else None
    if setup_only:
        return {"setup_s": setup_s}
    tracer = Tracer() if trace else None
    experiments = []
    with tracing(tracer) if tracer else nullcontext():
        for entry, scenario in zip(entries, scenarios):
            record = {"label": entry.label, "key": entry.key}
            start = time.perf_counter()
            try:
                result = scenario.run()
            except Exception as exc:  # one experiment's failure is counted, not fatal
                record["wall_s"] = time.perf_counter() - start
                record["error"] = f"{type(exc).__name__}: {exc}"
            else:
                record["wall_s"] = time.perf_counter() - start
                record["digest"] = deterministic_digest(result)
            experiments.append(record)
    report = {
        "setup_s": setup_s,
        "wall_s": sum(record["wall_s"] for record in experiments),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "experiments": experiments,
    }
    if tracer is not None:
        report["trace"] = {
            "self_s": tracer.self_s,
            "calls": tracer.calls,
            "counts": tracer.counts,
            "open_spans": tracer.open_spans,
        }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--order", help="comma-separated entry labels")
    parser.add_argument("--spawned-at", type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument(
        "--setup-only", action="store_true", help="time the set-up and exit"
    )
    args = parser.parse_args(argv)
    by_label = {entry.label: entry for entry in WORKLOADS[args.workload].entries}
    labels = args.order.split(",") if args.order else list(by_label)
    entries = [by_label[label] for label in labels]
    print(json.dumps(regenerate(entries, args.trace, args.spawned_at, args.setup_only)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
