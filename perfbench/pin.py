"""Record the output oracle: pinned result digests and work counts.

Run from the root of a checkout after a declared change to a result::

    python3 perfbench/pin.py

For every workload the experiment list is regenerated in fresh
processes: under the ``reference`` engine with two different
``PYTHONHASHSEED`` values, under the ``vectorized`` engine, and twice
traced under program defaults, in shuffled orders. A digest is pinned
only when all of these agree, and the traced work counts only when both
traced processes report the same ones. Nothing is written otherwise.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import subprocess
import sys

from run import ORACLE, ROOT, WORK_COUNTS, WORKER, child_env, layer_metrics
from workloads import WORKLOADS

ENGINE_RUNS = (("reference", "0"), ("reference", "1"), ("vectorized", "2"))
TRACED_HASH_SEEDS = ("3", "4")


def _run(args: list[str], hash_seed: str) -> dict:
    env = child_env()
    env["PYTHONHASHSEED"] = hash_seed
    done = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"pin: {' '.join(args)} failed")
    return json.loads(done.stdout.strip().splitlines()[-1])


def digests_under(engine: str, workload: str) -> dict[str, str]:
    """Child mode: digest every entry of ``workload`` under ``engine``."""
    from repro.bench.perf import deterministic_digest
    from repro.scenario import Scenario

    return {
        entry.key: deterministic_digest(
            Scenario.for_experiment(
                entry.experiment_id, entry.scale, dict(entry.options), engine=engine
            ).run()
        )
        for entry in WORKLOADS[workload].entries
    }


def pin_workload(name: str) -> tuple[dict[str, str], dict[str, int]]:
    observed: dict[str, set[str]] = {}
    for engine, hash_seed in ENGINE_RUNS:
        digests = _run(
            [__file__, "--child", name, "--engine", engine], hash_seed
        )
        for key, digest in digests.items():
            observed.setdefault(key, set()).add(digest)
    counts = []
    labels = [entry.label for entry in WORKLOADS[name].entries]
    for hash_seed in TRACED_HASH_SEEDS:
        random.Random(hash_seed).shuffle(labels)
        report = _run(
            [str(WORKER), "--workload", name, "--order", ",".join(labels), "--trace"],
            hash_seed,
        )
        for record in report["experiments"]:
            if "error" in record:
                raise SystemExit(f"pin: {record['key']} raised {record['error']}")
            observed[record["key"]].add(record["digest"])
        metrics = layer_metrics(report["trace"], report["wall_s"])
        counts.append({count: metrics[count] for count in WORK_COUNTS})
    unstable = {key: sorted(digests) for key, digests in observed.items() if len(digests) > 1}
    if unstable:
        raise SystemExit(f"pin: {name}: digests disagree: {unstable}")
    if counts[0] != counts[1]:
        raise SystemExit(f"pin: {name}: work counts disagree: {counts}")
    return {key: digests.pop() for key, digests in observed.items()}, counts[0]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    parser.add_argument("--engine", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(digests_under(args.engine, args.child)))
        return 0

    import numpy

    digests: dict[str, str] = {}
    counts: dict[str, dict[str, int]] = {}
    for name in WORKLOADS:
        print(f"pinning {name} ...", flush=True)
        digests_of, counts[name] = pin_workload(name)
        digests.update(digests_of)
    oracle = {
        "provenance": {
            "digest": "repro.bench.perf.deterministic_digest of "
            "Scenario.for_experiment(id, scale, options).run()",
            "agreed_across": [
                f"engine={engine} PYTHONHASHSEED={seed}" for engine, seed in ENGINE_RUNS
            ]
            + [
                f"program defaults, traced, shuffled order, PYTHONHASHSEED={seed}"
                for seed in TRACED_HASH_SEEDS
            ],
            "counts": "boundary-tracer work counts under program defaults, "
            "equal in both traced processes",
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": f"{platform.system()} {platform.machine()}",
            "command": "python3 perfbench/pin.py",
        },
        "digests": dict(sorted(digests.items())),
        "counts": counts,
    }
    with open(ORACLE, "w", encoding="utf-8") as handle:
        json.dump(oracle, handle, indent=2)
        handle.write("\n")
    print(f"wrote {ORACLE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
