"""Tests of the benchmark's own machinery: oracle, tracer, cold guard.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import json

import pytest

import run
from tracer import HOOKS, Tracer, installed_wrappers, tracing
from worker import regenerate
from workloads import WORKLOADS, Entry


def _entry(label: str) -> Entry:
    return next(
        entry
        for workload in WORKLOADS.values()
        for entry in workload.entries
        if entry.label == label
    )


@pytest.fixture(scope="module")
def oracle() -> dict:
    return run.load_oracle()


def test_oracle_pins_every_entry_and_workload(oracle):
    keys = {entry.key for w in WORKLOADS.values() for entry in w.entries}
    assert set(oracle["digests"]) == keys
    assert set(oracle["counts"]) == set(WORKLOADS)
    for counts in oracle["counts"].values():
        assert set(counts) == set(run.WORK_COUNTS)


def test_real_result_passes_and_tampered_digest_is_rejected(oracle):
    report = regenerate([_entry("fig2")], trace=False)
    (record,) = report["experiments"]
    assert run.check_experiment(record, oracle["digests"]) is None

    pinned = oracle["digests"][record["key"]]
    flipped = ("0" if pinned[0] != "0" else "1") + pinned[1:]
    tampered = {**oracle["digests"], record["key"]: flipped}
    assert "!= pinned" in run.check_experiment(record, tampered)
    assert run.check_experiment(record, {}) == "no pinned digest"
    raised = {"key": record["key"], "error": "ValueError: boom"}
    assert run.check_experiment(raised, oracle["digests"]).startswith("raised")


def test_changed_work_counts_fail_the_traced_repetition(oracle):
    bench = run.Run("model_probe", seed=1, oracle=oracle)
    recorded = oracle["counts"]["model_probe"]
    trace = {
        "self_s": {},
        "calls": {
            "bench.harness": recorded["bench.points"],
            "dram": recorded["dram.requests"],
            "memmodels": recorded["memmodels.requests"],
            "core": recorded["core.requests"],
        },
        "counts": {"cpu.engine.events": recorded["cpu.engine.events"]},
        "open_spans": 0,
    }
    bench._check_work(trace, wall_s=1.0)
    assert (bench.attempted, bench.failed) == (1, 0)
    trace["calls"]["dram"] += 1
    bench._check_work(trace, wall_s=1.0)
    assert (bench.attempted, bench.failed) == (2, 1)


def test_self_time_excludes_children_on_a_synthetic_nest():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 8.0, 9.0, 10.0])
    spans = Tracer(clock=lambda: next(ticks))
    # a [0, 10] > b [1, 9] > c [2, 4] and c [5, 8]
    spans.enter("a")
    spans.enter("b")
    spans.enter("c")
    spans.exit()
    spans.enter("c")
    spans.exit()
    spans.exit()
    spans.exit()
    assert spans.self_s == {"c": 5.0, "b": 3.0, "a": 2.0}
    assert spans.calls == {"c": 2, "b": 1, "a": 1}
    assert sum(spans.self_s.values()) == 10.0
    assert spans.open_spans == 0


def test_traced_run_reaches_by_name_imports_and_removes_its_wrappers():
    # optane imports characterize_model by name; fig7 drives the DRAM
    # controller directly
    originals = {}
    for hook in HOOKS:
        module = importlib.import_module(hook.module)
        owner = getattr(module, hook.owner) if hook.owner else module
        originals[hook] = vars(owner)[hook.name]
    report = regenerate([_entry("optane"), _entry("fig7")], trace=True)
    trace = report["trace"]
    assert trace["open_spans"] == 0
    assert trace["calls"]["bench.probe"] > 0
    assert trace["calls"]["dram"] > 0
    assert trace["counts"]["dram.row_accesses"] > 0
    assert sum(trace["self_s"].values()) <= report["wall_s"]

    assert installed_wrappers() == []
    for hook, original in originals.items():
        module = importlib.import_module(hook.module)
        owner = getattr(module, hook.owner) if hook.owner else module
        assert vars(owner)[hook.name] is original
    optane = importlib.import_module("repro.experiments.optane")
    probe_hook = next(hook for hook in HOOKS if hook.name == "characterize_model")
    assert optane.characterize_model is originals[probe_hook]


def test_wrappers_are_removed_when_the_run_raises():
    with pytest.raises(RuntimeError):
        with tracing(Tracer()):
            assert installed_wrappers()
            raise RuntimeError("experiment failed")
    assert installed_wrappers() == []


def test_regeneration_refuses_an_active_result_cache(tmp_path):
    from repro.runner import cache

    cache.activate(cache.ResultCache(tmp_path / "cache"))
    try:
        with pytest.raises(RuntimeError, match="not be cold"):
            regenerate([_entry("fig2")], trace=False)
    finally:
        cache.deactivate()


def test_benchmark_json_lists_the_metrics_the_run_prints():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()

