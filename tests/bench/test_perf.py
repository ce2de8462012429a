"""The perf-bench harness: registry, timing contract, payload schema."""

from __future__ import annotations

import time

import pytest

from repro.bench import perf
from repro.errors import BenchmarkError, ConfigurationError
from repro.experiments.base import ExperimentResult


def _constant_spec(name="t.constant", payload="same", variants=("default",)):
    def make():
        def work(variant):
            return payload

        def summarize(result):
            return {"digest": result}

        return work, summarize

    return perf.BenchSpec(name=name, tags=("t",), make=make, variants=variants)


class TestRunBench:
    def test_single_variant_has_no_speedup(self):
        entry = perf.run_bench(_constant_spec())
        assert list(entry["times_s"]) == ["default"]
        assert entry["meta"]["digests_match"] is True
        assert "speedup" not in entry

    def test_two_variants_report_first_over_second(self):
        def make():
            def work(variant):
                if variant == "slow":
                    time.sleep(0.02)
                return "same"

            def summarize(result):
                return {"digest": result}

            return work, summarize

        spec = perf.BenchSpec(
            name="t.pair", tags=(), make=make, variants=("slow", "fast")
        )
        entry = perf.run_bench(spec)
        assert list(entry["times_s"]) == ["slow", "fast"]
        assert entry["speedup"] == (
            entry["times_s"]["slow"] / entry["times_s"]["fast"]
        )
        assert entry["speedup"] > 1.0

    def test_variants_run_in_declaration_order_per_repeat(self):
        calls = []

        def make():
            def work(variant):
                calls.append(variant)
                return "same"

            def summarize(result):
                return {"digest": result}

            return work, summarize

        spec = perf.BenchSpec(
            name="t.order", tags=(), make=make, variants=("cold", "warm")
        )
        perf.run_bench(spec, repeat=2)
        assert calls == ["cold", "cold", "warm", "warm"]

    def test_digest_mismatch_raises(self):
        def make():
            def work(variant):
                return variant  # variant-dependent result: a real bug

            def summarize(result):
                return {"digest": result}

            return work, summarize

        spec = perf.BenchSpec(
            name="t.mismatch", tags=(), make=make, variants=("a", "b")
        )
        with pytest.raises(BenchmarkError, match="disagree"):
            perf.run_bench(spec)

    def test_rejects_bad_repeat(self):
        with pytest.raises(ConfigurationError):
            perf.run_bench(_constant_spec(), repeat=0)


class TestRegistry:
    def test_duplicate_registration_rejected(self):
        name = "t.duplicate"
        perf.register(name, "t")(lambda: None)
        try:
            with pytest.raises(ConfigurationError, match="duplicate"):
                perf.register(name)(lambda: None)
        finally:
            del perf._REGISTRY[name]

    def test_bench_names_filters_by_substring_and_tag(self):
        names = perf.bench_names()
        assert "curves.characterize_fixed_latency" in names
        assert "experiment.fig2" in names
        assert perf.bench_names("curves") == [
            name
            for name in names
            if "curves" in name or "curves" in perf._REGISTRY[name].tags
        ]
        assert "experiment.fig10" in perf.bench_names("fig10")

    def test_run_benches_rejects_empty_filter(self):
        with pytest.raises(ConfigurationError, match="no benches match"):
            perf.run_benches(filter="no-such-bench")

    def test_experiment_bench_scale_override(self):
        spec = perf.experiment_bench("fig17", scale=0.5)
        work, summarize = spec.make()
        result = work(*spec.variants)
        meta = summarize(result)
        assert meta["scale"] == 0.5
        assert meta["rows"] == len(result.rows)


class TestPayload:
    def test_write_payload_round_trips(self, tmp_path):
        import json

        payload = {
            perf.FORMAT_KEY: perf.FORMAT_VERSION,
            "benches": [perf.run_bench(_constant_spec())],
        }
        out = tmp_path / "bench.json"
        perf.write_payload(payload, out)
        again = json.loads(out.read_text())
        assert again[perf.FORMAT_KEY] == perf.FORMAT_VERSION
        assert again["benches"][0]["name"] == "t.constant"

    def test_min_speedup_skips_single_variant_benches(self):
        payload = {
            "benches": [
                {"speedup": 12.0, "tags": ["checks"]},
                {"speedup": 3.0, "tags": ["checks"]},
                {"tags": ["curves"]},  # no speedup: single-variant entry
            ]
        }
        assert perf.min_speedup(payload) == 3.0
        assert perf.min_speedup({"benches": [{"tags": ["curves"]}]}) is None
        assert perf.min_speedup({"benches": []}) is None

    def test_only_selfcheck_declares_variants(self):
        multi = {
            name: perf._REGISTRY[name].variants
            for name in perf.bench_names()
            if perf._REGISTRY[name].variants != perf.DEFAULT_VARIANTS
        }
        assert multi == {"checks.selfcheck": ("cold", "warm")}


class TestDeterministicDigest:
    def _result(self, wall_time):
        result = ExperimentResult(
            experiment_id="fig11",
            title="t",
            columns=["model", "wall_time_s"],
        )
        result.add(model="fixed", wall_time_s=wall_time)
        result.note(f"wall time {wall_time:.2f}s")
        return result

    def test_ignores_declared_wall_time_columns_and_notes(self):
        assert perf.deterministic_digest(
            self._result(1.0)
        ) == perf.deterministic_digest(self._result(2.0))

    def test_plain_digest_for_other_experiments(self):
        result = ExperimentResult(
            experiment_id="fig2", title="t", columns=["x"]
        )
        result.add(x=1.0)
        assert perf.deterministic_digest(result) == result.digest()
