"""The perf-bench registry: tracked wall-time trajectories.

One named bench is a workload timed best-of-``repeat``. A bench may
declare several named *variants* — alternative ways of computing the
same result (``checks.selfcheck`` runs ``cold`` and then ``warm``
against the analysis cache); the harness times each, checks their
result digests agree, and, for a two-variant bench, reports the first
variant's time over the second's as ``speedup``. Every paper
experiment is registered here under ``experiment.<id>``, beside the
component benches tagged ``curves`` / ``probe`` / ``hierarchy`` /
``checks`` / ``serve``.

``repro bench --filter curves,hierarchy --json BENCH_curves.json`` is
the CI smoke invocation; the committed ``BENCH_*.json`` payloads are
the perf trajectories of record.

Output schema (``--json``)::

    {
      "repro_bench": 2,
      "benches": [
        {
          "name": "checks.selfcheck",
          "tags": ["checks"],
          "times_s": {"cold": 1.8, "warm": 0.08},
          "speedup": 22.5,
          "meta": {"digest": "...", "digests_match": true, ...}
        }
      ]
    }

``meta.digests_match`` certifies the variants produced bit-identical
results for this workload.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ..errors import BenchmarkError, ConfigurationError
from ..specs import spec_digest

#: Format marker of the ``--json`` payload.
FORMAT_KEY = "repro_bench"

#: Current payload version; bump on incompatible layout change.
FORMAT_VERSION = 2

#: Variant list of a bench that declares none.
DEFAULT_VARIANTS = ("default",)


@dataclass(frozen=True)
class BenchSpec:
    """One registered perf bench.

    ``make()`` performs the (untimed) setup and returns a pair
    ``(work, summarize)``: ``work(variant)`` runs the workload as the
    named variant and returns its raw result; ``summarize`` turns that
    result into a meta dict containing a ``"digest"``, so the harness
    can certify that the variants agree. Only ``work`` is timed —
    digesting a large result must not pollute the measurement.
    Variants run in declaration order.
    """

    name: str
    tags: tuple[str, ...]
    make: Callable[[], tuple[Callable[[str], object], Callable[[object], dict]]]
    variants: tuple[str, ...] = DEFAULT_VARIANTS


_REGISTRY: dict[str, BenchSpec] = {}


def register(
    name: str, *tags: str, variants: tuple[str, ...] = DEFAULT_VARIANTS
) -> Callable:
    """Decorator registering a bench factory under ``name``."""

    def decorator(make: Callable[[], Callable[[str], dict]]):
        if name in _REGISTRY:
            raise ConfigurationError(f"duplicate bench name {name!r}")
        _REGISTRY[name] = BenchSpec(
            name=name, tags=tuple(tags), make=make, variants=variants
        )
        return make

    return decorator


def bench_names(filter: str | None = None) -> list[str]:
    """Registered bench names, optionally filtered.

    ``filter`` is a comma-separated list of terms; a bench is kept when
    any term is a substring of its name or exactly one of its tags
    (``"curves,hierarchy"`` unions two families).
    """
    _register_experiment_benches()
    names = sorted(_REGISTRY)
    if filter:
        terms = [term for term in filter.split(",") if term]
        names = [
            name
            for name in names
            if any(
                term in name or term in _REGISTRY[name].tags
                for term in terms
            )
        ]
    return names


def run_bench(spec: BenchSpec, repeat: int = 1) -> dict:
    """Time every variant of one bench; returns its payload entry."""
    if repeat < 1:
        raise ConfigurationError(f"repeat must be >= 1, got {repeat}")
    work, summarize = spec.make()
    times: dict[str, float] = {}
    metas: dict[str, dict] = {}
    for variant in spec.variants:
        best = float("inf")
        for _ in range(repeat):
            start = time.perf_counter()
            result = work(variant)
            best = min(best, time.perf_counter() - start)
            metas[variant] = summarize(result)
        times[variant] = best
    digests = {meta.get("digest") for meta in metas.values()}
    meta = dict(next(iter(metas.values())))
    meta["digests_match"] = len(digests) == 1
    if not meta["digests_match"]:
        raise BenchmarkError(
            f"bench {spec.name!r}: variants disagree: "
            + ", ".join(
                f"{variant}={m.get('digest')}" for variant, m in metas.items()
            )
        )
    entry = {
        "name": spec.name,
        "tags": list(spec.tags),
        "times_s": times,
        "meta": meta,
    }
    if len(spec.variants) == 2:
        first, second = (times[variant] for variant in spec.variants)
        if second > 0:
            entry["speedup"] = first / second
    return entry


def run_benches(
    filter: str | None = None,
    repeat: int = 1,
    progress: Callable[[dict], None] | None = None,
) -> dict:
    """Run every (filtered) bench; returns the full JSON payload."""
    names = bench_names(filter)
    if not names:
        raise ConfigurationError(
            f"no benches match {filter!r}; available: {bench_names()}"
        )
    benches = []
    for name in names:
        entry = run_bench(_REGISTRY[name], repeat=repeat)
        benches.append(entry)
        if progress is not None:
            progress(entry)
    return {FORMAT_KEY: FORMAT_VERSION, "benches": benches}


def write_payload(payload: dict, path: str | Path) -> None:
    """Write a bench payload as stable, diffable JSON."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def min_speedup(payload: dict) -> float | None:
    """Smallest speedup among a payload's two-variant benches."""
    speedups = [
        bench["speedup"]
        for bench in payload.get("benches", ())
        if "speedup" in bench
    ]
    return min(speedups) if speedups else None


# ----------------------------------------------------------------------
# Component benches: the model inner loops
# ----------------------------------------------------------------------


def _family_digest(family) -> str:
    return spec_digest(family.to_dict())


def _probe_bench(model_factory: Callable, theoretical: float | None):
    from .model_probe import ProbeConfig, characterize_model

    # the experiments' trace-probe configuration (fig. 5): a deep
    # outstanding-request budget, so sub-saturation points never stall
    config = ProbeConfig(
        gaps_ns=(0.12, 0.18, 0.3, 0.45, 0.7, 1.1, 1.8, 3.0, 6.0, 15.0, 45.0),
        ops_per_point=5000,
        warmup_ops=800,
        max_outstanding=1024,
    )

    def work(variant: str):
        return characterize_model(
            model_factory,
            config,
            name="bench",
            theoretical_bandwidth_gbps=theoretical,
        )

    def summarize(fam) -> dict:
        return {"digest": _family_digest(fam)}

    return work, summarize


@register("curves.characterize_fixed_latency", "curves", "probe")
def _bench_characterize_fixed():
    """Model-probe characterization of the constant-latency model."""
    from ..memmodels.fixed import FixedLatencyModel

    return _probe_bench(lambda: FixedLatencyModel(89.0), None)


@register("probe.characterize_ramulator", "probe")
def _bench_characterize_ramulator():
    """Model-probe characterization of the Ramulator analog."""
    from ..memmodels.flawed import RamulatorAnalog

    return _probe_bench(lambda: RamulatorAnalog(theoretical_gbps=128.0), 128.0)


@register("probe.characterize_dramsim3", "probe")
def _bench_characterize_dramsim3():
    """Model-probe characterization of the DRAMsim3 analog."""
    from ..memmodels.flawed import DRAMsim3Analog

    return _probe_bench(lambda: DRAMsim3Analog(theoretical_gbps=128.0), 128.0)


@register("hierarchy.visit", "hierarchy", "cpu")
def _bench_hierarchy_visit():
    """Cache-hierarchy visits across the replacement-policy registry.

    A deterministic mixed load/store trace (streaming writes + a
    seeded scatter) driven through one :class:`MemoryHierarchy` per
    registered replacement policy. The walk is the scalar hot path of
    every characterize run; this bench pins its throughput trajectory
    and digests the hit/miss/writeback counters.
    """
    from ..cpu.cache import CacheConfig, HierarchyConfig
    from ..cpu.cachemodel import CacheModelSpec
    from ..cpu.hierarchy import MemoryHierarchy
    from ..cpu.policies import mix64, policy_kinds
    from ..memmodels.fixed import FixedLatencyModel

    geometry = HierarchyConfig(
        l1=CacheConfig(16 * 1024, 4, 1.5),
        l2=CacheConfig(128 * 1024, 8, 5.0),
        l3=CacheConfig(512 * 1024, 16, 18.0),
    )
    accesses = 24_000
    line = 64
    span_lines = 3 * (512 * 1024) // line  # 3x the LLC: eviction pressure

    def work(variant: str) -> dict:
        counters: dict[str, dict] = {}
        for policy in policy_kinds():
            hierarchy = MemoryHierarchy(
                cores=2,
                config=geometry,
                memory=FixedLatencyModel(60.0),
                prefetch_lines=0,
                cache_model=CacheModelSpec(policy=policy),
                policy_seed=1234,
            )
            now = 0.0
            for index in range(accesses):
                if index % 3:
                    # streaming store walk with a thrash-friendly stride
                    address = (index * 7 % span_lines) * line
                    is_store = True
                else:
                    # seeded scatter: the pointer-chase-shaped half
                    address = (mix64(99, index) % span_lines) * line
                    is_store = False
                hierarchy.access(
                    core=index & 1,
                    address=address,
                    is_store=is_store,
                    now_ns=now,
                )
                now += 0.8
            stats = hierarchy.llc.stats
            memory_stats = hierarchy.memory.stats
            counters[policy] = {
                "llc_hits": stats.hits,
                "llc_misses": stats.misses,
                "llc_writebacks": stats.writebacks,
                "llc_clean_evictions": stats.clean_evictions,
                "l1_hits": hierarchy.l1[0].stats.hits,
                "memory_reads": memory_stats.reads,
                "memory_writes": memory_stats.writes,
            }
        return counters

    def summarize(counters: dict) -> dict:
        return {
            "digest": spec_digest(counters),
            "ops": accesses * len(counters),
        }

    return work, summarize


@register("hierarchy.prime", "hierarchy", "cpu")
def _bench_hierarchy_prime():
    """Priming the default LLC, then a store stream through it.

    One fresh default :class:`MemoryHierarchy` per store fraction is
    primed to the write steady state, the way every closed-loop
    measurement point starts, and then takes a fixed streaming-store
    stream whose LLC misses evict the scratch lines. The digest covers
    the LLC counters and the memory writes those evictions produce.
    """
    from ..cpu.cache import HierarchyConfig
    from ..cpu.hierarchy import MemoryHierarchy
    from ..memmodels.fixed import FixedLatencyModel

    fractions = (0.2, 0.4, 0.6, 0.8, 1.0)
    accesses = 20_000
    line = 64

    def work(variant: str) -> dict:
        counters: dict[str, dict] = {}
        for fraction in fractions:
            hierarchy = MemoryHierarchy(
                cores=1,
                config=HierarchyConfig(),
                memory=FixedLatencyModel(60.0),
                prefetch_lines=0,
            )
            hierarchy.prime_write_steady_state(dirty_fraction=fraction)
            for index in range(accesses):
                hierarchy.access(
                    core=0,
                    address=index * line,
                    is_store=True,
                    now_ns=index * 0.8,
                )
            stats = hierarchy.llc.stats
            counters[str(fraction)] = {
                "llc_hits": stats.hits,
                "llc_misses": stats.misses,
                "llc_writebacks": stats.writebacks,
                "llc_clean_evictions": stats.clean_evictions,
                "memory_writes": hierarchy.memory.stats.writes,
            }
        return counters

    def summarize(counters: dict) -> dict:
        return {
            "digest": spec_digest(counters),
            "ops": accesses * len(counters),
        }

    return work, summarize


@register("checks.selfcheck", "checks", variants=("cold", "warm"))
def _bench_checks_selfcheck():
    """The whole-program self-check, cold cache vs warm cache.

    Runs ``analyze_paths`` over the shipped ``repro`` package as two
    variants: ``cold`` clears the analysis cache first (a full parse +
    every rule), ``warm`` reuses it (digest probes plus the always-live
    whole-program pass). The digest covers the bound findings, so the
    variant cross-check certifies that a warm, cache-served analysis
    reports exactly what a cold one does. The speedup is the
    incremental-CI win the committed ``BENCH_checks.json`` floor pins.
    """
    import shutil

    import repro
    from ..checks.cache import AnalysisCache
    from ..checks.driver import analyze_paths

    package_dir = Path(repro.__file__).parent
    cache_root = Path(".repro-cache") / "bench-selfcheck"

    def work(variant: str):
        if variant == "cold":
            shutil.rmtree(cache_root, ignore_errors=True)
        return analyze_paths(
            [package_dir], cache=AnalysisCache(cache_root)
        )

    def summarize(report) -> dict:
        return {
            "digest": spec_digest(
                sorted(
                    (f.path, f.line, f.rule_id, f.message)
                    for f in report.findings
                )
            ),
            "files": report.files_scanned,
            "from_cache": report.files_from_cache,
        }

    return work, summarize


@register("serve.loadgen", "serve")
def _bench_serve_loadgen():
    """The characterization service under a replayable request load.

    Boots an in-process HTTP server on a fresh in-memory backend and
    replays the deterministic loadgen schedule through real sockets —
    miss/coalesce/compute on pass one, cache-serving on pass two. The
    digest covers the served result *rows*. The meta records the
    hit-ratio and p99 trajectories — the serving-path perf numbers
    ``BENCH_serve.json`` tracks.
    """
    from ..serve.loadgen import LoadgenConfig, run_loadgen

    config = dict(
        scenarios=3,
        requests=36,
        clients=6,
        passes=2,
        backend="memory",
        max_inflight=4,
    )

    def work(variant: str):
        return run_loadgen(LoadgenConfig(**config))

    def summarize(report) -> dict:
        final = report["passes"][-1]
        return {
            "digest": spec_digest(report["row_digests"]),
            "requests": sum(p["requests"] for p in report["passes"]),
            "errors": sum(p["errors"] for p in report["passes"]),
            "hit_ratio_trajectory": report["hit_ratio_trajectory"],
            "p50_ms": final["p50_ms"],
            "p99_ms": final["p99_ms"],
            "coalesced": report["passes"][0]["coalesced"],
            "digest_consistent": report["digest_consistent"],
        }

    return work, summarize


# ----------------------------------------------------------------------
# Experiment benches: one per paper table/figure
# ----------------------------------------------------------------------

#: Experiments too heavy to regenerate at full scale per repeat; their
#: benches run scaled down.
_EXPERIMENT_SCALES = {"fig10": 0.4, "fig11": 0.4, "fig13": 0.4}

#: Columns that are genuine wall-clock measurements: two runs of the
#: same code differ on them, so the deterministic digest drops these
#: columns (and the notes, which restate the same numbers as text).
NONDETERMINISTIC_COLUMNS: dict[str, tuple[str, ...]] = {
    "fig11": ("wall_time_s",),
}


def deterministic_digest(result) -> str:
    """``result.digest()`` minus any measured-wall-time content.

    Identical to the plain digest for every experiment without an entry
    in :data:`NONDETERMINISTIC_COLUMNS`.
    """
    dropped = NONDETERMINISTIC_COLUMNS.get(result.experiment_id)
    if not dropped:
        return result.digest()
    payload = result.to_dict()
    payload["rows"] = [
        {key: value for key, value in row.items() if key not in dropped}
        for row in payload["rows"]
    ]
    payload["notes"] = []
    return spec_digest(payload)

_EXPERIMENTS_REGISTERED = False


def _experiment_bench(
    experiment_id: str, scale: float | None = None
) -> Callable:
    def make():
        from ..experiments import common as experiments_common
        from ..experiments.registry import run_experiment
        from ..runner import cache as result_cache

        effective_scale = (
            _EXPERIMENT_SCALES.get(experiment_id, 1.0)
            if scale is None
            else scale
        )

        def work(variant: str):
            # a real regeneration: no disk cache, no family memoization
            # left over from an earlier repeat
            result_cache.deactivate()
            experiments_common._FAMILY_CACHE.clear()
            return run_experiment(experiment_id, scale=effective_scale)

        def summarize(result) -> dict:
            return {
                "digest": deterministic_digest(result),
                "rows": len(result.rows),
                "scale": effective_scale,
            }

        return work, summarize

    return make


def experiment_bench(
    experiment_id: str, scale: float | None = None
) -> BenchSpec:
    """An unregistered :class:`BenchSpec` regenerating one experiment.

    The ``benchmarks/bench_<id>.py`` script shims use this to run the
    exact harness ``repro bench`` runs, but at a caller-chosen ``scale``
    (``None`` keeps the registry's per-experiment default).
    """
    return BenchSpec(
        name=f"experiment.{experiment_id}",
        tags=("experiment", experiment_id),
        make=_experiment_bench(experiment_id, scale),
    )


def _register_experiment_benches() -> None:
    """Register ``experiment.<id>`` benches for every known experiment.

    Deferred: importing the experiment registry pulls in every
    experiment module, which the component benches do not need.
    """
    global _EXPERIMENTS_REGISTERED
    if _EXPERIMENTS_REGISTERED:
        return
    _EXPERIMENTS_REGISTERED = True
    from ..experiments.registry import experiment_ids

    for experiment_id in experiment_ids():
        register(f"experiment.{experiment_id}", "experiment", experiment_id)(
            _experiment_bench(experiment_id)
        )


__all__ = [
    "FORMAT_KEY",
    "FORMAT_VERSION",
    "BenchSpec",
    "NONDETERMINISTIC_COLUMNS",
    "bench_names",
    "deterministic_digest",
    "experiment_bench",
    "min_speedup",
    "register",
    "run_bench",
    "run_benches",
    "write_payload",
]
