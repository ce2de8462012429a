"""The benchmark's workloads: fixed lists of registered experiments.

Each entry is one ``Scenario.for_experiment(id, scale, options).run()``
call, the seam ``repro run`` uses. Scales are chosen so one cold
regeneration of a list takes a few seconds to about twenty on a 2-core
x86 host; options only ever select which part of an experiment runs,
never an engine or other program knob.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Entry:
    """One experiment run of a workload."""

    experiment_id: str
    scale: float = 1.0
    options: tuple[tuple[str, str], ...] = ()
    #: Report this entry's own wall time (long enough to time alone).
    timed: bool = True

    @property
    def label(self) -> str:
        """Short unique name, e.g. ``wsweep-plru``."""
        return "-".join([self.experiment_id, *(value for _, value in self.options)])

    @property
    def key(self) -> str:
        """Oracle key: experiment, scale and options, e.g. ``wsweep@2;policy=lru``."""
        key = f"{self.experiment_id}@{self.scale:g}"
        if self.options:
            key += ";" + ",".join(f"{name}={value}" for name, value in self.options)
        return key


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    entries: tuple[Entry, ...]


def _policies(experiment_id: str, scale: float) -> tuple[Entry, ...]:
    return tuple(
        Entry(experiment_id, scale, (("policy", policy),))
        for policy in ("lru", "plru", "random")
    )


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "closed_loop",
            "fig10's loop: characterize DDR4, DDR5 and HBM2 through the full "
            "CPU model, then drive and characterize the Mess simulator",
            tuple(
                Entry("fig10", 0.1, (("memories", memory),))
                for memory in ("ddr4", "ddr5", "hbm2")
            ),
        ),
        Workload(
            "model_probe",
            "memory models probed directly, no CPU or caches (fig4-fig7), "
            "plus the analytic curve and profiling experiments",
            tuple(
                Entry(experiment_id, timed=experiment_id in ("fig4", "fig5", "fig6"))
                for experiment_id in (
                    "table1",
                    "fig2",
                    "fig3",
                    "fig4",
                    "fig5",
                    "fig6",
                    "fig7",
                    "fig15",
                    "fig16",
                    "fig17",
                    "fig18",
                    "optane",
                )
            ),
        ),
        Workload(
            "cache_policies",
            "the cache hierarchy under LRU, PLRU and seeded-random "
            "replacement, small geometries and stride thrash",
            _policies("wsweep", 2.0) + _policies("thrash", 2.0)
            + (Entry("policydelta", 2.0),),
        ),
    )
}
