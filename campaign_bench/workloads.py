"""The benchmark's workloads: which grid each one builds and which CLI
commands it times.

Every workload uses N=18 (the paper's size) with ``t_max`` unset, so it
resolves to floor(2^18 / 10) = 26214, and the ``ExperimentConfig`` defaults
for pop_size, pgm_size, sample_size, max_parents and epsilon.  The master
seed is the benchmark's ``--seed``; it fixes every instance and every run
stream, so one seed always yields the same campaign.

A round of a workload is its measured commands, each one CLI call through
``mnkbench.cli.main``, with a set-up (``gen`` into a fresh directory) before
each of them and after the last; the campaign runs in the first set-up's
directory, and the set-up time is the median over all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

N_VARS = 18


@dataclass(frozen=True)
class Workload:
    name: str
    m_values: tuple[int, ...]
    k_values: tuple[int, ...]
    runs_per_instance: int
    commands: tuple[tuple[str, ...], ...]
    # which (instance, run) pairs the checks re-run directly: "each" is one
    # pair per algorithm (a successful one where there is one), "alternate"
    # one pair of the algorithm picked by the seed's parity, "none" none
    reproduce: str

    def config(self, seed: int, output_dir: str) -> dict:
        return {
            "master_seed": seed,
            "n_vars": N_VARS,
            "m_values": list(self.m_values),
            "k_values": list(self.k_values),
            "landscapes_per_cell": 1,
            "runs_per_instance": self.runs_per_instance,
            "output_dir": output_dir,
        }


REPORT = ("report", "--censored-mode", "impute_tmax")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="search-few",
            m_values=(2, 3),
            k_values=(2, 6, 10),
            runs_per_instance=2,
            commands=(("enumerate",), ("run", "mboa"), ("run", "nsga3"), REPORT),
            reproduce="each",
        ),
        Workload(
            name="search-many",
            m_values=(5,),
            k_values=(4, 8),
            # every run is censored at t_max, so each costs the same; one run
            # per instance keeps the round within the time a run may take
            runs_per_instance=1,
            commands=(("enumerate",), ("run", "mboa"), ("run", "nsga3")),
            reproduce="alternate",
        ),
        Workload(
            name="offline",
            m_values=(2, 3, 5),
            k_values=(4,),
            runs_per_instance=1,
            commands=(("enumerate",), ("features",)),
            reproduce="none",
        ),
    )
}
