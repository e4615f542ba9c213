"""The benchmark's workloads and the checks on their outputs.

Each workload is a closed loop of requests: ``unit(i)`` runs request ``i`` to
completion and returns (trials run, result); the next request starts only
after the previous one has returned. Inputs depend only on the benchmark seed
and the request index. The library is reached through ``uavsense.<name>``
looked up at call time, so the tracer's wrappers see every call.

Checks are plain functions of the outputs so that tests can feed them
corrupted results. They run outside the timed region.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

import uavsense as us


def derived_seed(seed: int, index: int) -> int:
    """A 64-bit master seed for request ``index`` under the benchmark seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, dtype=np.uint64)[0])


def pair_counts(config) -> tuple[int, int]:
    """(transmitter/listener pairs, ground terms per trial) from classify_cells.

    A ground term is one (clutter cell, intended cell) product of one pair, so
    a trial evaluates the sum over pairs of n_q * n_p of them.
    """
    grid = us.build_grid(config)
    deployment = us.deploy_uavs(config, grid)
    sets = [us.classify_cells(config, u, grid, deployment) for u in range(config.uav_count)]
    listeners = config.uav_count - 1
    active = [s for s in sets if len(s.intended)]
    terms = sum(len(s.illuminated) * len(s.intended) for s in active)
    return len(active) * listeners, terms * listeners


# --- checks -----------------------------------------------------------------


def check_batch(stats: dict, trials: int) -> bool:
    """Both fusions report `trials` trials and hit counts rising with delta."""
    if set(stats) != {"avg", "prenorm"}:
        return False
    for st in stats.values():
        hits = list(st.hits)
        if st.trials != trials or hits != sorted(hits) or not (0 <= hits[0] and hits[-1] <= trials):
            return False
    return True


def check_same_hits(first: dict, again: dict) -> bool:
    """A repeated seed gives identical hits for every fusion."""
    return {k: v.hits for k, v in first.items()} == {k: v.hits for k, v in again.items()}


def check_criterion_5(batches: list[dict]) -> bool:
    """Acceptance criterion 5 on the pooled avg-fusion hits: P_d(1) >= 0.95, P_d(2) >= P_d(1)."""
    trials = sum(b["avg"].trials for b in batches)
    hits = np.sum([b["avg"].hits for b in batches], axis=0)
    return hits[1] >= 0.95 * trials and hits[2] >= hits[1]


def check_sweep(rows: list, errors: list, spec) -> bool:
    """No sweep point failed and every (value, sigma, fusion, delta) row is present."""
    expected = len(spec.values) * len(spec.sigma_g_dbsm) * len(spec.fusions) * len(spec.deltas)
    return not errors and len(rows) == expected


def check_maps_match(reference, fast, rtol: float = 1e-9) -> bool:
    """Noiseless reference-path local maps equal the fast path's to `rtol`."""
    if len(reference.local_maps) != len(fast.local_maps):
        return False
    for ref_map, fast_map in zip(reference.local_maps, fast.local_maps):
        a, b = ref_map.values, fast_map.values
        finite = np.isfinite(a)
        if not np.array_equal(finite, np.isfinite(b)):
            return False
        if not np.allclose(a[finite], b[finite], rtol=rtol, atol=0.0):
            return False
    return True


def check_same_results(workload, first: list, again: list) -> bool:
    """Two runs of the same requests gave the same outputs."""
    return len(first) == len(again) and all(workload.same(a, b) for a, b in zip(first, again))


# --- workloads --------------------------------------------------------------


class McDefaults:
    """Default scenario, Capon, fast path, noise on, both fusions; tables built once."""

    name = "mc_defaults"
    setup_repeats = 3
    batch_trials = 50

    def __init__(self, seed: int):
        self.seed = seed
        self.config = us.ScenarioConfig(trials=self.batch_trials, master_seed=derived_seed(seed, 0))
        self.options = us.RunOptions(beamformer="capon", fast_path=True, noise=True)
        self.tables = None

    def trial_configs(self) -> list:
        return [(self.config, self.batch_trials)]

    def setup(self) -> None:
        self.tables = us.build_tables(self.config, self.options)

    def unit(self, i: int):
        config = replace(self.config, master_seed=derived_seed(self.seed, i))
        stats = us.run_monte_carlo_all_fusions(config, self.options, workers=1, tables=self.tables)
        return self.batch_trials, stats

    same = staticmethod(check_same_hits)

    def checks(self, results: list) -> list[tuple[str, bool]]:
        out = [(f"batch {i} hit counts", check_batch(r, self.batch_trials)) for i, r in enumerate(results)]
        _, again = self.unit(0)
        out.append(("batch 0 repeated gives identical hits", check_same_hits(results[0], again)))
        out.append(("criterion 5 on pooled hits", check_criterion_5(results)))
        return out


class SweepLs:
    """fig6 antennas axis stopped at 8, LS only, few trials per point."""

    name = "sweep_ls"
    setup_repeats = 0  # the table builds happen inside each sweep
    point_trials = 20
    spec = us.SweepSpec(
        parameter="antennas",
        values=(4.0, 6.0, 8.0),
        beamformers=("ls",),
        fusions=("avg", "prenorm"),
        sigma_g_dbsm=(-30.0, -10.0),
        deltas=(0,),
    )

    def __init__(self, seed: int):
        self.seed = seed
        self.config = us.ScenarioConfig(trials=self.point_trials, master_seed=derived_seed(seed, 0))
        self.options = us.RunOptions(beamformer="ls")

    def trial_configs(self) -> list:
        # Mirrors sweep()'s antennas axis: the derived altitude follows array_side.
        sigmas = len(self.spec.sigma_g_dbsm)
        return [(replace(self.config, array_side=int(v)), self.point_trials * sigmas) for v in self.spec.values]

    def setup(self) -> None:
        pass

    def unit(self, i: int):
        config = replace(self.config, master_seed=derived_seed(self.seed, i))
        rows, errors = us.sweep(self.spec, config, self.options, workers=1)
        return sum(trials for _, trials in self.trial_configs()), (rows, errors)

    @staticmethod
    def same(a, b) -> bool:
        return a == b

    def checks(self, results: list) -> list[tuple[str, bool]]:
        return [(f"sweep {i} rows", check_sweep(rows, errors, self.spec)) for i, (rows, errors) in enumerate(results)]


class ReferencePath:
    """Default scenario on the frame-level reference path, noise off."""

    name = "reference_path"
    setup_repeats = 3

    def __init__(self, seed: int):
        self.config = us.ScenarioConfig(trials=1, master_seed=derived_seed(seed, 0))
        self.options = us.RunOptions(beamformer="capon", fast_path=False, noise=False)
        self.tables = None

    def trial_configs(self) -> list:
        return [(self.config, 1)]

    def setup(self) -> None:
        self.tables = us.build_tables(self.config, self.options)

    def unit(self, i: int):
        return 1, us.run_trial(self.config, i, tables=self.tables, collect_maps=True)

    @staticmethod
    def same(a, b) -> bool:
        return check_maps_match(a, b, rtol=0.0)

    def checks(self, results: list) -> list[tuple[str, bool]]:
        fast_tables = us.build_tables(self.config, replace(self.options, fast_path=True))
        return [
            (
                f"trial {i} maps equal the fast path",
                check_maps_match(outcome, us.run_trial(self.config, i, tables=fast_tables, collect_maps=True)),
            )
            for i, outcome in enumerate(results)
        ]


WORKLOADS = {w.name: w for w in (McDefaults, SweepLs, ReferencePath)}
