"""End-to-end configuration studies: enumerate, evaluate, rank, report.

A study takes a device layout plus heat loads, produces a population of
candidate architectures under a chosen strategy, solves the optimal flow
control problem for each one (optionally across a worker pool), and ranks
the population by thermal endurance.  All artifacts are flat files so runs
diff cleanly and rerun byte-identically under fixed seeds.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

# unused here; kept while the benchmark's tracing patches study.build_flow_map
from .config import build_flow_map, parse_notation  # noqa: F401
from .enumeration import (
    GraphPopulation,
    enumerate_junction_placements,
    enumerate_single_split,
    generate_level_graphs,
    level_graph_at,
    level_graph_count,
)
from .oloc import OlocOptions, evaluate_endurance
from .spatial import DeviceLayout, build_supernode_tree
from .thermal import PhysicsParams, build_model

STRATEGIES = ("single_split", "spatial_junctions", "enumerated_junctions")
WORKERS_ENV = "THERMOFORGE_WORKERS"


class StudyError(ValueError):
    pass


@dataclass(frozen=True)
class StudySpec:
    """Inputs of one study run."""

    layout: DeviceLayout
    loads_w: dict  # device label -> W
    strategy: str = "spatial_junctions"
    num_levels: int = 1
    junctions: int | None = None       # enumerated_junctions only
    config_num: int | None = None      # evaluate a single population member
    physics: PhysicsParams = field(default_factory=PhysicsParams)
    oloc: OlocOptions = field(default_factory=OlocOptions)
    parallelism: int = 1
    out_dir: str | None = None
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise StudyError(f"strategy must be one of {STRATEGIES}")
        n = self.layout.device_count
        missing = [lab for lab in range(1, n + 1) if lab not in self.loads_w]
        if missing:
            raise StudyError(f"loads missing for device label(s) {missing}")
        if self.strategy == "enumerated_junctions":
            if self.junctions is None:
                raise StudyError("enumerated_junctions needs a junction count")
            if not 1 <= self.junctions <= n:
                raise StudyError(f"junctions must be between 1 and {n} (the device "
                                 f"count), got {self.junctions}")
        if self.config_num is not None and self.config_num < 0:
            raise StudyError(f"config_num must be non-negative, got {self.config_num}")

    @classmethod
    def from_json(cls, text: str, base_dir: str | Path = ".") -> "StudySpec":
        obj = json.loads(text)
        base = Path(base_dir)
        if "layout_file" in obj:
            layout = DeviceLayout.from_json((base / obj["layout_file"]).read_text())
        else:
            lay = obj["layout"]
            loads_kw = lay.get("heat_loads_kw")
            layout = DeviceLayout(
                positions=np.asarray(lay["positions"], dtype=float),
                heat_loads_w=None if loads_kw is None
                else np.asarray(loads_kw, dtype=float) * 1000.0,
            )
        if "loads_kw" in obj:
            loads_w = {i + 1: 1000.0 * float(v) for i, v in enumerate(obj["loads_kw"])}
        elif layout.heat_loads_w is not None:
            loads_w = layout.loads_by_label()
        else:
            raise StudyError("no heat loads: provide loads_kw or layout heat_loads_kw")
        return cls(
            layout=layout,
            loads_w=loads_w,
            strategy=obj.get("strategy", "spatial_junctions"),
            num_levels=int(obj.get("num_levels", 1)),
            junctions=obj.get("junctions"),
            config_num=obj.get("config_num"),
            physics=PhysicsParams().with_overrides(obj.get("physics")),
            oloc=OlocOptions().with_overrides(obj.get("oloc")),
            parallelism=int(obj.get("parallelism", 1)),
            out_dir=obj.get("out_dir"),
            seed=int(obj.get("seed", 0)),
        )


@dataclass(frozen=True)
class StudyEntry:
    notation: str
    t_end: float
    objective: float
    penalty: float
    status: str
    success: bool
    wall_arrival_spread: float
    config_index: int
    verified_t_end: float = float("nan")
    verification_gap: float = float("nan")


@dataclass(frozen=True)
class RankedPopulation:
    """Successful entries sorted by descending endurance, plus failures."""

    entries: tuple[StudyEntry, ...]
    percentiles: tuple[float, ...]
    failures: tuple[StudyEntry, ...] = ()

    @property
    def best(self) -> StudyEntry:
        return self.entries[0]

    @property
    def worst(self) -> StudyEntry:
        return self.entries[-1]


def percentile_scores(t_ends) -> list[float]:
    """Percent of entries strictly below each value; a lone entry scores 0
    (the strict-less count over an empty comparison set)."""
    t_ends = list(t_ends)
    n = len(t_ends)
    if n == 1:
        return [0.0]
    return [100.0 * sum(1 for o in t_ends if o < t) / (n - 1) for t in t_ends]


def rank(entries) -> RankedPopulation:
    """Stable descending sort by endurance (ties by notation) with percentiles."""
    ok = [e for e in entries if e.success]
    failed = tuple(sorted((e for e in entries if not e.success),
                          key=lambda e: e.notation))
    if not ok:
        raise StudyError("no successful solves to rank")
    ok.sort(key=lambda e: (-e.t_end, e.notation))
    pct = percentile_scores([e.t_end for e in ok])
    return RankedPopulation(entries=tuple(ok), percentiles=tuple(pct), failures=failed)


def build_population(spec: StudySpec) -> GraphPopulation:
    n = spec.layout.device_count
    if spec.strategy == "single_split":
        pop = enumerate_single_split(n, cap=max(8, n))
    elif spec.strategy == "enumerated_junctions":
        pop = enumerate_junction_placements(n, spec.junctions, cap=max(8, n))
    else:
        tree = build_supernode_tree(spec.layout, spec.num_levels, seed=spec.seed)
        level = min(spec.num_levels, tree.achieved_levels)
        if spec.config_num is not None:
            size = level_graph_count(tree, level)
            _check_config_num(spec.config_num, size)
            g = level_graph_at(tree, level, spec.config_num)
            return GraphPopulation(
                (g,),
                {"strategy": spec.strategy, "level": level,
                 "config_num": spec.config_num, "population_size": size},
            )
        pop = generate_level_graphs(tree, level)
    if spec.config_num is not None:
        _check_config_num(spec.config_num, len(pop))
        g = pop[spec.config_num]
        return GraphPopulation((g,), {**pop.provenance, "config_num": spec.config_num})
    return pop


def _check_config_num(config_num: int, size: int) -> None:
    if config_num >= size:
        raise StudyError(f"config_num {config_num} is out of range for a "
                         f"population of {size}")


def _evaluate_worker(args) -> dict:
    """Solve one configuration (safe to run in a separate process)."""
    index, notation, loads_w, params_dict, oloc_dict, out_dir = args
    params = PhysicsParams().with_overrides(params_dict)
    options = OlocOptions().with_overrides(oloc_dict)
    model = build_model(parse_notation(notation), loads_w, params)
    try:
        sol = evaluate_endurance(model, options)
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        # numerical failures (bad formulation, singular factor, stiff
        # integration, overflow) are recorded and never abort the study;
        # code defects such as TypeError or KeyError propagate
        return {
            "index": index, "notation": notation, "t_end": float("nan"),
            "objective": float("nan"), "penalty": float("nan"),
            "status": f"error: {exc}", "success": False,
            "wall_arrival_spread": float("nan"),
            "verified_t_end": float("nan"), "verification_gap": float("nan"),
        }
    if out_dir is not None:
        sol.write_trajectory_csv(Path(out_dir) / f"cfg_{index:03d}.csv")
    return {
        "index": index, "notation": notation, "t_end": sol.t_end,
        "objective": sol.objective, "penalty": sol.penalty_value,
        "status": sol.status, "success": sol.success,
        "wall_arrival_spread": sol.wall_arrival_spread,
        "verified_t_end": sol.verified_t_end, "verification_gap": sol.verification_gap,
    }


def _worker_count(spec: StudySpec) -> int:
    env = os.environ.get(WORKERS_ENV)
    if env:
        return max(1, int(env))
    return max(1, spec.parallelism)


def run_study(spec: StudySpec) -> RankedPopulation:
    """Generate the population, evaluate every member, rank, and report.

    Individual solve failures are recorded with their status and excluded
    from the percentile ranking; they never abort the study.
    """
    population = build_population(spec)
    out_dir = Path(spec.out_dir) if spec.out_dir else None
    solutions_dir = None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        solutions_dir = out_dir / "solutions"
        solutions_dir.mkdir(exist_ok=True)
        (out_dir / "population.json").write_text(
            json.dumps(list(population.notations()), indent=2) + "\n"
        )

    params_dict = json.loads(spec.physics.to_json())
    oloc_dict = {f.name: getattr(spec.oloc, f.name) for f in fields(spec.oloc)}
    jobs = [
        (i, notation, spec.loads_w, params_dict, oloc_dict,
         str(solutions_dir) if solutions_dir else None)
        for i, notation in enumerate(population.notations())
    ]
    workers = _worker_count(spec)
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(_evaluate_worker, jobs))
    else:
        raw = [_evaluate_worker(j) for j in jobs]
    raw.sort(key=lambda r: r["index"])  # deterministic merge
    entries = [
        StudyEntry(
            notation=r["notation"], t_end=r["t_end"], objective=r["objective"],
            penalty=r["penalty"], status=r["status"], success=r["success"],
            wall_arrival_spread=r["wall_arrival_spread"], config_index=r["index"],
            verified_t_end=r["verified_t_end"], verification_gap=r["verification_gap"],
        )
        for r in raw
    ]
    ranked = rank(entries)
    if out_dir is not None:
        report(ranked, out_dir)
    return ranked


def report(population: RankedPopulation, out_dir) -> None:
    """Write ranking.csv, percentile.csv, failures.csv, and a text summary."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "ranking.csv", "w") as fh:
        fh.write("rank,notation,t_end_s,objective,penalty,status,"
                 "verified_t_end_s,verification_gap\n")
        for i, e in enumerate(population.entries, start=1):
            # the gap at full precision, so that one close to refine_rtol
            # cannot round across it
            fh.write(f"{i},\"{e.notation}\",{e.t_end:.6f},{e.objective:.6f},"
                     f"{e.penalty:.6f},{e.status},{e.verified_t_end:.6f},"
                     f"{float(e.verification_gap)!r}\n")
    with open(out_dir / "percentile.csv", "w") as fh:
        fh.write("notation,t_end_s,percentile\n")
        for e, p in zip(population.entries, population.percentiles):
            fh.write(f"\"{e.notation}\",{e.t_end:.6f},{p:.6f}\n")
    if population.failures:
        # a failure's status carries arbitrary exception text
        with open(out_dir / "failures.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["notation", "status"])
            writer.writerows((e.notation, e.status) for e in population.failures)
    best, worst = population.best, population.worst
    lines = [
        f"configurations ranked: {len(population.entries)}",
        f"failures: {len(population.failures)}",
        f"best:  {best.notation}  t_end = {best.t_end:.3f} s",
        f"worst: {worst.notation}  t_end = {worst.t_end:.3f} s",
    ]
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n")
