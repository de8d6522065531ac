"""End-to-end configuration studies: enumerate, evaluate, rank, report.

A study takes a device layout plus heat loads, produces a population of
candidate architectures under a chosen strategy, solves the optimal flow
control problem for each one (optionally across a worker pool), and ranks
the population by thermal endurance.  Each record is built once and passed
whole: the spec, its frozen physics and solve options in every job, and the
``StudyEntry`` each job returns to ``rank`` and ``report``.  All artifacts
are flat files so runs diff cleanly and rerun byte-identically under fixed
seeds.
"""

from __future__ import annotations

import csv
import json
import os
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

# build_flow_map is unused here; kept while the benchmark's tracing patches it
from .config import build_flow_map, finite, integral, overridden, parse_notation  # noqa: F401
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
        # types before ranges, which would raise TypeError on a string
        for name in ("num_levels", "parallelism", "seed", "junctions", "config_num"):
            value = getattr(self, name)
            if value is None and name in ("junctions", "config_num"):
                continue
            if not integral(value):
                raise StudyError(f"{name} must be an integer, got {value!r}")
        if self.strategy not in STRATEGIES:
            raise StudyError(f"strategy must be one of {STRATEGIES}")
        # a field another strategy reads would be ignored without a word
        if self.num_levels < 1:
            raise StudyError(f"num_levels must be at least 1, got {self.num_levels}")
        if self.num_levels != 1 and self.strategy != "spatial_junctions":
            raise StudyError(f"num_levels applies to spatial_junctions only, not {self.strategy}")
        if self.junctions is not None and self.strategy != "enumerated_junctions":
            raise StudyError(f"junctions applies to enumerated_junctions only, "
                             f"not {self.strategy}")
        n = self.layout.device_count
        labels = self.layout.labels
        missing = [lab for lab in labels if lab not in self.loads_w]
        extra = [lab for lab in self.loads_w if lab not in labels]
        if missing or extra:
            raise StudyError(f"loads must be given for device labels 1..{n} only: "
                             f"missing for {missing}, given for {extra}")
        nonfinite = [lab for lab in labels if not finite(self.loads_w[lab])]
        if nonfinite:
            raise StudyError(f"loads of device label(s) {nonfinite} must be finite reals")
        if self.strategy == "enumerated_junctions":
            if self.junctions is None:
                raise StudyError("enumerated_junctions needs a junction count")
            if not 1 <= self.junctions <= n:
                raise StudyError(f"junctions must be between 1 and {n} (the device "
                                 f"count), got {self.junctions}")
        # a negative seed would fail deep inside k-means
        for name in ("seed", "config_num"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise StudyError(f"{name} must be non-negative, got {value}")
        if self.parallelism < 1:
            raise StudyError(f"parallelism must be at least 1, got {self.parallelism}")
        if not (self.out_dir is None or isinstance(self.out_dir, str)):
            raise StudyError(f"out_dir must be a path string, got {self.out_dir!r}")

    @classmethod
    def from_json(cls, text: str, base_dir: str | Path = ".") -> "StudySpec":
        """Parse a spec onto the field defaults: ``layout`` or ``layout_file``
        (relative to ``base_dir``), ``loads_kw`` (one load in kW per device
        label, required), and otherwise only field names."""
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise StudyError(f"a study spec must be a JSON object, got {obj!r}")
        known = ({f.name for f in fields(cls)} - {"loads_w"}) | {"layout_file", "loads_kw"}
        unknown = sorted(set(obj) - known)
        if unknown:
            raise StudyError(f"unknown study spec keys: {unknown}")
        if "layout" in obj and "layout_file" in obj:
            raise StudyError("a study spec takes layout or layout_file, not both")
        if "layout_file" in obj:
            name = obj.pop("layout_file")
            if not isinstance(name, str):
                raise StudyError(f"layout_file must be a path string, got {name!r}")
            lay = json.loads((Path(base_dir) / name).read_text())
        else:
            lay = obj.pop("layout", {})
        if not isinstance(lay, dict):
            raise StudyError(f"layout must be a JSON object, got {lay!r}")
        try:
            layout = DeviceLayout.from_dict(lay)
        except ValueError as exc:
            raise StudyError(f"layout: {exc}") from None
        loads = obj.pop("loads_kw", None)
        if not (isinstance(loads, list) and len(loads) == layout.device_count
                and all(map(finite, loads))):
            raise StudyError(f"loads_kw must list {layout.device_count} finite real "
                             f"numbers, one per device, got {loads!r}")
        physics = overridden(PhysicsParams(), obj.pop("physics", None), "physics parameters")
        oloc = overridden(OlocOptions(), obj.pop("oloc", None), "OLOC options")
        return cls(layout=layout,
                   loads_w={lab: 1000.0 * kw for lab, kw in zip(layout.labels, loads)},
                   physics=physics, oloc=oloc, **obj)


@dataclass(frozen=True)
class StudyEntry:
    """One configuration's result, built only by ``_evaluate_worker`` and
    consumed whole by ``rank`` and ``report``.  A failed solve keeps the
    NaN defaults and carries its error in ``status``."""

    notation: str
    status: str
    success: bool
    config_index: int
    t_end: float = float("nan")
    objective: float = float("nan")
    penalty: float = float("nan")
    wall_arrival_spread: float = float("nan")
    verified_t_end: float = float("nan")
    verification_gap: float = float("nan")
    # what the solver did; kept out of the report files, which reruns
    # reproduce byte for byte
    constraint_violation: float = float("nan")
    iterations: int = 0
    segments: int = 0


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
    ordered = sorted(t_ends)
    return [100.0 * bisect_left(ordered, t) / (n - 1) for t in t_ends]


def rank(entries) -> RankedPopulation:
    """Stable descending sort by endurance (ties by notation) with
    percentiles; the ranking is empty when every solve failed."""
    ok = [e for e in entries if e.success]
    failed = tuple(sorted((e for e in entries if not e.success),
                          key=lambda e: e.notation))
    ok.sort(key=lambda e: (-e.t_end, e.notation))
    pct = percentile_scores([e.t_end for e in ok])
    return RankedPopulation(entries=tuple(ok), percentiles=tuple(pct), failures=failed)


def build_population(spec: StudySpec) -> GraphPopulation:
    """The spec's population, or with ``config_num`` its one member, whose
    provenance states the population's size."""
    n = spec.layout.device_count
    if spec.strategy == "spatial_junctions":
        tree = build_supernode_tree(spec.layout, spec.num_levels, seed=spec.seed)
        level = min(spec.num_levels, tree.achieved_levels)
        if spec.config_num is None:
            return generate_level_graphs(tree, level)
        size = level_graph_count(tree, level)
        _check_config_num(spec.config_num, size)
        member = level_graph_at(tree, level, spec.config_num)
        provenance = {"strategy": spec.strategy, "level": level}
    else:
        pop = (enumerate_single_split(n) if spec.strategy == "single_split"
               else enumerate_junction_placements(n, spec.junctions))
        if spec.config_num is None:
            return pop
        size = len(pop)
        _check_config_num(spec.config_num, size)
        member, provenance = pop[spec.config_num], pop.provenance
    return GraphPopulation((member,), {**provenance, "config_num": spec.config_num,
                                       "population_size": size})


def _check_config_num(config_num: int, size: int) -> None:
    if config_num >= size:
        raise StudyError(f"config_num {config_num} is out of range for a "
                         f"population of {size}")


def _evaluate_worker(job) -> StudyEntry:
    """Solve one configuration (safe to run in a separate process)."""
    index, notation, loads_w, physics, options, out_dir = job
    model = build_model(parse_notation(notation), loads_w, physics)
    try:
        sol = evaluate_endurance(model, options)
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        # numerical failures (singular factor, stiff integration, overflow)
        # are recorded and never abort the study; code defects such as
        # TypeError or KeyError propagate
        return StudyEntry(notation=notation, status=f"error: {exc}", success=False,
                          config_index=index)
    if out_dir is not None:
        sol.write_trajectory_csv(out_dir / f"cfg_{index:03d}.csv", options.dense_points)
    return StudyEntry(
        notation=notation, status=sol.status, success=sol.success, config_index=index,
        t_end=sol.t_end, objective=sol.objective, penalty=sol.penalty_value,
        wall_arrival_spread=sol.wall_arrival_spread,
        verified_t_end=sol.verified_t_end, verification_gap=sol.verification_gap,
        constraint_violation=sol.constraint_violation, iterations=sol.iterations,
        segments=sol.segments,
    )


def _worker_count(spec: StudySpec) -> int:
    env = os.environ.get(WORKERS_ENV)
    if not env:
        return spec.parallelism
    try:
        workers = int(env)
    except ValueError:
        raise StudyError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None
    if workers < 1:
        raise StudyError(f"{WORKERS_ENV} must be at least 1, got {workers}")
    return workers


def run_study(spec: StudySpec) -> RankedPopulation:
    """Generate the population, evaluate every member, rank, and report.

    Individual solve failures are recorded with their status and excluded
    from the percentile ranking; they never abort the study.
    """
    workers = _worker_count(spec)  # before anything is built or written
    population = build_population(spec)
    out_dir = Path(spec.out_dir) if spec.out_dir else None
    solutions_dir = None
    if out_dir is not None:
        solutions_dir = out_dir / "solutions"
        solutions_dir.mkdir(parents=True, exist_ok=True)
        # a rerun into the same directory keeps no earlier run's solutions
        for stale in solutions_dir.glob("cfg_*.csv"):
            stale.unlink()
        (out_dir / "population.json").write_text(
            json.dumps(list(population.notations()), indent=2) + "\n"
        )

    jobs = [(i, notation, spec.loads_w, spec.physics, spec.oloc, solutions_dir)
            for i, notation in enumerate(population.notations())]
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            entries = list(pool.map(_evaluate_worker, jobs))
    else:
        entries = [_evaluate_worker(j) for j in jobs]
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
    else:
        (out_dir / "failures.csv").unlink(missing_ok=True)
    lines = [
        f"configurations ranked: {len(population.entries)}",
        f"failures: {len(population.failures)}",
    ]
    if population.entries:
        best, worst = population.best, population.worst
        lines += [f"best:  {best.notation}  t_end = {best.t_end:.3f} s",
                  f"worst: {worst.notation}  t_end = {worst.t_end:.3f} s"]
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n")
