"""Correctness checks on every configuration a study solved.

A configuration fails for one of three reasons, recorded by name:

- ``solver``: the solve reported ``success=False`` (or raised);
- ``verification``: an independent re-simulation of the solution's grid
  flow states, interpolated linearly, reaches the temperature bound more
  than ``refine_rtol`` away from the reported endurance;
- ``reference``: at the default seed, the endurance falls more than
  ``refine_rtol`` below the value recorded in ``reference.json``.  The check
  is one-sided, so a better optimum that passes verification is allowed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from thermoforge.config import parse_notation
from thermoforge.thermal import PiecewiseLinearFlows, build_model, simulate

REFERENCE_FILE = Path(__file__).with_name("reference.json")


def verification_gap(sol, spec) -> float:
    """Relative gap between the re-simulated and the reported endurance."""
    o = spec.oloc
    model = build_model(parse_notation(sol.notation), spec.loads_w, spec.physics)
    t0 = model.initial_state(o.t_wall_initial, o.t_fluid_initial, o.t_loop_initial)
    flows = PiecewiseLinearFlows(sol.grid_t, sol.grid_states[:, sol.n_temp:])
    traj = simulate(model, t0, flows=flows, t_end=2.0 * sol.t_end, tol=1e-9,
                    t_bound=o.t_max)
    if traj.event_time is None:
        return float("inf")
    return (traj.event_time - sol.t_end) / sol.t_end


def load_reference(workload: str) -> dict:
    return json.loads(REFERENCE_FILE.read_text())[workload]


def check_solves(solves, spec, reference: dict | None) -> list[dict]:
    """One row per configuration: its outcome and, if it failed, why."""
    rtol = spec.oloc.refine_rtol
    rows = []
    for rec in solves:
        sol = rec.get("solution")
        row = {"config": rec["config"], "notation": rec["notation"],
               "t_end": None, "gap": None, "failure": None}
        if sol is None or not sol.success:
            row["failure"] = "solver"
        else:
            row["t_end"] = sol.t_end
            row["gap"] = verification_gap(sol, spec)
            ref = None if reference is None else reference.get(rec["notation"])
            if not abs(row["gap"]) <= rtol:
                row["failure"] = "verification"
            elif reference is not None and (ref is None or sol.t_end < ref * (1.0 - rtol)):
                row["failure"] = "reference"
        rows.append(row)
    return rows


def check_ranking(ranked, solves) -> list[str]:
    """Problems with the ranking itself: coverage, order and percentiles."""
    problems = []
    ranked_configs = sorted(e.config_index for e in ranked.entries + ranked.failures)
    if ranked_configs != list(range(len(solves))):
        problems.append("ranking does not cover each configuration once")
    if [r["config"] for r in solves] != list(range(len(solves))):
        problems.append("configurations were not solved in index order")
    t_ends = [e.t_end for e in ranked.entries]
    if t_ends != sorted(t_ends, reverse=True):
        problems.append("ranking is not sorted by descending endurance")
    pct = list(ranked.percentiles)
    if len(pct) != len(t_ends) or not all(0.0 <= p <= 100.0 for p in pct) \
            or pct != sorted(pct, reverse=True):
        problems.append("percentiles do not follow the ranking")
    by_config = {r["config"]: r.get("solution") for r in solves}
    for e in ranked.entries:
        sol = by_config.get(e.config_index)
        if sol is None or sol.t_end != e.t_end or sol.notation != e.notation:
            problems.append(f"entry {e.notation!r} does not match its solve")
    return problems


def check_report(out_dir: Path, ranked, solves) -> list[str]:
    """Problems with the report files a study with ``out_dir`` writes."""
    problems = []
    n = len(ranked.entries)
    ranking = (out_dir / "ranking.csv").read_text().splitlines()
    if len(ranking) != n + 1:
        problems.append(f"ranking.csv has {len(ranking) - 1} rows for {n} entries")
    for line, e in zip(ranking[1:], ranked.entries):
        if f'"{e.notation}",{e.t_end:.6f},' not in line:
            problems.append(f"ranking.csv row {line!r} does not match {e.notation!r}")
    csvs = len(list((out_dir / "solutions").glob("cfg_*.csv")))
    solved = sum(1 for r in solves if r.get("solution") is not None)
    if csvs != solved:
        problems.append(f"{csvs} trajectory files for {solved} solutions")
    if not np.isfinite([e.t_end for e in ranked.entries]).all():
        problems.append("non-finite endurance in the ranking")
    return problems
