"""The study benchmark (``perfbench/``) patches program attributes by name
for a traced run; every one of them must exist and be restored.  It also
re-simulates every solution itself, and must measure the same gap as the
program."""

from pathlib import Path

import numpy as np
import scipy.integrate
import scipy.optimize
import scipy.sparse.linalg

import thermoforge.oloc as oloc
import thermoforge.study as study
import thermoforge.thermal as thermal
from thermoforge.config import parse_notation
from thermoforge.oloc import OlocOptions, evaluate_endurance
from thermoforge.spatial import DeviceLayout
from thermoforge.study import StudySpec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_recorder_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    # a renamed or removed attribute raises KeyError here, as in the benchmark
    hooks = [(owner, attr) for owner, attr, _ in tracing.SPAN_TARGETS] + [
        (study, "_evaluate_worker"), (study, "evaluate_endurance"),
        (oloc, "solve"), (oloc, "minimize"), (thermal, "solve_ivp"),
        (scipy.sparse.linalg, "factorized"),
    ]
    originals = [vars(owner)[attr] for owner, attr in hooks]
    with tracing.Recorder(spans=True).installed():
        assert oloc.minimize is not scipy.optimize.minimize
        assert thermal.solve_ivp is not scipy.integrate.solve_ivp
    for (owner, attr), original in zip(hooks, originals):
        assert vars(owner)[attr] is original, attr
    assert oloc.minimize is scipy.optimize.minimize
    assert thermal.solve_ivp is scipy.integrate.solve_ivp


def test_verification_gap_matches_the_benchmark(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks

    spec = StudySpec(layout=DeviceLayout(np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])),
                     loads_w={1: 12000.0, 2: 4000.0, 3: 1000.0}, strategy="single_split",
                     oloc=OlocOptions(segments=20, mesh_refinements=1))
    model = thermal.build_model(parse_notation("0 (1) (2,3)"), spec.loads_w, spec.physics)
    sol = evaluate_endurance(model, spec.oloc)
    assert sol.grid_controls.shape[1] > 0  # a split solve, not a simulation
    assert abs(sol.verification_gap - checks.verification_gap(sol, spec)) <= 1e-12


def traced_study(monkeypatch, spec):
    """Run ``spec`` through the benchmark's wrappers, not only install them,
    so that a changed signature of anything they call or read fails here."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delenv(study.WORKERS_ENV, raising=False)
    import tracing

    recorder = tracing.Recorder(spans=True)
    with recorder.installed():
        ranked = study.run_study(spec)
    return ranked, recorder


def test_traced_study_records_each_configuration(monkeypatch, tmp_path):
    spec = StudySpec(layout=DeviceLayout(np.array([[0.0, 0, 0], [1.0, 0, 0]])),
                     loads_w={1: 7000.0, 2: 4000.0}, strategy="single_split",
                     oloc=OlocOptions(segments=6, mesh_refinements=0),
                     out_dir=str(tmp_path / "out"))
    ranked, recorder = traced_study(monkeypatch, spec)
    assert len(ranked.entries) + len(ranked.failures) == 3
    assert [r["config"] for r in recorder.solves] == [0, 1, 2]
    (split,) = [r for r in recorder.solves if r["notation"] == "0 (1) (2)"]
    assert split["nlp_runs"] == 1
    assert split["n_z_max"] > 0
    assert split["segments_max"] == 6
    assert split["nit"] > 0
    assert recorder.spans


def test_traced_spatial_study_indexes_one_member(monkeypatch, tmp_path):
    # the dev17 workload's path: one config_num member of a spatial
    # population, counted and built by index without generating the rest
    spec = StudySpec(layout=DeviceLayout(np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])),
                     loads_w={1: 5000.0, 2: 6000.0, 3: 7000.0},
                     strategy="spatial_junctions", config_num=0,
                     oloc=OlocOptions(segments=6, mesh_refinements=0),
                     out_dir=str(tmp_path / "out"))
    ranked, recorder = traced_study(monkeypatch, spec)
    assert [e.notation for e in ranked.entries] == ["0 (2,1,3)"]
    assert [(r["config"], r["notation"]) for r in recorder.solves] == [(0, "0 (2,1,3)")]
    names = [name for name, *_ in recorder.spans]
    assert names.count("spatial.cluster") == 1
    # level_graph_count, then level_graph_at
    assert names.count("enumeration.index") == 2
