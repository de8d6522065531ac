"""The study benchmark (``perfbench/``) patches program attributes by name
for a traced run; every one of them must exist and be restored."""

from pathlib import Path

import scipy.integrate
import scipy.optimize
import scipy.sparse.linalg

import thermoforge.oloc as oloc
import thermoforge.study as study
import thermoforge.thermal as thermal

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
