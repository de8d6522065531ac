"""Spans and solver counters recorded around calls into each layer.

The wrappers live in the benchmark, not in the program: for one study pass
they replace module attributes of thermoforge and scipy at the boundary
where one layer calls the next, and put the originals back afterwards.

A :class:`Recorder` always counts what each configuration's solve did
(the counters of every result ``minimize`` returns), which costs a few
calls per NLP.  With ``spans=True`` it also times every boundary call;
spans stay in memory as ``[name, start, end, parent, config]`` and are
written out by the caller when the run ends.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import scipy.sparse.linalg
from scipy.optimize._hessian_update_strategy import FullHessianUpdateStrategy

import thermoforge.oloc as oloc
import thermoforge.study as study
import thermoforge.thermal as thermal

ROOT_SPAN = "study.run_study"
NLP_COUNTERS = ("nit", "nfev", "njev", "cg_niter")

# span names whose calls are timed, by (owner, attribute)
SPAN_TARGETS = (
    (study, "build_population", "study.population"),
    (study, "report", "study.report"),
    (oloc.OlocSolution, "write_trajectory_csv", "study.report"),
    (study, "build_supernode_tree", "spatial.cluster"),
    (study, "enumerate_single_split", "enumeration.index"),
    (study, "generate_level_graphs", "enumeration.index"),
    (study, "level_graph_at", "enumeration.index"),
    (study, "level_graph_count", "enumeration.index"),
    (study, "parse_notation", "config.build"),
    (study, "build_flow_map", "config.build"),
    (study, "build_model", "thermal.build_model"),
    (oloc, "simulate", "thermal.simulate"),
    (oloc.Transcription, "defects", "oloc.defects"),
    (oloc.Transcription, "defects_jac", "oloc.defects_jac"),
    (oloc.Transcription, "objective", "oloc.objective"),
    (oloc.Transcription, "objective_grad", "oloc.objective"),
    (oloc.Transcription, "objective_hess", "oloc.objective"),
    (FullHessianUpdateStrategy, "initialize", "scipy.sr1"),
    (FullHessianUpdateStrategy, "update", "scipy.sr1"),
    (FullHessianUpdateStrategy, "dot", "scipy.sr1"),
    (FullHessianUpdateStrategy, "get_matrix", "scipy.sr1"),
)


class Recorder:
    """Per-configuration solve records, plus spans when ``spans`` is set."""

    def __init__(self, spans: bool):
        self.tracing = spans
        self.spans: list[list] = []
        self.solves: list[dict] = []
        self.simulate_nfev = 0
        self._open: list[int] = []
        self._config = -1

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._config])
        self._open.append(idx)
        return idx

    def leave(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def span(self, name: str, fn):
        def timed(*args, **kwargs):
            idx = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave(idx)
        return timed

    # ---- counters read at the solver boundary --------------------------------

    def _evaluate_worker(self, fn):
        # the study's per-configuration unit; its first job field is the index
        def wrapper(job):
            self._config = job[0]
            try:
                return fn(job)
            finally:
                self._config = -1
        return wrapper

    def _evaluate_endurance(self, fn):
        fn = self.span("oloc.evaluate", fn) if self.tracing else fn

        def wrapper(model, *args, **kwargs):
            rec = {"config": self._config, "notation": model.physics.config.notation,
                   "nlp_runs": 0, "solve_calls": 0, "n_z_max": 0, "segments_max": 0,
                   **{k: 0 for k in NLP_COUNTERS}}
            self.solves.append(rec)
            start = time.perf_counter()
            try:
                rec["solution"] = fn(model, *args, **kwargs)
            finally:
                rec["solve_s"] = time.perf_counter() - start
            return rec["solution"]
        return wrapper

    def _solve(self, fn):
        fn = self.span("oloc.solve", fn) if self.tracing else fn

        def wrapper(trans, *args, **kwargs):
            rec = self.solves[-1]
            rec["solve_calls"] += 1
            rec["n_z_max"] = max(rec["n_z_max"], trans.n_z)
            rec["segments_max"] = max(rec["segments_max"], trans.segments)
            return fn(trans, *args, **kwargs)
        return wrapper

    def _minimize(self, fn):
        fn = self.span("scipy.trust_constr", fn) if self.tracing else fn

        def wrapper(*args, **kwargs):
            res = fn(*args, **kwargs)
            rec = self.solves[-1]
            rec["nlp_runs"] += 1
            for k in NLP_COUNTERS:
                rec[k] += int(res[k])
            return res
        return wrapper

    def _solve_ivp(self, fn):
        fn = self.span("thermal.solve_ivp", fn)

        def wrapper(*args, **kwargs):
            sol = fn(*args, **kwargs)
            self.simulate_nfev += int(sol.nfev)
            return sol
        return wrapper

    def _factorized(self, fn):
        factor = self.span("scipy.kkt_factor", fn)

        def wrapper(matrix):
            return self.span("scipy.kkt_solve", factor(matrix))
        return wrapper

    @contextmanager
    def installed(self):
        """Patch the boundaries for the duration of the ``with`` block."""
        patches = [
            (study, "_evaluate_worker", self._evaluate_worker),
            (study, "evaluate_endurance", self._evaluate_endurance),
            (oloc, "solve", self._solve),
            (oloc, "minimize", self._minimize),
        ]
        if self.tracing:
            patches += [(owner, attr, lambda fn, name=name: self.span(name, fn))
                        for owner, attr, name in SPAN_TARGETS]
            patches += [(thermal, "solve_ivp", self._solve_ivp),
                        (scipy.sparse.linalg, "factorized", self._factorized)]
        saved = []
        try:
            for owner, attr, make in patches:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, make(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans) -> tuple[dict, Counter]:
    """Self time and call count per span name.  Calls in one thread nest,
    so a span's children never overlap and their durations simply add."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        total[name] += (end - start) - covered[i]
        calls[name] += 1
    return dict(total), calls
