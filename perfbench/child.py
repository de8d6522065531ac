"""The workload process: build one workload's inputs, run its study, check it.

Started by ``run.py`` with BLAS pinned to one thread and ``src`` on the
path.  It prints ``READY`` once its inputs exist (the parent times set-up up
to that line), then runs the study pass by pass and prints one JSON object
with every measurement as its last line.

Without ``--trace`` it repeats untraced passes until ``--seconds`` have
passed (at least one).  With ``--trace`` it runs one untraced and then one
traced pass of the same inputs, so the two can be compared.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import gzip
import json
import os
import platform
import re
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import checks
import tracing
import workloads
from thermoforge import study


def openblas_info() -> list[dict]:
    """Version and thread count of every OpenBLAS this process loaded."""
    maps = Path("/proc/self/maps").read_text()
    out = []
    for path in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        lib = ctypes.CDLL(path)
        info = {"library": Path(path).name}
        for suffix in ("64_", ""):
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                info["threads"] = get_threads()
                info["config"] = get_config().decode()
                break
        out.append(info)
    return out


def environment() -> dict:
    cpu = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_info(),
        "env_threads": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "thermoforge_workers": os.environ.get(study.WORKERS_ENV),
    }


def run_pass(spec, traced: bool) -> dict:
    """One timed ``run_study`` call, with its solve records."""
    if spec.out_dir:
        shutil.rmtree(spec.out_dir, ignore_errors=True)
    rec = tracing.Recorder(spans=traced)
    with rec.installed():
        run = rec.span(tracing.ROOT_SPAN, study.run_study) if traced else study.run_study
        start = time.perf_counter()
        ranked = run(spec)
        study_s = time.perf_counter() - start
    report_bytes = 0
    if spec.out_dir:
        report_bytes = sum(p.stat().st_size for p in Path(spec.out_dir).rglob("*")
                           if p.is_file())
    return {"study_s": study_s, "ranked": ranked, "rec": rec,
            "report_bytes": report_bytes}


def solve_counts(rec) -> list[dict]:
    """Per configuration: its result and what the solver did, all exact."""
    rows = []
    for r in rec.solves:
        sol = r.get("solution")
        row = {k: r[k] for k in ("config", "notation", "nlp_runs", "solve_calls",
                                 "n_z_max", "segments_max", *tracing.NLP_COUNTERS)}
        if sol is not None:
            n_pts, n_x = sol.grid_states.shape
            n_u = sol.grid_controls.shape[1]
            row.update(t_end=sol.t_end, status=sol.status, segments=sol.segments,
                       n_z=1 + n_pts * (n_x + n_u), n_f=n_u)
        rows.append(row)
    return rows


def layer_metrics(p: dict, workload_spec) -> dict:
    """Per-layer numbers of one traced pass."""
    rec = p["rec"]
    self_s, calls = tracing.self_times(rec.spans)
    solves = rec.solves

    def s(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    population = p["ranked"]
    pop_size = len(population.entries) + len(population.failures)
    if workload_spec.config_num is not None:
        pop_size = study.build_population(workload_spec).provenance.get(
            "population_size", pop_size)
    return {
        "scipy.trust_constr_self_s": s("scipy.trust_constr"),
        "scipy.sr1_s": s("scipy.sr1"),
        "scipy.sr1_calls": calls["scipy.sr1"],
        "scipy.kkt_factor_s": s("scipy.kkt_factor"),
        "scipy.kkt_factor_calls": calls["scipy.kkt_factor"],
        "scipy.kkt_solve_s": s("scipy.kkt_solve"),
        "scipy.kkt_solve_calls": calls["scipy.kkt_solve"],
        "oloc.defects_s": s("oloc.defects"),
        "oloc.defects_calls": calls["oloc.defects"],
        "oloc.defects_jac_s": s("oloc.defects_jac"),
        "oloc.defects_jac_calls": calls["oloc.defects_jac"],
        "oloc.objective_s": s("oloc.objective"),
        "oloc.solve_self_s": s("oloc.evaluate", "oloc.solve"),
        "oloc.solve_calls": calls["oloc.solve"],
        "oloc.nlp_runs": sum(r["nlp_runs"] for r in solves),
        "oloc.nlp_nit": sum(r["nit"] for r in solves),
        "oloc.nlp_nfev": sum(r["nfev"] for r in solves),
        "oloc.nlp_njev": sum(r["njev"] for r in solves),
        "oloc.nlp_cg_niter": sum(r["cg_niter"] for r in solves),
        "oloc.n_z_max": max(r["n_z_max"] for r in solves),
        "oloc.segments_max": max(r["segments_max"] for r in solves),
        "thermal.build_model_s": s("thermal.build_model"),
        "thermal.simulate_s": s("thermal.simulate", "thermal.solve_ivp"),
        "thermal.simulate_calls": calls["thermal.simulate"],
        "thermal.simulate_nfev": rec.simulate_nfev,
        "study.population_s": s("study.population"),
        "study.report_s": s("study.report"),
        "study.report_bytes": p["report_bytes"],
        "spatial.cluster_s": s("spatial.cluster"),
        "enumeration.index_s": s("enumeration.index"),
        "enumeration.population_size": pop_size,
        "config.build_s": s("config.build"),
        "trace.unattributed_s": s(tracing.ROOT_SPAN),
    }


def write_spans(path: Path, spans) -> None:
    with gzip.open(path, "wt", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "name", "start_s", "end_s", "parent", "config"])
        t0 = spans[0][1] if spans else 0.0
        for i, (name, start, end, parent, config) in enumerate(spans):
            w.writerow([i, name, f"{start - t0:.9f}", f"{end - t0:.9f}", parent, config])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    study_dir = args.out / f"{args.workload}-seed{args.seed}-study"
    spec = workloads.WORKLOADS[args.workload](args.seed, str(study_dir))
    print("READY", flush=True)
    if args.setup_only:
        return 0

    passes = []
    start = time.perf_counter()
    if args.trace:
        passes = [run_pass(spec, traced=False), run_pass(spec, traced=True)]
    else:
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(run_pass(spec, traced=False))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = passes[0]
    reference = (checks.load_reference(args.workload)
                 if args.seed == workloads.DEFAULT_SEED else None)
    rows = checks.check_solves(first["rec"].solves, spec, reference)
    problems = checks.check_ranking(first["ranked"], first["rec"].solves)
    if spec.out_dir:
        problems += checks.check_report(Path(spec.out_dir), passes[-1]["ranked"],
                                        passes[-1]["rec"].solves)
    counts = [solve_counts(p["rec"]) for p in passes]
    for i, c in enumerate(counts[1:], start=1):
        if c != counts[0]:
            kind = "traced" if args.trace else "repeated"
            problems.append(f"{kind} pass {i} differs from pass 0 in t_end or solver counts")

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "study_s": [p["study_s"] for p in passes],
        "solve_s": [r["solve_s"] for p in passes for r in p["rec"].solves],
        "peak_rss_mb": peak_rss_mb,
        "configs": [{**row, **cnt} for row, cnt in zip(rows, counts[0])],
        "problems": problems,
        "environment": environment(),
    }
    if args.trace:
        untraced, traced = passes
        layers = layer_metrics(traced, spec)
        layers["trace.overhead_s"] = traced["study_s"] - untraced["study_s"]
        result["layers"] = layers
        spans_file = args.out / f"{args.workload}-seed{args.seed}-spans.csv.gz"
        write_spans(spans_file, traced["rec"].spans)
        result["spans_file"] = str(spans_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
