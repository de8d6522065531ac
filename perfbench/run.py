"""Study benchmark for thermoforge: one workload, one seed, one JSON line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload split3 --seed 1 --seconds 25 --trace 0

The workload runs in a child process (``child.py``) with OpenBLAS/OpenMP
pinned to one thread, ``THERMOFORGE_WORKERS`` cleared and ``src`` on the
path, so the checkout's own source is what gets measured.  Set-up is timed
from process start to the child's ``READY`` line, over several processes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one untraced
and one traced pass and prints the per-layer metrics.  The last line of
standard output is always the JSON result; details (environment, per
configuration counts and checks) go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".perfbench_out")
SETUP_ONLY_PROCESSES = 4   # untraced runs; plus the workload process itself
RUN_LIMIT_S = 175.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("THERMOFORGE_WORKERS", None)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(Path("src").resolve())
    return env


def run_child(args, extra, deadline) -> tuple[float, str]:
    """Run ``child.py`` to the end; return its set-up time and its stdout."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(OUT_DIR), *extra]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env()) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            raise BenchError("workload process ran past the time limit")
        except BaseException:
            proc.kill()
            raise
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    return setup_s, out


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("split3", "case6", "dev17"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not Path("src/thermoforge/__init__.py").is_file():
        print("perfbench: run from the root of a thermoforge checkout "
              "(src/thermoforge not found)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)

    setup = [run_child(args, ["--setup-only"], deadline)[0]
             for _ in range(0 if args.trace else SETUP_ONLY_PROCESSES)]
    setup_s, out = run_child(args, [], deadline)
    setup.append(setup_s)
    res = json.loads(out.splitlines()[-1])

    configs = res["configs"]
    failed = sum(1 for c in configs if c["failure"])
    correct = failed == 0 and not res["problems"]
    res["setup_s"] = setup
    if args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in res["layers"].items()}
    else:
        metrics = {
            "study_s": {"value": statistics.median(res["study_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(res, indent=1) + "\n")
    env = res["environment"]
    blas = ", ".join(f"{b['library']} threads={b.get('threads')}" for b in env["openblas"])
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(res['study_s'])} pass(es), {len(configs)} configurations, "
          f"{failed} failed")
    print(f"env: nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} [{blas}]")
    for c in configs:
        print(f"  cfg {c['config']:3d} {c['notation']:<50s} t_end={c.get('t_end')} "
              f"gap={c['gap']} nit={c['nit']} runs={c['nlp_runs']} "
              f"n_z={c.get('n_z')} failure={c['failure']}")
    for p in res["problems"]:
        print(f"  problem: {p}")
    for k, m in metrics.items():
        print(f"  {k:32s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        # printed, not gated: see README.md
        print(f"  {'solve_s_p50':32s} {statistics.median(res['solve_s']):.6g} s")
        print(f"  {'failed_frac':32s} {failed / len(configs):.6g} ratio "
              f"({failed} of {len(configs)})")
        print(f"  samples: study_s n={len(res['study_s'])}, "
              f"solve_s_p50 n={len(res['solve_s'])}, setup_s n={len(setup)}")
    print(json.dumps({"correct": correct, "attempted": len(configs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # turn SIGTERM into SystemExit, so a running workload process is killed too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
