"""Command-line interface: count, enumerate, cluster, solve, run."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import parse_notation
from .enumeration import (
    COUNT_CAP,
    GENERATE_CAP,
    count_multi_split,
    count_single_split,
    enumerate_junction_placements,
    enumerate_single_split,
    enumerate_trees,
)
from .oloc import OlocOptions, evaluate_endurance
from .spatial import DeviceLayout, build_supernode_tree
from .study import StudySpec, run_study
from .thermal import PhysicsParams, build_model


def _cmd_count(args) -> int:
    if args.junctions is None:
        print(count_single_split(args.nodes, cap=args.cap))
    else:
        print(count_multi_split(args.nodes, args.junctions, cap=args.cap))
    return 0


def _cmd_enumerate(args) -> int:
    if args.strategy == "single_split":
        pop = enumerate_single_split(args.nodes, cap=args.cap)
    elif args.strategy == "trees":
        pop = enumerate_trees(args.nodes, cap=args.cap, complete=args.complete)
    elif args.strategy == "junction_placements":
        if args.junctions is None:
            raise ValueError("--junctions is required for junction_placements")
        pop = enumerate_junction_placements(args.nodes, args.junctions, cap=args.cap)
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(args.strategy)
    payload = json.dumps(list(pop.notations()), indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(payload)
        print(f"{len(pop)} configurations -> {args.out}")
    else:
        print(payload, end="")
    return 0


def _cmd_cluster(args) -> int:
    layout = DeviceLayout.from_json(Path(args.layout).read_text())
    tree = build_supernode_tree(layout, args.levels, seed=args.seed)
    obj = {
        "achieved_levels": tree.achieved_levels,
        "levels": [
            [
                {"members": list(sn.members), "junction": sn.junction,
                 "parent_chain": list(sn.parent_chain)}
                for sn in level
            ]
            for level in tree.levels
        ],
    }
    payload = json.dumps(obj, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(payload)
        print(f"super-node tree -> {args.out}")
    else:
        print(payload, end="")
    return 0


def _cmd_solve(args) -> int:
    graph = parse_notation(args.config)
    try:
        loads_kw = [float(v) for v in args.loads.split(",")]
    except ValueError as exc:  # names the bad entry
        raise ValueError(f"--loads: {exc}") from None
    if len(loads_kw) != graph.node_count:
        raise ValueError(f"{graph.node_count} devices but {len(loads_kw)} loads")
    loads_w = {lab: 1000.0 * kw for lab, kw in zip(graph.labels, loads_kw)}
    params = PhysicsParams()
    if args.params:
        params = PhysicsParams.from_json(Path(args.params).read_text())
    options = OlocOptions()
    if args.options:
        options = OlocOptions.from_json(Path(args.options).read_text())
    sol = evaluate_endurance(build_model(graph, loads_w, params), options)
    print(f"config:    {sol.notation}")
    print(f"status:    {sol.status}")
    print(f"t_end:     {sol.t_end:.4f} s")
    print(f"objective: {sol.objective:.4f}")
    print(f"penalty:   {sol.penalty_value:.6f}")
    print(f"verified:  {sol.verified_t_end:.4f} s (gap {sol.verification_gap:+.2e})")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        sol.write_trajectory_csv(out / "trajectory.csv", options.dense_points)
        (out / "solution.json").write_text(json.dumps(sol.summary(), indent=2) + "\n")
        print(f"artifacts -> {out}")
    return 0 if sol.success else 1


def _cmd_run(args) -> int:
    spec_path = Path(args.spec)
    spec = StudySpec.from_json(spec_path.read_text(), base_dir=spec_path.parent)
    ranked = run_study(spec)
    print(f"{'rank':>4}  {'t_end_s':>10}  {'pct':>6}  notation")
    for i, (e, p) in enumerate(zip(ranked.entries, ranked.percentiles), start=1):
        print(f"{i:>4}  {e.t_end:>10.3f}  {p:>6.1f}  {e.notation}")
    if ranked.failures:
        print(f"failures: {len(ranked.failures)}")
        for e in ranked.failures:
            print(f"  {e.notation}: {e.status}")
    if spec.out_dir:
        print(f"artifacts -> {spec.out_dir}")
    return 0 if ranked.entries else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermoforge",
        description="Enumerate multi-split cooling architectures, build their "
                    "thermal models, and rank them by optimal thermal endurance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count configurations")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--junctions", type=int, default=None)
    p.add_argument("--cap", type=int, default=COUNT_CAP)
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("enumerate", help="generate a configuration population")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--strategy", default="single_split",
                   choices=["single_split", "trees", "junction_placements"])
    p.add_argument("--junctions", type=int, default=None)
    p.add_argument("--complete", action="store_true",
                   help="complete labeled-tree enumeration (trees strategy)")
    p.add_argument("--cap", type=int, default=GENERATE_CAP)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("cluster", help="cluster a layout into super-nodes")
    p.add_argument("--layout", required=True)
    p.add_argument("--levels", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_cluster)

    p = sub.add_parser("solve", help="solve one configuration")
    p.add_argument("--config", required=True, help='notation, e.g. "0 (1,2) (3)"')
    p.add_argument("--loads", required=True, help="kW per label, comma separated")
    p.add_argument("--params", default=None, help="physics parameters JSON file")
    p.add_argument("--options", default=None, help="OLOC options JSON file")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("run", help="run a full study from a spec file")
    p.add_argument("--spec", required=True)
    p.set_defaults(fn=_cmd_run)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # every input error is a ValueError (JSON's included) or an OSError
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
