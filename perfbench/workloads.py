"""Seeded study inputs for the three benchmark workloads.

Seed 0 reproduces the inputs of the acceptance tests exactly.  Other seeds
jitter the heat loads (split3) or the device positions (dev17); case6 is the
same at every seed.

The jitter is kept away from anything that changes case6's NLPs, because
trust-constr's iteration path is chaotic in the loads.  With loads jittered
by at most 1e-4 (relative), configuration ``0 (2 (1) (3)) (4,5,6)`` took
between 346 and 979 iterations over eight seeds, and the study between 35
and 53 s; at 2% it took 32 to 62 s over five seeds.  Seeds would then measure
the inputs rather than the code.  split3's small NLPs stay within a few
percent in total iterations at 1e-4.  Position jitter in case6 would flip
its tied junction (devices 4 and 6 are equally close to their centroid) and
with it the population, so case6 takes no jitter at all.  The dev17 position
jitter keeps every junction (checked for seeds 0-199), so dev17 solves the
same configuration at every seed.
"""

from __future__ import annotations

import numpy as np

from thermoforge.oloc import OlocOptions
from thermoforge.spatial import DeviceLayout, build_supernode_tree
from thermoforge.study import StudySpec

DEFAULT_SEED = 0
LOAD_JITTER = 1e-4       # relative, uniform in [-LOAD_JITTER, LOAD_JITTER]
POSITION_JITTER = 0.01  # absolute, uniform per coordinate; keeps the junctions
OPTIONS = OlocOptions(segments=20, mesh_refinements=1)

CASE6_POSITIONS = np.array(
    [[2, 0, 0], [2, 1, 0], [3, 1, 0], [12, 12, 0], [15, 10, 0], [13, 13, 0]],
    dtype=float,
)


def _jitter_loads(loads_kw, seed: int) -> dict:
    loads = np.asarray(loads_kw, dtype=float)
    if seed != DEFAULT_SEED:
        rng = np.random.default_rng(seed)
        loads = loads * (1.0 + rng.uniform(-LOAD_JITTER, LOAD_JITTER, loads.shape))
    return {i + 1: 1000.0 * float(kw) for i, kw in enumerate(loads)}


def split3(seed: int, out_dir: str | None) -> StudySpec:
    """Every single-split tree of 3 devices, hottest device first, with reports."""
    return StudySpec(
        layout=DeviceLayout(np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])),
        loads_w=_jitter_loads([12, 4, 1], seed),
        strategy="single_split",
        oloc=OPTIONS,
        out_dir=out_dir,
    )


def case6(seed: int, out_dir: str | None) -> StudySpec:
    """The six-device case study, level-1 spatial junctions, with reports."""
    return StudySpec(
        layout=DeviceLayout(CASE6_POSITIONS),
        loads_w=_jitter_loads([5, 7, 6, 4, 5, 5], DEFAULT_SEED),
        strategy="spatial_junctions",
        num_levels=1,
        oloc=OPTIONS,
        out_dir=out_dir,
    )


def dev17(seed: int, out_dir: str | None) -> StudySpec:
    """Member 0 of the 17-device, three-cluster population."""
    rng = np.random.default_rng(7)
    positions = []
    for (cx, cy), size in zip([(0.0, 0.0), (40.0, 5.0), (18.0, 35.0)], [6, 6, 5]):
        for _ in range(size):
            positions.append([cx + rng.uniform(-2, 2), cy + rng.uniform(-2, 2), 0.0])
    positions = np.array(positions)
    if seed != DEFAULT_SEED:
        jitter = np.random.default_rng(seed).uniform(-POSITION_JITTER, POSITION_JITTER,
                                                     positions.shape)
        jitter[:, 2] = 0.0
        positions = positions + jitter
    layout = DeviceLayout(positions)
    tree = build_supernode_tree(layout, num_levels=1, seed=0)
    junction_loads = dict(zip(sorted(tree.junctions_at(1)), (3000.0, 4000.0, 5000.0)))
    return StudySpec(
        layout=layout,
        loads_w={lab: junction_loads.get(lab, 4000.0) for lab in range(1, 18)},
        strategy="spatial_junctions",
        num_levels=1,
        config_num=0,
        oloc=OPTIONS,
    )


WORKLOADS = {"split3": split3, "case6": case6, "dev17": dev17}
