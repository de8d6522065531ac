"""Spatial clustering of device positions into super-nodes with junctions.

Devices are clustered hierarchically; each cluster becomes a super-node
whose junction is the member closest to the cluster centroid.  The
resulting tree drives where flow splits are allowed to appear.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .config import ROOT, all_finite

KMEANS_MAX_ITER = 200
STABILITY_RESTARTS = 10


@dataclass(frozen=True)
class DeviceLayout:
    """Device positions, one [x, y, z] row per label 1..N.  A layout is
    geometry only: a study's heat loads are the spec's ``loads_kw``."""

    positions: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] not in (2, 3):
            raise ValueError("positions must be an (N, 2) or (N, 3) array")
        if not len(pos):
            raise ValueError("a layout needs at least one device")
        if pos.shape[1] == 2:
            pos = np.hstack([pos, np.zeros((pos.shape[0], 1))])
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        object.__setattr__(self, "positions", pos)

    @property
    def device_count(self) -> int:
        return self.positions.shape[0]

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(range(1, self.device_count + 1))

    def to_json(self) -> str:
        return json.dumps({"positions": self.positions.tolist()}, indent=2)

    @classmethod
    def from_dict(cls, obj: dict) -> "DeviceLayout":
        """From exactly ``{"positions": [...]}``; any other key is rejected."""
        if not isinstance(obj, dict):
            raise ValueError(f"a layout must be a JSON object, got {obj!r}")
        if "positions" not in obj:
            raise ValueError("a layout needs positions")
        unknown = sorted(set(obj) - {"positions"})
        if unknown:
            raise ValueError(f"unknown layout keys: {unknown}; a layout holds positions "
                             f"only, and a study's loads go in its spec's loads_kw")
        pos = obj["positions"]
        if not all_finite(pos):
            raise ValueError(f"positions must hold finite real numbers only, got {pos!r}")
        return cls(np.asarray(pos, dtype=float))

    @classmethod
    def from_json(cls, text: str) -> "DeviceLayout":
        return cls.from_dict(json.loads(text))


def kmeans(points, k: int, seed: int = 0):
    """Lloyd's algorithm with k-means++ style seeding.

    Returns (assignments, centroids) after at most KMEANS_MAX_ITER rounds;
    deterministic for a fixed seed.  A cluster that empties during iteration
    is re-seeded at the point farthest from every current centroid.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if n == 0:
        raise ValueError("no points to cluster")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    rng = np.random.default_rng(seed)

    centroids = np.empty((k, pts.shape[1]))
    centroids[0] = pts[rng.integers(n)]
    for i in range(1, k):
        d2 = np.min(((pts[:, None, :] - centroids[None, :i, :]) ** 2).sum(axis=2), axis=1)
        total = d2.sum()
        if total <= 0.0:
            centroids[i] = pts[rng.integers(n)]
        else:
            centroids[i] = pts[rng.choice(n, p=d2 / total)]

    assign = np.full(n, -1, dtype=int)
    for _ in range(KMEANS_MAX_ITER):
        dist = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assign = np.argmin(dist, axis=1)
        for i in range(k):
            members = pts[new_assign == i]
            if len(members) == 0:
                far = np.argmax(np.min(dist, axis=1))
                centroids[i] = pts[far]
                new_assign[far] = i
            else:
                centroids[i] = members.mean(axis=0)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return assign, centroids


def _mean_silhouette(dist: np.ndarray, assign: np.ndarray) -> float:
    """Mean silhouette from pairwise distances; singleton clusters score 0,
    and a single cluster (k = 1) scores 0 by definition."""
    clusters = np.unique(assign)
    if len(clusters) < 2:
        return 0.0
    scores = np.zeros(len(dist))
    for i in range(len(dist)):
        own = assign == assign[i]
        n_own = own.sum()
        if n_own <= 1:
            scores[i] = 0.0
            continue
        a = dist[i][own].sum() / (n_own - 1)
        b = min(dist[i][assign == c].mean() for c in clusters if c != assign[i])
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return float(scores.mean())


def _partition_key(assign: np.ndarray) -> frozenset:
    groups: dict[int, list[int]] = {}
    for idx, c in enumerate(assign):
        groups.setdefault(int(c), []).append(idx)
    return frozenset(tuple(v) for v in groups.values())


def select_cluster_count(points, seed: int = 0):
    """Smallest cluster count that is both stable across seeds and better
    separated than the next count, and its k-means assignment at ``seed``.

    Stability means ``STABILITY_RESTARTS`` k-means runs (seeds ``seed``,
    ``seed + 1``, ...) agree on the partition up to relabeling, which one
    cluster does without a restart; separation compares the mean silhouette
    of K against K+1, whose run at ``seed`` is then the next count's first
    restart.  Otherwise, and for a single point or identical points, the
    answer is one cluster.  The scan deliberately stops at N-1.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if n > 1 and not np.allclose(pts, pts[0]):
        dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        carried = None  # this count's run at ``seed`` and its silhouette
        for k in range(1, n):
            assign, score = carried or (kmeans(pts, k, seed=seed)[0], None)
            carried = None
            key = _partition_key(assign)
            # one cluster holds every point at any seed, so K = 1 needs no restart
            if k > 1 and any(_partition_key(kmeans(pts, k, seed=seed + r)[0]) != key
                             for r in range(1, STABILITY_RESTARTS)):
                continue
            if score is None:
                score = _mean_silhouette(dist, assign)
            following = kmeans(pts, k + 1, seed=seed)[0]
            carried = following, _mean_silhouette(dist, following)
            if score > carried[1]:
                return k, assign
    return 1, np.zeros(n, dtype=int)


@dataclass(frozen=True)
class SuperNode:
    """A cluster of device labels with its junction and ancestor junctions."""

    members: tuple[int, ...]
    junction: int
    parent_chain: tuple[int, ...]

    @property
    def free_members(self) -> tuple[int, ...]:
        return tuple(m for m in self.members if m != self.junction)


@dataclass(frozen=True)
class SuperNodeTree:
    """Hierarchy of super-nodes; level 0 is the whole device set under the tank."""

    levels: tuple[tuple[SuperNode, ...], ...]

    @property
    def achieved_levels(self) -> int:
        return len(self.levels) - 1

    def junctions_at(self, level: int) -> tuple[int, ...]:
        return tuple(sn.junction for sn in self.levels[level])


def _nearest_to_centroid(members: list[int], positions: np.ndarray) -> int:
    pts = positions[[m - 1 for m in members]]
    centroid = pts.mean(axis=0)
    d2 = ((pts - centroid) ** 2).sum(axis=1)
    best = d2.min()
    # ties (exact or within float noise) break to the smallest label
    candidates = [m for m, d in zip(members, d2) if d <= best + 1e-12 * max(1.0, best)]
    return min(candidates)


def build_supernode_tree(layout: DeviceLayout, num_levels: int, seed: int = 0) -> SuperNodeTree:
    """Recursively cluster the layout into ``num_levels`` levels of super-nodes.

    Each cluster's junction is its centroid-nearest member (ties to the
    smallest label); the junction is withheld from the pool clustered at the
    next level.  Stops early once no super-node has members left to cluster,
    recording the achieved depth.  Super-nodes that consist of a junction
    alone are carried forward so every device stays reachable at any level.
    """
    if num_levels < 1:
        raise ValueError("num_levels must be at least 1")
    root = SuperNode(members=layout.labels, junction=ROOT, parent_chain=())
    levels: list[tuple[SuperNode, ...]] = [(root,)]
    for _ in range(1, num_levels + 1):
        children: list[SuperNode] = []
        clustered_any = False
        for sn in levels[-1]:
            pool = sn.free_members
            if not pool:
                children.append(sn)  # carried forward: a bare junction
                continue
            clustered_any = True
            pts = layout.positions[[m - 1 for m in pool]]
            k, assign = select_cluster_count(pts, seed=seed)
            for c in range(k):
                members = sorted(pool[i] for i in range(len(pool)) if assign[i] == c)
                junction = _nearest_to_centroid(members, layout.positions)
                children.append(
                    SuperNode(
                        members=tuple(members),
                        junction=junction,
                        parent_chain=sn.parent_chain + (sn.junction,),
                    )
                )
        if not clustered_any:
            break
        children.sort(key=lambda s: s.members[0])
        levels.append(tuple(children))
    return SuperNodeTree(levels=tuple(levels))
