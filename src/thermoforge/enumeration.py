"""Counting and generation of single-split and multi-split configurations.

Single-split configurations hang series chains of devices off the tank, so
their number is a sum of Lah-type terms; multi-split counts with a fixed
number of junctions follow a recursion over how many devices the first
junction absorbs.  Generators return deduplicated populations of
:class:`~thermoforge.config.ConfigGraph`.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .config import ROOT, ConfigGraph

GENERATE_CAP = 8
COUNT_CAP = 20


class EnumerationCapError(ValueError):
    """Requested size exceeds the configured enumeration cap."""

    def __init__(self, what: str, value: int, cap: int):
        super().__init__(
            f"{what}={value} exceeds the cap of {cap}; pass a larger cap explicitly "
            f"if you really want this"
        )
        self.cap = cap


@dataclass(frozen=True)
class GraphPopulation:
    """A duplicate-free collection of configuration graphs."""

    graphs: tuple[ConfigGraph, ...]
    provenance: dict

    def __len__(self) -> int:
        return len(self.graphs)

    def __iter__(self):
        return iter(self.graphs)

    def __getitem__(self, i: int) -> ConfigGraph:
        return self.graphs[i]

    def notations(self) -> tuple[str, ...]:
        return tuple(g.notation for g in self.graphs)


def count_single_split(n: int, cap: int = COUNT_CAP) -> int:
    """Number of single-split configurations of ``n`` devices.

    Computes sum_{k=1}^{n} C(n,k) * C(n-1,k-1) * (n-k)!  exactly.  The k=0
    term of the published sum involves C(n-1,-1) and is zero by the usual
    convention; n=0 returns 1 (the empty configuration) by convention.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > cap:
        raise EnumerationCapError("n", n, cap)
    if n == 0:
        return 1
    return sum(
        math.comb(n, k) * math.comb(n - 1, k - 1) * math.factorial(n - k)
        for k in range(1, n + 1)
    )


def count_multi_split(n: int, j: int, cap: int = COUNT_CAP) -> int:
    """Number of one-junction-layer configurations with ``j`` labeled
    junctions and ``n`` non-junction devices.

    F_1(n) = G(n);  F_J(n) = sum_{M=1}^{n} C(n,M) * G(M) * F_{J-1}(n-M),
    with F_J(0) = 1 (an exhausted device pool contributes one empty choice).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if j < 1:
        raise ValueError("j must be at least 1")
    if n > cap:
        raise EnumerationCapError("n", n, cap)

    @lru_cache(maxsize=None)
    def f(jj: int, nn: int) -> int:
        if jj == 1:
            return count_single_split(nn, cap)
        if nn == 0:
            return 1
        return sum(
            math.comb(nn, m) * count_single_split(m, cap) * f(jj - 1, nn - m)
            for m in range(1, nn + 1)
        )

    return f(j, n)


def _ordered_block_partitions(labels: tuple[int, ...]):
    """Yield partitions of ``labels`` into unordered blocks, each block
    internally ordered (every permutation of every block)."""

    def set_partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in set_partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [[first] + part[i]] + part[i + 1 :]
            yield [[first]] + part

    for partition in set_partitions(list(labels)):
        for ordered in itertools.product(
            *[itertools.permutations(block) for block in partition]
        ):
            yield ordered


def _chains_to_edges(root: int, chains) -> list[tuple[int, int]]:
    edges = []
    for chain in chains:
        prev = root
        for node in chain:
            edges.append((prev, node))
            prev = node
    return edges


def _single_split_graphs_under(root: int, labels: tuple[int, ...]):
    """All single-split edge sets for ``labels`` hanging from ``root``."""
    if not labels:
        yield []
        return
    for chains in _ordered_block_partitions(labels):
        yield _chains_to_edges(root, chains)


def enumerate_single_split(n: int, cap: int = GENERATE_CAP) -> GraphPopulation:
    """All configurations whose branching occurs only at the tank."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > cap:
        raise EnumerationCapError("n", n, cap)
    labels = tuple(range(1, n + 1))
    graphs = [ConfigGraph(edges) for edges in _single_split_graphs_under(ROOT, labels)]
    graphs.sort(key=lambda g: g.notation)
    return GraphPopulation(tuple(graphs), {"strategy": "single_split", "n": n})


def enumerate_trees(n: int, cap: int = GENERATE_CAP, complete: bool = False) -> GraphPopulation:
    """Enumerate trees with root out-degree 1 over labels 1..n.

    The default incremental scheme starts from the edge (0,1) and attaches
    each node k >= 2 to any lower-labeled device node, yielding (n-1)!
    increasing trees.  With ``complete=True`` every labeled tree shape is
    produced instead (all parent assignments with root out-degree 1,
    n^(n-1) graphs), which also covers trees such as 0->2->1 that the
    incremental scheme cannot reach.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > cap:
        raise EnumerationCapError("n", n, cap)
    if complete:
        graphs = [ConfigGraph(edges) for edges in _all_rooted_trees(n)]
    else:
        edge_sets = [[(0, 1)]]
        for k in range(2, n + 1):
            edge_sets = [g + [(node, k)] for g in edge_sets for node in range(1, k)]
        graphs = [ConfigGraph(edges) for edges in edge_sets]
    graphs.sort(key=lambda g: g.notation)
    return GraphPopulation(
        tuple(graphs), {"strategy": "trees", "n": n, "complete": complete}
    )


def _prufer_to_tree_edges(sequence, labels):
    """Decode a Prufer sequence over ``labels`` into undirected tree edges."""
    degree = {v: 1 for v in labels}
    for v in sequence:
        degree[v] += 1
    heap = [v for v in labels if degree[v] == 1]
    heapq.heapify(heap)
    edges = []
    for v in sequence:
        leaf = heapq.heappop(heap)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(heap, v)
    edges.append((heapq.heappop(heap), heapq.heappop(heap)))
    return edges


def _all_rooted_trees(n: int):
    """Edge sets of every labeled tree on 1..n, oriented from each choice of
    sub-root, with the tank edge (0, sub_root) prepended."""
    labels = tuple(range(1, n + 1))
    if n == 1:
        yield [(0, 1)]
        return
    for seq in itertools.product(labels, repeat=n - 2):
        und = _prufer_to_tree_edges(list(seq), labels)
        adjacency = {v: [] for v in labels}
        for a, b in und:
            adjacency[a].append(b)
            adjacency[b].append(a)
        for root in labels:
            edges = [(0, root)]
            stack = [(root, None)]
            while stack:
                v, parent = stack.pop()
                for w in adjacency[v]:
                    if w != parent:
                        edges.append((v, w))
                        stack.append((w, v))
            yield edges


_SUBTREE_ENUMERATORS = ("single_split", "alg3", "complete")


def _subtree_edge_sets(junction: int, free: tuple[int, ...], enumerator: str):
    """Edge sets of the sub-configurations of ``free`` under ``junction``."""
    if enumerator not in _SUBTREE_ENUMERATORS:
        raise ValueError(f"unknown enumerator {enumerator!r}; choose from {_SUBTREE_ENUMERATORS}")
    if not free:
        return [[]]
    if enumerator == "single_split":
        return list(_single_split_graphs_under(junction, free))
    mapping = {i + 1: lab for i, lab in enumerate(sorted(free))}
    mapping[0] = junction
    pop = enumerate_trees(len(free), cap=max(GENERATE_CAP, len(free)),
                          complete=(enumerator == "complete"))
    return [[(mapping[p], mapping[c]) for p, c in g.edges] for g in pop]


def _supernode_components(tree, level: int, enumerator: str):
    """Per-super-node (chain edges, sub-graph edge sets) for one tree level."""
    if level < 1 or level >= len(tree.levels):
        raise ValueError(f"tree has levels 1..{len(tree.levels) - 1}, got {level}")
    components = []
    for sn in tree.levels[level]:
        if not sn.members:
            continue
        if sn.junction is None:
            raise ValueError(f"super-node {sn.members} has no junction")
        chain = list(sn.parent_chain) + [sn.junction]
        chain_edges = list(zip(chain[:-1], chain[1:]))
        subs = _subtree_edge_sets(sn.junction, sn.free_members, enumerator)
        subs = [chain_edges + s for s in subs]
        components.append(subs)
    if not components:
        raise ValueError(f"no populated super-nodes at level {level}")
    return components


def _graph_at(components, index: int) -> ConfigGraph:
    """The ``index``-th choice of the per-super-node cartesian product (mixed
    radix, last component fastest, as ``itertools.product``), merged."""
    edges = set()
    for subs in reversed(components):
        index, pos = divmod(index, len(subs))
        edges.update(subs[pos])
    return ConfigGraph(sorted(edges))


def level_graph_count(tree, level: int, enumerator: str = "single_split") -> int:
    """Population size of :func:`generate_level_graphs` without generating."""
    return math.prod(len(subs) for subs in _supernode_components(tree, level, enumerator))


def level_graph_at(tree, level: int, index: int, enumerator: str = "single_split") -> ConfigGraph:
    """Directly build the ``index``-th graph of the level population
    (mixed-radix position in the per-super-node cartesian product)."""
    components = _supernode_components(tree, level, enumerator)
    total = math.prod(len(subs) for subs in components)
    if not 0 <= index < total:
        raise IndexError(f"index {index} out of range for population of {total}")
    return _graph_at(components, index)


def generate_level_graphs(
    tree,
    level: int,
    enumerator: str = "single_split",
    cap: int = 100_000,
) -> GraphPopulation:
    """All architecture graphs for one level of a super-node tree.

    Each super-node contributes the enumeration of its free members under
    its junction, prefixed by the open path tank -> ancestor junctions ->
    junction; the population is the cartesian product of the per-super-node
    choices, merged into single graphs.  Ordering is the product order with
    the last super-node varying fastest (stable across runs).
    """
    components = _supernode_components(tree, level, enumerator)
    total = math.prod(len(subs) for subs in components)
    if total > cap:
        raise EnumerationCapError("population", total, cap)
    graphs = [_graph_at(components, i) for i in range(total)]
    seen = set()
    for g in graphs:
        if g.notation in seen:
            raise AssertionError(f"duplicate configuration {g.notation}")
        seen.add(g.notation)
    return GraphPopulation(
        tuple(graphs),
        {"strategy": "spatial_junctions", "level": level, "enumerator": enumerator},
    )


def enumerate_junction_placements(n: int, j: int, cap: int = GENERATE_CAP) -> GraphPopulation:
    """One-junction-layer configurations with junction labels chosen from 1..n.

    Every choice of ``j`` junction labels attaches directly to the tank; the
    remaining labels are assigned to the junctions in every possible way
    (a junction may end up bare) and arranged single-split under their
    junction.
    """
    if not 1 <= j <= n:
        raise ValueError("need 1 <= j <= n")
    if n > cap:
        raise EnumerationCapError("n", n, cap)
    labels = tuple(range(1, n + 1))
    by_notation: dict[str, ConfigGraph] = {}
    for junctions in itertools.combinations(labels, j):
        rest = tuple(lab for lab in labels if lab not in junctions)
        tank_edges = [(ROOT, jun) for jun in junctions]
        for owners in itertools.product(junctions, repeat=len(rest)):
            groups = {jun: tuple(lab for lab, o in zip(rest, owners) if o == jun)
                      for jun in junctions}
            per_junction = [
                list(_single_split_graphs_under(jun, groups[jun])) for jun in junctions
            ]
            for choice in itertools.product(*per_junction):
                edges = list(tank_edges)
                for part in choice:
                    edges.extend(part)
                g = ConfigGraph(edges)
                by_notation.setdefault(g.notation, g)
    graphs = tuple(by_notation[k] for k in sorted(by_notation))
    return GraphPopulation(
        graphs, {"strategy": "enumerated_junctions", "n": n, "j": j}
    )
