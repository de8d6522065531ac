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
LEVEL_CAP = 100_000  # a larger level population is studied one member at a time


class EnumerationCapError(ValueError):
    """Requested size exceeds the configured enumeration cap."""

    def __init__(self, what: str, value: int, cap: int,
                 way_out: str = "pass a larger cap explicitly if you really want this"):
        super().__init__(f"{what}={value} exceeds the cap of {cap}; {way_out}")
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


def _arrangements(k: int) -> int:
    """Number of single-split arrangements of ``k`` labels under one root,
    without a cap: sum_{b=1}^{k} C(k,b) * C(k-1,b-1) * (k-b)!  exactly.  The
    b=0 term of the published sum involves C(k-1,-1) and is zero by the
    usual convention; k=0 gives 1 (the empty arrangement) by convention."""
    if k == 0:
        return 1
    return sum(math.comb(k, b) * math.comb(k - 1, b - 1) * math.factorial(k - b)
               for b in range(1, k + 1))


def count_single_split(n: int, cap: int = COUNT_CAP) -> int:
    """Number of single-split configurations of ``n`` devices: the
    :func:`_arrangements` of n labels under the tank, refused past ``cap``."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > cap:
        raise EnumerationCapError("n", n, cap)
    return _arrangements(n)


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
            return _arrangements(nn)
        if nn == 0:
            return 1
        return sum(
            math.comb(nn, m) * _arrangements(m) * f(jj - 1, nn - m)
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

    def arrangements(blocks):
        # itertools.product's order over each block's permutations, built
        # lazily: product would first turn every block's into a tuple
        if not blocks:
            yield ()
            return
        for head in itertools.permutations(blocks[0]):
            for rest in arrangements(blocks[1:]):
                yield (head, *rest)

    for partition in set_partitions(list(labels)):
        yield from arrangements(partition)


def _chains_to_edges(root: int, chains) -> list[tuple[int, int]]:
    edges = []
    for chain in chains:
        prev = root
        for node in chain:
            edges.append((prev, node))
            prev = node
    return edges


def _single_split_graphs_under(root: int, labels: tuple[int, ...]):
    """All single-split edge sets for ``labels`` hanging from ``root`` (one
    empty set for no labels)."""
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


def _level_table(tree, level: int):
    """One row per populated super-node of one tree level (the open path
    from the tank to its junction, the junction, its free members, and the
    number of their single-split arrangements under the junction), and the
    level's population size, the product of those numbers."""
    if level < 1 or level >= len(tree.levels):
        raise ValueError(f"tree has levels 1..{len(tree.levels) - 1}, got {level}")
    table = []
    for sn in tree.levels[level]:
        if not sn.members:
            continue
        if sn.junction is None:
            raise ValueError(f"super-node {sn.members} has no junction")
        chain = (*sn.parent_chain, sn.junction)
        free = sn.free_members
        table.append((list(zip(chain[:-1], chain[1:])), sn.junction, free,
                      _arrangements(len(free))))
    if not table:
        raise ValueError(f"no populated super-nodes at level {level}")
    return table, math.prod(row[3] for row in table)


def _merged(parts) -> ConfigGraph:
    # the chains of super-nodes under one parent share their first edges
    return ConfigGraph(set(itertools.chain.from_iterable(parts)))


def _product_graphs(table) -> list[ConfigGraph]:
    """Every choice of one arrangement per row, each with its row's chain,
    merged into one graph, in ``itertools.product`` order (last row
    fastest)."""
    choices = [[chain + s for s in _single_split_graphs_under(junction, free)]
               for chain, junction, free, *_ in table]
    return [_merged(parts) for parts in itertools.product(*choices)]


def _distinct(graphs, provenance: dict) -> GraphPopulation:
    seen = set()
    for g in graphs:
        if g.notation in seen:
            raise AssertionError(f"duplicate configuration {g.notation}")
        seen.add(g.notation)
    return GraphPopulation(tuple(graphs), provenance)


def level_graph_count(tree, level: int) -> int:
    """Population size of :func:`generate_level_graphs`, from each
    super-node's arrangement count; nothing is generated."""
    return _level_table(tree, level)[1]


def level_graph_at(tree, level: int, index: int) -> ConfigGraph:
    """The ``index``-th graph of the level population, decoded as a
    mixed-radix position (last super-node fastest); only the edges of
    each super-node's chosen arrangement are built."""
    table, total = _level_table(tree, level)
    if not 0 <= index < total:
        raise IndexError(f"index {index} out of range for population of {total}")
    parts = []
    for chain, junction, free, count in reversed(table):
        index, pos = divmod(index, count)
        chains = next(itertools.islice(_ordered_block_partitions(free), pos, None))
        parts += [chain, _chains_to_edges(junction, chains)]
    return _merged(parts)


def generate_level_graphs(tree, level: int) -> GraphPopulation:
    """All architecture graphs for one level of a super-node tree.

    Each super-node contributes every single-split arrangement of its free
    members under its junction, prefixed by the open path tank -> ancestor
    junctions -> junction; the population is the cartesian product of the
    per-super-node choices, merged into single graphs.  Ordering is the
    product order with the last super-node varying fastest (stable across
    runs).  The size is checked against ``LEVEL_CAP`` before anything is built.
    """
    table, total = _level_table(tree, level)
    if total > LEVEL_CAP:
        raise EnumerationCapError("population", total, LEVEL_CAP,
                                  "study one member at a time: config_num in a study "
                                  "spec, level_graph_at in a library call")
    return _distinct(_product_graphs(table),
                     {"strategy": "spatial_junctions", "level": level})


def enumerate_junction_placements(n: int, j: int, cap: int = GENERATE_CAP) -> GraphPopulation:
    """One-junction-layer configurations with junction labels chosen from 1..n.

    Every choice of ``j`` junction labels attaches directly to the tank; the
    remaining labels are assigned to the junctions in every possible way
    (a junction may end up bare) and arranged single-split under their
    junction, as a level population with one super-node per junction.
    The population is sorted by notation.
    """
    if not 1 <= j <= n:
        raise ValueError("need 1 <= j <= n")
    if n > cap:
        raise EnumerationCapError("n", n, cap)
    labels = tuple(range(1, n + 1))
    graphs = []
    for junctions in itertools.combinations(labels, j):
        rest = tuple(lab for lab in labels if lab not in junctions)
        for owners in itertools.product(junctions, repeat=len(rest)):
            graphs += _product_graphs(
                [([(ROOT, jun)], jun, tuple(lab for lab, o in zip(rest, owners) if o == jun))
                 for jun in junctions])
    graphs.sort(key=lambda g: g.notation)
    return _distinct(graphs, {"strategy": "enumerated_junctions", "n": n, "j": j})
