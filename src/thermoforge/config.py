"""Rooted-tree representation of multi-split coolant architectures.

A configuration is a tree rooted at the tank (node 0) whose remaining nodes
are cold-plate devices labeled with distinct positive integers.  The symbolic
notation writes each branch of a node in parentheses, with series devices
separated by commas: ``"0 (1,2) (3)"`` is the tree 0->1->2 plus a second
branch 0->3, and nesting marks a split at a device node.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

ROOT = 0


def integral(value) -> bool:
    """True for an integer (numpy's included), False for a bool or a float."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def real(value) -> bool:
    """True for a real number (numpy's included), False for a bool or a string."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def all_real(values) -> bool:
    """True when every entry of a (nested) sequence is a real number: as an
    array, [True, 4] is an integer array and ["5", 4] casts to floats."""
    return all(map(real, np.asarray(values, dtype=object).flat))


class NotationError(ValueError):
    """Malformed notation text; carries the offending character position."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class GraphValidationError(ValueError):
    """Structurally invalid configuration graph."""


class ConfigGraph:
    """Tree of device nodes rooted at the tank (node 0).

    Children of every node are kept in canonical order: branches sorted by
    the smallest label contained in their subtree.  Instances are immutable
    after construction and safe to share between threads/processes.
    """

    def __init__(self, edges):
        parent: dict[int, int] = {}
        for e in edges:
            try:
                p, c = e
            except (TypeError, ValueError):
                raise GraphValidationError(f"edge {e!r} is not a (parent, child) pair")
            # int() would truncate 1.5 and accept True and "3"
            if not (integral(p) and integral(c)):
                raise GraphValidationError(f"edge {e!r} has a label that is not an integer")
            p, c = int(p), int(c)
            if c <= 0:
                raise GraphValidationError(f"device label must be a positive integer, got {c}")
            if p != ROOT and p <= 0:
                raise GraphValidationError(f"parent label must be the root or positive, got {p}")
            if c in parent:
                raise GraphValidationError(f"node {c} has more than one parent")
            parent[c] = p
        if not parent:
            raise GraphValidationError("a configuration needs at least one device")

        nodes = set(parent) | {ROOT}
        for c, p in parent.items():
            if p not in nodes:
                raise GraphValidationError(f"edge parent {p} is not a node of the graph")

        children: dict[int, list[int]] = {n: [] for n in nodes}
        for c, p in parent.items():
            children[p].append(c)

        # Reachability from the root doubles as the acyclicity check: with
        # every non-root node having exactly one parent, unreachable nodes
        # can only sit on a cycle.
        seen = set()
        stack = [ROOT]
        while stack:
            v = stack.pop()
            seen.add(v)
            stack.extend(children[v])
        if seen != nodes:
            missing = sorted(nodes - seen)
            raise GraphValidationError(f"nodes {missing} are not connected to the root")

        # Canonical child order: by smallest label in each child's subtree.
        subtree_min: dict[int, int] = {}

        def _min_label(v: int) -> int:
            m = v if v != ROOT else math.inf
            for c in children[v]:
                m = min(m, _min_label(c))
            subtree_min[v] = m
            return m

        _min_label(ROOT)
        self._parent = dict(parent)
        self._children = {n: tuple(sorted(ch, key=subtree_min.__getitem__))
                          for n, ch in children.items()}
        self._labels = tuple(sorted(parent))
        self._notation: str | None = None

    @property
    def parent(self) -> dict[int, int]:
        return dict(self._parent)

    @property
    def children(self) -> dict[int, tuple[int, ...]]:
        return dict(self._children)

    @property
    def labels(self) -> tuple[int, ...]:
        """Device labels in ascending order (root excluded)."""
        return self._labels

    @property
    def node_count(self) -> int:
        return len(self._labels)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Tree edges (parent, child) in canonical depth-first order."""
        out = []
        stack = list(reversed(self._children[ROOT]))
        while stack:
            v = stack.pop()
            out.append((self._parent[v], v))
            stack.extend(reversed(self._children[v]))
        return tuple(out)

    @property
    def leaves(self) -> tuple[int, ...]:
        return tuple(v for v in self._labels if not self._children[v])

    @property
    def notation(self) -> str:
        if self._notation is None:
            self._notation = serialize(self)
        return self._notation

    def __eq__(self, other):
        return isinstance(other, ConfigGraph) and self._parent == other._parent

    def __hash__(self):
        return hash(frozenset(self._parent.items()))

    def __repr__(self):
        return f"ConfigGraph({self.notation!r})"

    def to_json(self) -> str:
        return json.dumps({"edges": [list(e) for e in self.edges]})

    @classmethod
    def from_json(cls, text: str) -> "ConfigGraph":
        obj = json.loads(text)
        if not isinstance(obj, dict) or "edges" not in obj:
            raise GraphValidationError("expected a JSON object with an 'edges' key")
        return cls(obj["edges"])


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return ("end", None, self.pos)
        ch = self.text[self.pos]
        if ch in "(),":
            return (ch, ch, self.pos)
        if ch.isdigit():
            j = self.pos
            while j < len(self.text) and self.text[j].isdigit():
                j += 1
            return ("num", int(self.text[self.pos:j]), self.pos)
        raise NotationError(f"unexpected character {ch!r}", self.pos)

    def take(self, kind: str):
        tok = self.peek()
        if tok[0] != kind:
            raise NotationError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        if tok[0] == "num":
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
        else:
            self.pos += 1
        return tok


def parse_notation(text: str) -> ConfigGraph:
    """Parse the parenthesis notation into a :class:`ConfigGraph`.

    Raises :class:`NotationError` on malformed syntax (with position) and
    :class:`GraphValidationError` on duplicate labels.
    """
    tok = _Tokenizer(text)
    kind, value, pos = tok.take("num")
    if value != ROOT:
        raise NotationError(f"notation must start with root 0, found {value}", pos)
    edges: list[tuple[int, int]] = []
    seen = {ROOT}

    def parse_series(parent: int):
        kind, label, pos = tok.take("num")
        if label == ROOT:
            raise NotationError("root 0 may only appear first", pos)
        if label in seen:
            raise GraphValidationError(f"duplicate label {label}")
        seen.add(label)
        edges.append((parent, label))
        nxt = tok.peek()
        if nxt[0] == ",":
            tok.take(",")
            parse_series(label)
        elif nxt[0] == "(":
            while tok.peek()[0] == "(":
                parse_group(label)

    def parse_group(parent: int):
        tok.take("(")
        parse_series(parent)
        tok.take(")")

    if tok.peek()[0] != "(":
        raise NotationError("root must be followed by at least one (branch)", tok.peek()[2])
    while tok.peek()[0] == "(":
        parse_group(ROOT)
    trailing = tok.peek()
    if trailing[0] != "end":
        raise NotationError(f"trailing input {trailing[1]!r}", trailing[2])
    return ConfigGraph(edges)


def serialize(graph: ConfigGraph) -> str:
    """Canonical notation: branches ordered by smallest contained label,
    no space after commas, one space between sibling branches."""
    children = graph._children

    def branch(node: int) -> str:
        series = [node]
        while len(children[series[-1]]) == 1:
            series.append(children[series[-1]][0])
        text = ",".join(str(n) for n in series)
        tail = children[series[-1]]
        if tail:
            text += "".join(f" ({branch(c)})" for c in tail)
        return text

    return "0 " + " ".join(f"({branch(c)})" for c in children[ROOT])


@dataclass(frozen=True, eq=False)
class FlowMap:
    """Affine decomposition of branch flows into independent and dependent.

    At every node with k >= 2 outgoing edges the first k-1 edges (canonical
    order) carry independent, control-governed flows and the last one is
    dependent, fixed by mass conservation.  Every branch-edge flow is affine
    in the independent-flow vector x:  flows = edge_matrix @ x + edge_offset,
    with the offset proportional to the pump rate.
    """

    graph: ConfigGraph
    pump_rate: float
    branch_edges: tuple[tuple[int, int], ...]
    independent: tuple[tuple[int, int], ...]
    dependent: tuple[tuple[int, int], ...]
    m_matrix: np.ndarray = field(repr=False)    # (n_dep, n_indep)
    m_offset: np.ndarray = field(repr=False)    # (n_dep,)
    edge_matrix: np.ndarray = field(repr=False)  # (n_edges, n_indep)
    edge_offset: np.ndarray = field(repr=False)  # (n_edges,)

    @property
    def independent_count(self) -> int:
        return len(self.independent)

    def edge_flows(self, x) -> np.ndarray:
        """Flow on every branch edge (aligned with ``branch_edges``)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return self.edge_matrix @ x + self.edge_offset

    def dependent_flows(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return self.m_matrix @ x + self.m_offset

    def equal_split(self) -> np.ndarray:
        """Independent flows that split evenly at every junction."""
        x = np.zeros(self.independent_count)
        indep_idx = {e: i for i, e in enumerate(self.independent)}
        children = self.graph._children
        inflow = {ROOT: self.pump_rate}
        stack = [ROOT]
        while stack:
            v = stack.pop()
            ch = children[v]
            if not ch:
                continue
            share = inflow[v] / len(ch)
            for c in ch:
                inflow[c] = share
                if (v, c) in indep_idx:
                    x[indep_idx[(v, c)]] = share
                stack.append(c)
        return x


def build_flow_map(graph: ConfigGraph, pump_rate: float) -> FlowMap:
    """Decompose branch flows for ``graph`` driven at ``pump_rate`` kg/s."""
    if pump_rate <= 0:
        raise ValueError(f"pump_rate must be positive, got {pump_rate}")
    children = graph._children
    n_f = sum(len(ch) - 1 for ch in children.values() if len(ch) >= 2)

    branch_edges: list[tuple[int, int]] = []
    rows: list[np.ndarray] = []
    offsets: list[float] = []
    independent: list[tuple[int, int]] = []
    dependent: list[tuple[int, int]] = []
    next_index = 0

    def visit(v: int, coef: np.ndarray, off: float):
        nonlocal next_index
        ch = children[v]
        if not ch:
            return
        if len(ch) == 1:
            branch_edges.append((v, ch[0]))
            rows.append(coef)
            offsets.append(off)
            visit(ch[0], coef, off)
            return
        sibling_sum = np.zeros(n_f)
        for c in ch[:-1]:
            row = np.zeros(n_f)
            row[next_index] = 1.0
            next_index += 1
            branch_edges.append((v, c))
            rows.append(row)
            offsets.append(0.0)
            independent.append((v, c))
            sibling_sum += row
        last = ch[-1]
        branch_edges.append((v, last))
        rows.append(coef - sibling_sum)
        offsets.append(off)
        dependent.append((v, last))
        # recurse after all sibling edges are listed, preserving edge order
        for c, row, off_c in zip(ch, rows[-len(ch):], offsets[-len(ch):]):
            visit(c, row, off_c)

    visit(ROOT, np.zeros(n_f), pump_rate)

    edge_matrix = np.array(rows).reshape(len(branch_edges), n_f)
    edge_offset = np.array(offsets)
    dep_pos = [branch_edges.index(e) for e in dependent]
    m_matrix = edge_matrix[dep_pos].copy()
    m_offset = edge_offset[dep_pos].copy()
    return FlowMap(
        graph=graph,
        pump_rate=float(pump_rate),
        branch_edges=tuple(branch_edges),
        independent=tuple(independent),
        dependent=tuple(dependent),
        m_matrix=m_matrix,
        m_offset=m_offset,
        edge_matrix=edge_matrix,
        edge_offset=edge_offset,
    )
