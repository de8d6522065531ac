"""Rooted-tree representation of multi-split coolant architectures.

A configuration is a tree rooted at the tank (node 0) whose remaining nodes
are cold-plate devices labeled with distinct positive integers.  The symbolic
notation writes each branch of a node in parentheses, with series devices
separated by commas: ``"0 (1,2) (3)"`` is the tree 0->1->2 plus a second
branch 0->3, and nesting marks a split at a device node.
"""

from __future__ import annotations

import json
import numbers
import re
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

ROOT = 0


def integral(value) -> bool:
    """True for an integer (numpy's included), False for a bool or a float."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def finite(value) -> bool:
    """True for a finite real number, numpy's included; False for a bool, a
    string, NaN, an infinity (json parses both) or an int too big for a float."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def all_finite(values) -> bool:
    """True when every entry of a (nested) sequence is a finite real number:
    as an array, [True, 4] is an integer array and ["5", 4] casts to floats."""
    return all(map(finite, np.asarray(values, dtype=object).flat))


def check_fields(record) -> None:
    """Check each field of a dataclass record against its default's kind: an
    integer field takes an integer, a real field a finite real number."""
    for f in fields(record):
        value = getattr(record, f.name)
        if integral(f.default):
            if not integral(value):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
        elif not finite(value):
            raise ValueError(f"{f.name} must be a finite real number, got {value!r}")


def overridden(record, overrides, what: str):
    """``record`` with the fields in the JSON object ``overrides`` replaced;
    ``what`` names the fields in errors."""
    if overrides is None:
        return record
    if not isinstance(overrides, dict):
        raise ValueError(f"{what} must be a JSON object, got {overrides!r}")
    unknown = set(overrides) - {f.name for f in fields(record)}
    if unknown:
        raise ValueError(f"unknown {what}: {sorted(unknown)}")
    return replace(record, **overrides)


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

        # Breadth-first order from the root.  Reaching every node is the
        # acyclicity check: with every non-root node having exactly one
        # parent, unreachable nodes can only sit on a cycle.
        order = [ROOT]
        for v in order:
            order.extend(children[v])
        if len(order) != len(nodes):
            missing = sorted(nodes - set(order))
            raise GraphValidationError(f"nodes {missing} are not connected to the root")

        # Canonical child order: by smallest label in each child's subtree.
        # Read in reverse, the order visits every child before its parent,
        # whose sorted first child then holds its subtree's smallest label.
        smallest: dict[int, int] = {}
        for v in reversed(order):
            ch = children[v] = tuple(sorted(children[v], key=smallest.__getitem__))
            smallest[v] = min(v, smallest[ch[0]]) if ch else v
        self._parent = dict(parent)
        self._children = children
        self._labels = tuple(sorted(parent))
        self._notation: str | None = None

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
        if not (isinstance(obj, dict) and isinstance(obj.get("edges"), list)):
            raise GraphValidationError("expected a JSON object whose 'edges' is a list of pairs")
        return cls(obj["edges"])


# a label (ASCII digits only), whose kind is "label", or any other single
# non-space character, whose kind is itself
_TOKEN = re.compile(r"(?P<label>[0-9]+)|\S")


def parse_notation(text: str) -> ConfigGraph:
    """Parse the parenthesis notation into a :class:`ConfigGraph`.

    The text is ``0`` then one or more branches; a branch is ``(``, device
    labels separated by commas, any nested branches of its last device,
    then ``)``.  Whitespace is ignored.  Raises :class:`NotationError` on
    malformed syntax (with position) and :class:`GraphValidationError` on
    duplicate labels.
    """
    tokens = [(m.lastgroup or m[0], m[0], m.start()) for m in _TOKEN.finditer(text)]
    tokens.append(("end of text", "end of text", len(text)))
    at = 0

    def take(kind: str) -> tuple[str, int]:
        nonlocal at
        found, tok, pos = tokens[at]
        if found != kind:
            raise NotationError(f"expected {kind!r}, found {tok}", pos)
        at += 1
        return tok, pos

    def number(tok: str, pos: int) -> int:
        try:
            return int(tok)
        except ValueError:  # past Python's integer string-conversion limit
            raise NotationError(f"label of {len(tok)} digits is too long", pos) from None

    def device(parent: int) -> int:
        tok, pos = take("label")
        label = number(tok, pos)
        if label == ROOT:
            raise NotationError("root 0 may only appear first", pos)
        if label in seen:
            raise GraphValidationError(f"duplicate label {label}")
        seen.add(label)
        edges.append((parent, label))
        return label

    def branch(parent: int):
        take("(")
        parent = device(parent)
        while tokens[at][0] == ",":
            take(",")
            parent = device(parent)
        while tokens[at][0] == "(":
            branch(parent)
        take(")")

    tok, pos = take("label")
    if number(tok, pos) != ROOT:
        raise NotationError(f"notation must start with root 0, found {tok}", pos)
    edges: list[tuple[int, int]] = []
    seen = {ROOT}
    branch(ROOT)
    while tokens[at][0] == "(":
        branch(ROOT)
    take("end of text")
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
    the offset proportional to the pump rate; ``m_matrix`` and ``m_offset``
    are its ``dependent_rows``.  ``equal_split`` is the x that splits the
    flow evenly at every junction.
    """

    graph: ConfigGraph
    pump_rate: float
    branch_edges: tuple[tuple[int, int], ...]
    independent: tuple[tuple[int, int], ...]
    dependent_rows: tuple[int, ...]              # of the dependent edges
    edge_matrix: np.ndarray = field(repr=False)  # (n_edges, n_indep)
    edge_offset: np.ndarray = field(repr=False)  # (n_edges,)
    equal_split: np.ndarray = field(repr=False)  # (n_indep,)

    @property
    def dependent(self) -> tuple[tuple[int, int], ...]:
        return tuple(self.branch_edges[i] for i in self.dependent_rows)

    @property
    def m_matrix(self) -> np.ndarray:
        return self.edge_matrix[list(self.dependent_rows)]

    @property
    def m_offset(self) -> np.ndarray:
        return self.edge_offset[list(self.dependent_rows)]

    def edge_flows(self, x) -> np.ndarray:
        """Flow on every branch edge (aligned with ``branch_edges``), row by
        row when ``x`` holds one independent-flow vector per row."""
        return np.atleast_1d(np.asarray(x, dtype=float)) @ self.edge_matrix.T + self.edge_offset

    def dependent_flows(self, x) -> np.ndarray:
        """The dependent edges' flows, row by row like :meth:`edge_flows`."""
        return np.atleast_1d(np.asarray(x, dtype=float)) @ self.m_matrix.T + self.m_offset


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
    dependent_rows: list[int] = []
    equal_split: list[float] = []
    next_index = 0

    # depth first with an explicit stack: a node's edges are listed when it
    # is popped, then each of its subtrees whole, in order.  ``share`` is the
    # flow through the node when every junction splits evenly
    stack = [(ROOT, np.zeros(n_f), pump_rate, float(pump_rate))]
    while stack:
        v, coef, off, share = stack.pop()
        ch = children[v]
        if not ch:
            continue
        if len(ch) == 1:
            branch_edges.append((v, ch[0]))
            rows.append(coef)
            offsets.append(off)
            stack.append((ch[0], coef, off, share))
            continue
        share /= len(ch)
        sibling_sum = np.zeros(n_f)
        for c in ch[:-1]:
            row = np.zeros(n_f)
            row[next_index] = 1.0
            next_index += 1
            branch_edges.append((v, c))
            rows.append(row)
            offsets.append(0.0)
            independent.append((v, c))
            equal_split.append(share)
            sibling_sum += row
        dependent_rows.append(len(branch_edges))
        branch_edges.append((v, ch[-1]))
        rows.append(coef - sibling_sum)
        offsets.append(off)
        stack.extend(reversed([(c, row, off_c, share) for c, row, off_c
                               in zip(ch, rows[-len(ch):], offsets[-len(ch):])]))

    return FlowMap(
        graph=graph,
        pump_rate=float(pump_rate),
        branch_edges=tuple(branch_edges),
        independent=tuple(independent),
        dependent_rows=tuple(dependent_rows),
        edge_matrix=np.array(rows).reshape(len(branch_edges), n_f),
        edge_offset=np.array(offsets),
        equal_split=np.array(equal_split),
    )
