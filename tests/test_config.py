import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoforge.config import (
    ConfigGraph,
    GraphValidationError,
    NotationError,
    build_flow_map,
    parse_notation,
    serialize,
)


def edges_of(graph):
    return set(graph.edges)


class TestParse:
    def test_two_branch_example(self):
        g = parse_notation("0 (1,2) (3)")
        assert edges_of(g) == {(0, 1), (1, 2), (0, 3)}

    def test_smallest(self):
        g = parse_notation("0 (1)")
        assert edges_of(g) == {(0, 1)}

    def test_nested_splits(self):
        g = parse_notation("0 (1, 2 (3,4) (5)) (7) (8 (9,10)) (11)")
        assert edges_of(g) == {
            (0, 1), (1, 2), (2, 3), (3, 4), (2, 5),
            (0, 7), (0, 8), (8, 9), (9, 10), (0, 11),
        }
        # splits occur at nodes 2 and 8... node 8's single branch is a chain
        assert g.children[2] == (3, 5)

    def test_whitespace_tolerant(self):
        assert parse_notation("0  ( 1 , 2 )  (3)") == parse_notation("0 (1,2) (3)")

    @pytest.mark.parametrize("bad", ["0", "0 1", "(1)", "0 (1", "0 (1))", "0 ()",
                                     "0 (1,) (2)", "1 (2)", "0 (a)"])
    def test_malformed(self, bad):
        with pytest.raises(NotationError):
            parse_notation(bad)

    def test_error_carries_position(self):
        with pytest.raises(NotationError) as err:
            parse_notation("0 (1,2) x")
        assert err.value.position == 8

    def test_duplicate_label(self):
        with pytest.raises(GraphValidationError, match="duplicate"):
            parse_notation("0 (1,2) (2)")


class TestSerialize:
    def test_all_parallel(self):
        assert serialize(ConfigGraph([(0, 1), (0, 2), (0, 3)])) == "0 (1) (2) (3)"

    def test_series_plus_branch(self):
        assert serialize(ConfigGraph([(0, 1), (1, 2), (0, 3)])) == "0 (1,2) (3)"

    def test_series_order_preserved(self):
        assert serialize(ConfigGraph([(0, 2), (2, 1)])) == "0 (2,1)"

    def test_branch_order_by_smallest_subtree_label(self):
        g = ConfigGraph([(0, 5), (0, 2), (2, 1)])
        assert serialize(g) == "0 (2,1) (5)"

    def test_roundtrip_paper_example(self):
        text = "0 (1, 2 (3,4) (5)) (7) (8 (9,10)) (11)"
        g = parse_notation(text)
        assert parse_notation(serialize(g)) == g
        # canonical form removes redundant parentheses and spaces
        assert serialize(g) == "0 (1,2 (3,4) (5)) (7) (8,9,10) (11)"


class TestGraphValidation:
    def test_two_parents(self):
        with pytest.raises(GraphValidationError):
            ConfigGraph([(0, 1), (0, 2), (1, 2)])

    def test_disconnected_cycle(self):
        with pytest.raises(GraphValidationError):
            ConfigGraph([(0, 1), (2, 3), (3, 2)])

    def test_nonpositive_label(self):
        with pytest.raises(GraphValidationError):
            ConfigGraph([(0, -1)])

    def test_empty(self):
        with pytest.raises(GraphValidationError):
            ConfigGraph([])

    def test_json_roundtrip(self):
        g = parse_notation("0 (1,2) (3)")
        again = ConfigGraph.from_json(g.to_json())
        assert again == g
        assert json.loads(g.to_json())["edges"] == [[0, 1], [1, 2], [0, 3]]

    @pytest.mark.parametrize("edges", [
        # int() used to truncate these to ConfigGraph('0 (1,2)')
        [[0, 1.5], [1.2, 2]],
        [[0.0, 1]],
        [[0, 1], [True, 2]],
        [[0, "3"]],
        [[0, None]],
    ])
    def test_non_integer_label(self, edges):
        with pytest.raises(GraphValidationError, match="not an integer"):
            ConfigGraph.from_json(json.dumps({"edges": edges}))

    @pytest.mark.parametrize("edge", [5, [0], [0, 1, 2], {}, "0"])
    def test_edge_not_a_pair(self, edge):
        with pytest.raises(GraphValidationError, match="pair"):
            ConfigGraph([edge])

    def test_numpy_integer_labels(self):
        g = ConfigGraph([(np.int64(0), np.int64(1)), (np.int32(1), np.int64(2))])
        assert g == parse_notation("0 (1,2)")
        assert all(type(lab) is int for lab in g.labels)


@st.composite
def random_trees(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    labels = list(range(1, n + 1))
    draw(st.randoms()).shuffle(labels)
    edges = [(0, labels[0])]
    for i in range(1, n):
        parent = labels[draw(st.integers(min_value=0, max_value=i - 1))]
        if draw(st.booleans()):
            parent = 0
        edges.append((parent, labels[i]))
    return ConfigGraph(edges)


@settings(max_examples=80, deadline=None)
@given(random_trees())
def test_parse_serialize_roundtrip(graph):
    assert parse_notation(serialize(graph)) == graph


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(alphabet="0123456789(), ", max_size=30),
                 st.text(alphabet="0123456789(), ", max_size=30).map("0 (".__add__)))
def test_any_text_parses_canonically_or_fails_with_a_position(text):
    """Text over the notation alphabet parses to a graph its own notation
    reproduces, or fails as malformed (with a position in the text) or as
    a duplicate label; no other exception escapes."""
    try:
        graph = parse_notation(text)
    except NotationError as err:
        assert 0 <= err.position <= len(text)
    except GraphValidationError:
        pass
    else:
        assert parse_notation(graph.notation) == graph


def random_feasible_flows(flow_map, rng):
    """Independent flows from random split fractions at each junction."""
    graph = flow_map.graph
    x = np.zeros(flow_map.independent_count)
    idx = {e: i for i, e in enumerate(flow_map.independent)}
    inflow = {0: flow_map.pump_rate}
    stack = [0]
    while stack:
        v = stack.pop()
        ch = graph.children[v]
        if not ch:
            continue
        fractions = rng.dirichlet(np.ones(len(ch))) if len(ch) > 1 else np.array([1.0])
        for c, frac in zip(ch, fractions):
            inflow[c] = inflow[v] * frac
            if (v, c) in idx:
                x[idx[(v, c)]] = inflow[c]
            stack.append(c)
    return x


class TestFlowMap:
    def test_three_parallel(self):
        fm = build_flow_map(parse_notation("0 (1) (2) (3)"), 0.4)
        assert fm.independent_count == 2
        assert fm.dependent == ((0, 3),)
        # dependent = pump - x1 - x2
        np.testing.assert_allclose(fm.dependent_flows([0.1, 0.25]), [0.05], atol=1e-15)

    def test_pure_series(self):
        fm = build_flow_map(parse_notation("0 (1,2,3)"), 0.4)
        assert fm.independent_count == 0
        np.testing.assert_allclose(fm.edge_flows(np.zeros(0)), [0.4, 0.4, 0.4])

    def test_split_below_root(self):
        fm = build_flow_map(parse_notation("0 (1 (2) (3))"), 0.4)
        assert fm.independent_count == 1
        flows = dict(zip(fm.branch_edges, fm.edge_flows([0.15])))
        # conservation at node 1, checked by hand: 0.4 in, 0.15 + 0.25 out
        assert flows[(0, 1)] == pytest.approx(0.4, abs=1e-15)
        assert flows[(1, 2)] == pytest.approx(0.15, abs=1e-15)
        assert flows[(1, 3)] == pytest.approx(0.25, abs=1e-15)

    def test_independent_count_formula(self):
        g = parse_notation("0 (1,2 (3,4) (5)) (7) (8 (9,10)) (11)")
        fm = build_flow_map(g, 0.4)
        expected = sum(len(ch) - 1 for ch in g.children.values() if len(ch) >= 2)
        assert fm.independent_count == expected

    def test_split_invariant_per_node(self):
        g = parse_notation("0 (1 (2) (3) (4)) (5)")
        fm = build_flow_map(g, 0.4)
        for node, ch in g.children.items():
            if len(ch) < 2:
                continue
            indep = [e for e in fm.independent if e[0] == node]
            dep = [e for e in fm.dependent if e[0] == node]
            assert len(indep) == len(ch) - 1
            assert len(dep) == 1

    def test_edge_partition(self):
        g = parse_notation("0 (1 (2) (3)) (4,5)")
        fm = build_flow_map(g, 0.4)
        pass_through = [e for e in fm.branch_edges
                        if e not in fm.independent and e not in fm.dependent]
        assert (fm.independent_count + len(fm.dependent) + len(pass_through)
                == len(fm.branch_edges))

    def test_pump_rate_validation(self):
        with pytest.raises(ValueError):
            build_flow_map(parse_notation("0 (1)"), 0.0)

    def test_equal_split_is_feasible(self):
        fm = build_flow_map(parse_notation("0 (1 (2) (3)) (4) (5,6)"), 0.4)
        x = fm.equal_split
        assert np.all(x >= 0) and np.all(x <= 0.4)
        dep = fm.dependent_flows(x)
        assert np.all(dep >= 0) and np.all(dep <= 0.4)


@settings(max_examples=60, deadline=None)
@given(random_trees(), st.integers(min_value=0, max_value=2**32 - 1))
def test_conservation_everywhere(graph, seed):
    """Node-wise conservation holds exactly for any feasible flow vector."""
    fm = build_flow_map(graph, 0.4)
    rng = np.random.default_rng(seed)
    x = random_feasible_flows(fm, rng)
    flows = dict(zip(fm.branch_edges, fm.edge_flows(x)))
    inflow = {0: 0.4}
    for (p, c), f in flows.items():
        inflow[c] = f
    for v in [0, *graph.labels]:
        ch = graph.children[v]
        if ch:
            assert abs(inflow[v] - sum(flows[(v, c)] for c in ch)) <= 1e-12
    assert np.all(fm.edge_flows(x) >= -1e-12)
