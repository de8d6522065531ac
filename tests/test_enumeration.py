import itertools
import math

import pytest

from thermoforge import enumeration
from thermoforge.config import parse_notation
from thermoforge.enumeration import (
    EnumerationCapError,
    count_multi_split,
    count_single_split,
    enumerate_junction_placements,
    enumerate_single_split,
    enumerate_trees,
    generate_level_graphs,
    level_graph_at,
    level_graph_count,
)
from thermoforge.spatial import SuperNode, SuperNodeTree


def brute_force_single_split(n):
    """Independent oracle: all ways to split a permutation of 1..n into
    contiguous blocks, deduplicated as unordered sets of ordered branches."""
    seen = set()
    for perm in itertools.permutations(range(1, n + 1)):
        for k in range(1, n + 1):
            for cuts in itertools.combinations(range(1, n), k - 1):
                bounds = [0, *cuts, n]
                branches = frozenset(
                    tuple(perm[bounds[i]:bounds[i + 1]]) for i in range(k)
                )
                seen.add(branches)
    return len(seen)


class TestCounts:
    def test_known_values(self):
        assert count_single_split(3) == 13
        assert count_single_split(1) == 1
        assert count_single_split(4) == 73  # frozen from the brute-force oracle

    def test_against_brute_force(self):
        for n in range(1, 7):
            assert count_single_split(n) == brute_force_single_split(n)

    def test_zero_convention(self):
        assert count_single_split(0) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            count_single_split(-1)

    def test_cap(self):
        with pytest.raises(EnumerationCapError, match="cap of 20"):
            count_single_split(21)
        assert count_single_split(21, cap=25) > 0

    def test_monotone_growth(self):
        for n in range(1, 8):
            assert count_single_split(n + 1) > count_single_split(n)


class TestMultiSplitCounts:
    def test_one_junction_equals_single_split(self):
        for n in range(0, 9):
            assert count_multi_split(n, 1) == count_single_split(n)

    def test_hand_expanded(self):
        # F_2(1) = C(1,1) G(1) F_1(0) = 1;  F_2(2) = 2*1*1 + 1*3*1 = 5
        assert count_multi_split(1, 2) == 1
        assert count_multi_split(2, 2) == 5

    def test_base_case(self):
        assert count_multi_split(0, 3) == 1

    def test_recursion_term_by_term(self):
        for n in range(1, 9):
            for j in range(2, 5):
                total = sum(
                    math.comb(n, m) * count_single_split(m) * count_multi_split(n - m, j - 1)
                    for m in range(1, n + 1)
                )
                assert count_multi_split(n, j) == total

    def test_j_validation(self):
        with pytest.raises(ValueError):
            count_multi_split(3, 0)


class TestEnumerateSingleSplit:
    def test_three_devices(self):
        pop = enumerate_single_split(3)
        assert len(pop) == 13
        notations = set(pop.notations())
        assert {"0 (1) (2) (3)", "0 (1,2) (3)", "0 (3,2,1)"} <= notations

    def test_one_device(self):
        assert enumerate_single_split(1).notations() == ("0 (1)",)

    def test_two_devices(self):
        assert set(enumerate_single_split(2).notations()) == {
            "0 (1) (2)", "0 (1,2)", "0 (2,1)"
        }

    @pytest.mark.parametrize("n", range(1, 7))
    def test_sizes_match_counts(self, n):
        assert len(enumerate_single_split(n)) == count_single_split(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_duplicate_free(self, n):
        pop = enumerate_single_split(n)
        assert len(set(pop.notations())) == len(pop)

    def test_cap_refusal(self):
        with pytest.raises(EnumerationCapError, match="cap of 8"):
            enumerate_single_split(9)


def product_block_partitions(labels):
    """Reference: every set partition, each block in every order, in
    ``itertools.product``'s order over the blocks' permutations."""

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
        yield from itertools.product(*[itertools.permutations(block) for block in partition])


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: count_multi_split(-1, 2), ValueError, "nonnegative", id="multi-negative"),
    pytest.param(lambda: count_multi_split(21, 2), EnumerationCapError, "cap of 20",
                 id="multi-cap"),
    pytest.param(lambda: enumerate_single_split(0), ValueError, "at least 1",
                 id="single-split-empty"),
    pytest.param(lambda: enumerate_trees(0), ValueError, "at least 1", id="trees-empty"),
    pytest.param(lambda: enumerate_trees(9), EnumerationCapError, "cap of 8", id="trees-cap"),
])
def test_sizes_out_of_range_are_refused(call, error, match):
    with pytest.raises(error, match=match):
        call()


class TestBlockArrangements:
    @pytest.mark.parametrize("n", range(8))
    def test_order_is_the_product_order(self, n):
        labels = tuple(range(1, n + 1))
        assert (list(enumeration._ordered_block_partitions(labels))
                == list(product_block_partitions(labels)))

    def test_first_arrangement_builds_one_permutation(self, monkeypatch):
        # the first partition of 10 labels is one block; itertools.product
        # would build all 10! = 3,628,800 of its permutations first
        drawn = []
        permutations = itertools.permutations

        def counted(block):
            for perm in permutations(block):
                drawn.append(perm)
                yield perm

        monkeypatch.setattr(itertools, "permutations", counted)
        labels = tuple(range(1, 11))
        assert next(enumeration._ordered_block_partitions(labels)) == (labels,)
        assert drawn == [labels]


class TestEnumerateTrees:
    def test_two_devices(self):
        pop = enumerate_trees(2)
        assert pop.notations() == ("0 (1,2)",)

    def test_three_devices(self):
        # unrolled by hand: node 3 attaches under node 1 or node 2
        assert set(enumerate_trees(3).notations()) == {"0 (1 (2) (3))", "0 (1,2,3)"}

    @pytest.mark.parametrize("n", range(1, 8))
    def test_factorial_sizes(self, n):
        assert len(enumerate_trees(n)) == math.factorial(n - 1)

    def test_root_out_degree_one(self):
        for g in enumerate_trees(5):
            assert len(g.children[0]) == 1

    def test_complete_covers_decreasing_labels(self):
        pop = enumerate_trees(3, complete=True)
        assert len(pop) == 3**2  # n^(n-1)
        assert "0 (2,1,3)" in pop.notations()  # unreachable for the default scheme

    def test_complete_two(self):
        assert set(enumerate_trees(2, complete=True).notations()) == {
            "0 (1,2)", "0 (2,1)"
        }

    @pytest.mark.parametrize("n", range(1, 6))
    def test_complete_count(self, n):
        assert len(enumerate_trees(n, complete=True)) == n ** (n - 1)


def two_cluster_tree():
    """Super-node tree matching the six-device case study."""
    level0 = SuperNode(members=(1, 2, 3, 4, 5, 6), junction=0, parent_chain=())
    level1 = (
        SuperNode(members=(1, 2, 3), junction=2, parent_chain=(0,)),
        SuperNode(members=(4, 5, 6), junction=4, parent_chain=(0,)),
    )
    return SuperNodeTree(levels=((level0,), level1))


def one_level_tree(*clusters):
    """Level-1 super-node tree whose clusters each hang from the tank, the
    first member of each being its junction."""
    members = tuple(m for cluster in clusters for m in cluster)
    level0 = SuperNode(members=members, junction=0, parent_chain=())
    level1 = tuple(SuperNode(members=tuple(c), junction=c[0], parent_chain=(0,))
                   for c in clusters)
    return SuperNodeTree(levels=((level0,), level1))


@pytest.fixture
def arrangements_built(monkeypatch):
    """Root of every single-split arrangement whose edge list is built, in
    order."""
    built = []
    to_edges = enumeration._chains_to_edges

    def counted(root, chains):
        built.append(root)
        return to_edges(root, chains)

    monkeypatch.setattr(enumeration, "_chains_to_edges", counted)
    return built


class TestLevelGraphs:
    def test_nine_configurations(self):
        pop = generate_level_graphs(two_cluster_tree(), 1)
        assert len(pop) == 9
        for g in pop:
            assert g.children[0] == (2, 4)
            assert sorted(g.labels) == [1, 2, 3, 4, 5, 6]

    def test_population_matches_direct_indexing(self):
        tree = two_cluster_tree()
        pop = generate_level_graphs(tree, 1)
        assert level_graph_count(tree, 1) == 9
        for i, g in enumerate(pop):
            assert level_graph_at(tree, 1, i) == g

    def test_junction_only_cluster(self):
        level0 = SuperNode(members=(1,), junction=0, parent_chain=())
        level1 = (SuperNode(members=(1,), junction=1, parent_chain=(0,)),)
        tree = SuperNodeTree(levels=((level0,), level1))
        pop = generate_level_graphs(tree, 1)
        assert pop.notations() == ("0 (1)",)

    def test_junction_plus_one_free(self):
        level0 = SuperNode(members=(1, 2, 3), junction=0, parent_chain=())
        level1 = (
            SuperNode(members=(1, 2), junction=1, parent_chain=(0,)),
            SuperNode(members=(3,), junction=3, parent_chain=(0,)),
        )
        tree = SuperNodeTree(levels=((level0,), level1))
        pop = generate_level_graphs(tree, 1)
        # one sub-shape for the pair, one for the bare junction
        assert pop.notations() == ("0 (1,2) (3)",)

    def test_direct_indexing_with_mixed_cluster_sizes(self):
        # 3, 2 and 0 free members: 13 * 3 * 1 members, decoded as mixed
        # radix with the last cluster fastest
        tree = one_level_tree((1, 2, 3, 4), (5, 6, 7), (8,))
        pop = generate_level_graphs(tree, 1)
        assert level_graph_count(tree, 1) == len(pop) == 39
        for i, g in enumerate(pop):
            assert level_graph_at(tree, 1, i) == g

    def test_member_of_a_large_cluster_builds_one_arrangement(self, arrangements_built):
        # one cluster of nine devices, 8 free members: counting its 394,353
        # members used to build every one of them (2 s, 330 MB), and so did
        # building member 0
        tree = one_level_tree(tuple(range(1, 10)))
        assert level_graph_count(tree, 1) == 394_353
        assert level_graph_at(tree, 1, 0).notation == "0 (1,2,3,4,5,6,7,8,9)"
        assert len(arrangements_built) <= 1

    def test_member_far_into_a_large_cluster_builds_one_arrangement(self,
                                                                    arrangements_built):
        # member 1,000 used to build the edge lists of the 1,000
        # arrangements before it as well
        tree = one_level_tree(tuple(range(1, 10)))
        assert level_graph_at(tree, 1, 1000).notation == "0 (1,2,4,6,5,8,9,3,7)"
        assert arrangements_built == [1]

    def test_cap_is_checked_before_building(self, arrangements_built):
        tree = one_level_tree(tuple(range(1, 10)))
        with pytest.raises(EnumerationCapError, match="population=394353"):
            generate_level_graphs(tree, 1)
        assert arrangements_built == []

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            level_graph_at(two_cluster_tree(), 1, 9)

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(enumeration, "LEVEL_CAP", 5)
        with pytest.raises(EnumerationCapError, match="cap of 5"):
            generate_level_graphs(two_cluster_tree(), 1)

    def test_bad_level(self):
        with pytest.raises(ValueError):
            generate_level_graphs(two_cluster_tree(), 2)

    def test_empty_super_node_adds_nothing(self):
        level0 = SuperNode(members=(1,), junction=0, parent_chain=())
        level1 = (SuperNode(members=(), junction=None, parent_chain=(0,)),
                  SuperNode(members=(1,), junction=1, parent_chain=(0,)))
        tree = SuperNodeTree(levels=((level0,), level1))
        assert generate_level_graphs(tree, 1).notations() == ("0 (1)",)

    @pytest.mark.parametrize("level1, match", [
        pytest.param((SuperNode(members=(1, 2), junction=None, parent_chain=(0,)),),
                     r"super-node \(1, 2\) has no junction", id="no-junction"),
        pytest.param((SuperNode(members=(), junction=None, parent_chain=(0,)),),
                     "no populated super-nodes at level 1", id="no-members"),
    ])
    def test_malformed_level_is_named(self, level1, match):
        level0 = SuperNode(members=(1, 2), junction=0, parent_chain=())
        with pytest.raises(ValueError, match=match):
            level_graph_count(SuperNodeTree(levels=((level0,), level1)), 1)


class TestJunctionPlacements:
    def test_single_device(self):
        assert enumerate_junction_placements(1, 1).notations() == ("0 (1)",)

    def test_two_devices_one_junction(self):
        assert set(enumerate_junction_placements(2, 1).notations()) == {
            "0 (1,2)", "0 (2,1)"
        }

    def test_three_devices_structure(self):
        pop = enumerate_junction_placements(3, 1)
        # per junction choice the remainder arranges single-split beneath it
        assert len(pop) == 3 * count_multi_split(2, 1)
        assert len(set(pop.notations())) == len(pop)
        for g in pop:
            assert len(g.children[0]) == 1  # the junction hangs off the tank

    def test_two_junctions(self):
        pop = enumerate_junction_placements(3, 2)
        for g in pop:
            assert len(g.children[0]) == 2
        assert len(set(pop.notations())) == len(pop)
        assert "0 (1) (2,3)" in pop.notations()
        assert "0 (1,3) (2)" in pop.notations()

    def test_validation(self):
        with pytest.raises(ValueError):
            enumerate_junction_placements(2, 3)

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            enumerate_junction_placements(9, 1)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_one_junction_population_is_counted(self, n):
        # n junction choices, each over the other n - 1 devices; for two or
        # more junctions C(n, j) * count_multi_split(n - j, j) is not the
        # population's size (3 against 6 for n=3, j=2)
        assert len(enumerate_junction_placements(n, 1)) == n * count_multi_split(n - 1, 1)


def test_level_graphs_for_parsed_configs_match_case_study():
    pop = generate_level_graphs(two_cluster_tree(), 1)
    expected_member = parse_notation("0 (2 (1) (3)) (4,5,6)")
    assert expected_member.notation in pop.notations()


def brute_force_junction_layer(n, j):
    """Oracle: filter all parent assignments down to trees whose root has
    exactly j children with branching only at those children."""
    from thermoforge.config import ConfigGraph

    labels = list(range(1, n + 1))
    seen = set()
    for parents in itertools.product([0] + labels, repeat=n):
        children = {v: [] for v in [0] + labels}
        if any(p == lab for lab, p in zip(labels, parents)):
            continue
        for lab, p in zip(labels, parents):
            children[p].append(lab)
        reached, stack = set(), [0]
        while stack:
            v = stack.pop()
            if v in reached:
                break
            reached.add(v)
            stack.extend(children[v])
        if len(reached) != n + 1:
            continue
        junctions = children[0]
        if len(junctions) != j:
            continue
        if any(len(children[v]) > 1 for v in labels if v not in junctions):
            continue
        seen.add(ConfigGraph([(p, c) for c, p in zip(labels, parents)]).notation)
    return seen


@pytest.mark.parametrize("n,j", [(n, j) for n in range(1, 5) for j in range(1, n + 1)])
def test_junction_placements_match_brute_force(n, j):
    assert set(enumerate_junction_placements(n, j).notations()) == \
        brute_force_junction_layer(n, j)
