import json

import numpy as np
import pytest

from thermoforge.spatial import (
    DeviceLayout,
    build_supernode_tree,
    kmeans,
    select_cluster_count,
)

CASE_STUDY_POSITIONS = np.array(
    [[2, 0, 0], [2, 1, 0], [3, 1, 0], [12, 12, 0], [15, 10, 0], [13, 13, 0]],
    dtype=float,
)


class TestLayout:
    def test_json_roundtrip(self):
        lay = DeviceLayout(CASE_STUDY_POSITIONS)
        again = DeviceLayout.from_json(lay.to_json())
        np.testing.assert_allclose(again.positions, lay.positions)

    def test_missing_positions(self):
        # used to surface as a bare KeyError
        with pytest.raises(ValueError, match="positions"):
            DeviceLayout.from_json('{"heat_loads_kw": [5, 7]}')

    @pytest.mark.parametrize("key", ["heat_loads_kw", "loads_kw", "color"])
    def test_other_key_rejected(self, key):
        # a layout is positions only: heat_loads_kw used to be a second home
        # for a study's loads, and any other key was ignored
        text = json.dumps({"positions": [[0, 0, 0], [1, 0, 0]], key: [5, 7]})
        with pytest.raises(ValueError, match=rf"unknown layout keys: \['{key}'\].*loads_kw"):
            DeviceLayout.from_json(text)

    def test_pads_2d(self):
        lay = DeviceLayout(np.array([[1.0, 2.0]]))
        assert lay.positions.shape == (1, 3)
        assert lay.positions[0, 2] == 0.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            DeviceLayout(np.array([[np.nan, 0, 0]]))

    @pytest.mark.parametrize("text, name", [
        # cast as an array, this passed as positions [0 0 0], [1 0 0]
        ('{"positions": [["0",0,0],[true,0,0]]}', "positions"),
        ('{"positions": [[0,0,null]]}', "positions"),
        ('{"positions": "0,0,0"}', "positions"),
        # an OverflowError from the float cast before
        pytest.param(json.dumps({"positions": [[0, 0, 10**400]]}), "positions",
                     id="huge-int-positions"),
    ])
    def test_non_real_entries_rejected(self, text, name):
        with pytest.raises(ValueError, match=name):
            DeviceLayout.from_json(text)


class TestKmeans:
    def test_case_study_split(self):
        assign, cents = kmeans(CASE_STUDY_POSITIONS, 2, seed=0)
        groups = {tuple(np.where(assign == c)[0]) for c in np.unique(assign)}
        assert groups == {(0, 1, 2), (3, 4, 5)}
        # oracle: within-cluster spread far below the between-centroid gap
        gap = np.linalg.norm(cents[0] - cents[1])
        for c in np.unique(assign):
            members = CASE_STUDY_POSITIONS[assign == c]
            within = np.linalg.norm(members - members.mean(axis=0), axis=1).max()
            assert within < gap / 4

    def test_singletons_when_k_equals_n(self):
        assign, _ = kmeans(CASE_STUDY_POSITIONS, 6, seed=1)
        assert len(np.unique(assign)) == 6

    def test_identical_points(self):
        pts = np.tile([[1.0, 2.0, 3.0]], (4, 1))
        assign, cents = kmeans(pts, 1, seed=0)
        np.testing.assert_allclose(cents[0], [1.0, 2.0, 3.0])
        assert np.all(assign == 0)

    def test_empty_cluster_is_reseeded(self):
        # every point is nearest the first centroid, so the second cluster
        # empties and is re-seeded with a member
        pts = np.tile([[1.0, 2.0, 3.0]], (4, 1))
        assign, cents = kmeans(pts, 2, seed=0)
        np.testing.assert_allclose(cents, [[1.0, 2.0, 3.0]] * 2)
        assert sorted(set(assign)) == [0, 1]

    def test_deterministic(self):
        a1, c1 = kmeans(CASE_STUDY_POSITIONS, 2, seed=3)
        a2, c2 = kmeans(CASE_STUDY_POSITIONS, 2, seed=3)
        assert np.array_equal(a1, a2)
        np.testing.assert_array_equal(c1, c2)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            kmeans(CASE_STUDY_POSITIONS, 7, seed=0)


class TestSelectClusterCount:
    def test_case_study(self):
        assert select_cluster_count(CASE_STUDY_POSITIONS, seed=0) == 2

    def test_single_point(self):
        assert select_cluster_count(np.array([[1.0, 2.0, 3.0]])) == 1

    def test_identical_points(self):
        assert select_cluster_count(np.tile([[1.0, 0.0, 0.0]], (5, 1))) == 1

    def test_two_distant_pairs(self):
        pts = np.array([[0, 0, 0], [0.5, 0, 0], [10, 10, 0], [10.5, 10, 0.0]])
        assert select_cluster_count(pts, seed=0) == 2

    def test_three_groups(self):
        rng = np.random.default_rng(5)
        centers = np.array([[0, 0, 0], [30, 0, 0], [0, 30, 0]])
        pts = np.vstack([c + rng.uniform(-1, 1, (5, 3)) for c in centers])
        assert select_cluster_count(pts, seed=0) == 3


class TestSuperNodeTree:
    def test_case_study_level_one(self):
        lay = DeviceLayout(CASE_STUDY_POSITIONS)
        tree = build_supernode_tree(lay, num_levels=1, seed=0)
        assert tree.achieved_levels == 1
        sns = tree.levels[1]
        assert [sn.members for sn in sns] == [(1, 2, 3), (4, 5, 6)]
        # junction oracle: recompute centroid distances directly
        for sn in sns:
            pts = CASE_STUDY_POSITIONS[[m - 1 for m in sn.members]]
            centroid = pts.mean(axis=0)
            d = np.linalg.norm(pts - centroid, axis=1)
            best = d.min()
            tied = [m for m, dist in zip(sn.members, d) if dist <= best + 1e-12]
            assert sn.junction == min(tied)
        assert sns[0].junction == 2  # the device at (2, 1, 0)
        assert sns[1].junction == 4  # exact distance tie with 6, smaller label wins
        assert all(sn.parent_chain == (0,) for sn in sns)

    def test_partition_property(self):
        lay = DeviceLayout(CASE_STUDY_POSITIONS)
        tree = build_supernode_tree(lay, num_levels=2, seed=0)
        for level, parent_level in zip(tree.levels[1:], tree.levels[:-1]):
            got = sorted(m for sn in level for m in sn.members)
            assert len(got) == len(set(got))
        # every device remains reachable at the deepest level
        deepest = tree.levels[tree.achieved_levels]
        covered = {m for sn in deepest for m in sn.members}
        covered |= {j for sn in deepest for j in sn.parent_chain}
        assert set(lay.labels) <= covered

    def test_junction_minimality(self):
        rng = np.random.default_rng(11)
        lay = DeviceLayout(rng.uniform(0, 20, (9, 3)))
        tree = build_supernode_tree(lay, num_levels=2, seed=1)
        for level in tree.levels[1:]:
            for sn in level:
                pts = lay.positions[[m - 1 for m in sn.members]]
                centroid = pts.mean(axis=0)
                d = {m: np.linalg.norm(lay.position_of(m) - centroid) for m in sn.members}
                assert all(d[sn.junction] <= d[m] + 1e-12 for m in sn.members)

    def test_single_device(self):
        lay = DeviceLayout(np.array([[1.0, 1.0, 0.0]]))
        tree = build_supernode_tree(lay, num_levels=1, seed=0)
        assert tree.levels[1][0].members == (1,)
        assert tree.levels[1][0].junction == 1

    def test_stops_early_and_records_depth(self):
        lay = DeviceLayout(np.array([[0.0, 0, 0], [5.0, 0, 0]]))
        tree = build_supernode_tree(lay, num_levels=5, seed=0)
        assert tree.achieved_levels < 5

    def test_deterministic(self):
        lay = DeviceLayout(CASE_STUDY_POSITIONS)
        t1 = build_supernode_tree(lay, num_levels=2, seed=4)
        t2 = build_supernode_tree(lay, num_levels=2, seed=4)
        assert t1 == t2

    def test_two_level_nesting(self):
        # two far groups; within each, two sub-pairs so level 2 nests junctions
        base = []
        for cx in (0.0, 100.0):
            base += [[cx, 0, 0], [cx + 1, 0, 0], [cx + 0.5, 0.2, 0],
                     [cx, 30, 0], [cx + 1, 30, 0], [cx + 0.5, 30.2, 0],
                     [cx + 0.5, 15, 0]]
        lay = DeviceLayout(np.array(base))
        tree = build_supernode_tree(lay, num_levels=2, seed=0)
        assert tree.achieved_levels == 2
        for sn in tree.levels[2]:
            assert len(sn.parent_chain) >= 2  # tank plus a level-1 junction
            assert sn.parent_chain[0] == 0

    def test_num_levels_validation(self):
        with pytest.raises(ValueError):
            build_supernode_tree(DeviceLayout(CASE_STUDY_POSITIONS), 0)
