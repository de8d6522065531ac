import csv
import json
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoforge import study
from thermoforge.cli import main as cli_main
from thermoforge.oloc import OlocOptions
from thermoforge.spatial import DeviceLayout
from thermoforge.thermal import PhysicsParams
from thermoforge.study import (
    RankedPopulation,
    StudyEntry,
    StudySpec,
    StudyError,
    build_population,
    percentile_scores,
    rank,
    run_study,
)

TINY_OLOC = {"segments": 12, "mesh_refinements": 0, "dense_points": 41}


def entry(notation, t_end, success=True, status="optimal"):
    return StudyEntry(notation=notation, t_end=t_end, objective=t_end,
                      penalty=0.0, status=status, success=success,
                      wall_arrival_spread=0.0, config_index=0)


class TestPercentiles:
    def test_three_point_definition(self):
        assert percentile_scores([10.0, 20.0, 30.0]) == [0.0, 50.0, 100.0]

    def test_all_equal_scores_zero(self):
        assert percentile_scores([5.0, 5.0, 5.0]) == [0.0, 0.0, 0.0]

    def test_single_entry(self):
        assert percentile_scores([42.0]) == [0.0]

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(
        st.lists(st.floats(min_value=0, max_value=1e4, allow_nan=False),
                 min_size=1, max_size=25),
        # many ties, where the count of strictly lower values matters most
        st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=1, max_size=25),
    ))
    def test_against_counting_oracle(self, values):
        scores = percentile_scores(values)
        n = len(values)
        for v, s in zip(values, scores):
            lower = sum(1 for o in values if o < v)
            expected = 0.0 if n == 1 else 100.0 * lower / (n - 1)
            assert s == expected
        assert all(0.0 <= s <= 100.0 for s in scores)


class TestRank:
    def test_sorted_descending_with_ties_by_notation(self):
        entries = [entry("0 (2,1)", 10.0), entry("0 (1,2)", 10.0),
                   entry("0 (1) (2)", 30.0)]
        ranked = rank(entries)
        assert [e.notation for e in ranked.entries] == [
            "0 (1) (2)", "0 (1,2)", "0 (2,1)"]
        assert ranked.percentiles == (100.0, 0.0, 0.0)

    def test_failures_separated(self):
        entries = [entry("0 (1,2)", 10.0),
                   entry("0 (2,1)", float("nan"), success=False, status="error: x")]
        ranked = rank(entries)
        assert len(ranked.entries) == 1
        assert len(ranked.failures) == 1
        assert ranked.failures[0].notation == "0 (2,1)"

    def test_failure_status_is_one_csv_field(self, tmp_path):
        # a failure's status is exception text, with commas and quotes
        statuses = ["error: operands could not be broadcast together with shapes (3,) (4,)",
                    'error: step size underflow; try method="BDF"']
        entries = [entry("0 (1,2)", 10.0)] + [
            entry(f"0 ({i}) (9)", float("nan"), success=False, status=status)
            for i, status in enumerate(statuses, start=1)]
        study.report(rank(entries), tmp_path)
        with open(tmp_path / "failures.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["notation", "status"], ["0 (1) (9)", statuses[0]],
                        ["0 (2) (9)", statuses[1]]]

    def test_no_successes(self):
        with pytest.raises(StudyError):
            rank([entry("0 (1)", float("nan"), success=False)])

    def test_best_worst(self):
        ranked = rank([entry("0 (1,2)", 10.0), entry("0 (2,1)", 12.0)])
        assert ranked.best.notation == "0 (2,1)"
        assert ranked.worst.notation == "0 (1,2)"


def two_device_spec(tmp_path, parallelism=1, out=True):
    return StudySpec(
        layout=DeviceLayout(np.array([[0.0, 0, 0], [1.0, 0, 0]])),
        loads_w={1: 7000.0, 2: 4000.0},
        strategy="single_split",
        oloc=__import__("thermoforge.oloc", fromlist=["OlocOptions"]).OlocOptions(
            **TINY_OLOC),
        parallelism=parallelism,
        out_dir=str(tmp_path / "out") if out else None,
    )


class TestSpec:
    def test_from_json(self, tmp_path):
        spec = StudySpec.from_json(json.dumps({
            "layout": {"positions": [[0, 0, 0], [1, 0, 0]],
                       "heat_loads_kw": [7, 4]},
            "strategy": "single_split",
            "oloc": TINY_OLOC,
            "parallelism": 2,
        }))
        assert spec.loads_w == {1: 7000.0, 2: 4000.0}
        assert spec.oloc.segments == 12

    def test_loads_override_layout(self):
        spec = StudySpec.from_json(json.dumps({
            "layout": {"positions": [[0, 0, 0]], "heat_loads_kw": [7]},
            "loads_kw": [9],
            "strategy": "single_split",
        }))
        assert spec.loads_w == {1: 9000.0}

    def test_missing_loads(self):
        with pytest.raises(StudyError):
            StudySpec.from_json(json.dumps({
                "layout": {"positions": [[0, 0, 0]]},
                "strategy": "single_split",
            }))

    def test_unknown_strategy(self):
        with pytest.raises(StudyError):
            StudySpec(layout=DeviceLayout(np.array([[0.0, 0, 0]])),
                      loads_w={1: 1.0}, strategy="genetic")

    def test_layout_file_reference(self, tmp_path):
        (tmp_path / "layout.json").write_text(json.dumps({
            "positions": [[0, 0, 0], [9, 0, 0]], "heat_loads_kw": [5, 5]}))
        spec = StudySpec.from_json(json.dumps({
            "layout_file": "layout.json", "strategy": "single_split"}),
            base_dir=tmp_path)
        assert spec.layout.device_count == 2

    @pytest.mark.parametrize("change, match", [
        # a misspelled key used to be ignored, so the study ran on defaults
        ({"olc": {"segments": 12}}, "olc"),
        ({"layout_file": "layout.json"}, "layout_file"),
        # num_levels used to be cast to 1; a float config_num failed later
        ({"num_levels": 1.7}, "num_levels"),
        ({"config_num": 1.5}, "config_num"),
        ({"parallelism": "2"}, "parallelism"),
    ])
    def test_rejected(self, change, match):
        obj = {"layout": {"positions": [[0, 0, 0], [1, 0, 0]], "heat_loads_kw": [7, 4]},
               "strategy": "single_split", **change}
        with pytest.raises(StudyError, match=match):
            StudySpec.from_json(json.dumps(obj))


class TestPopulations:
    def test_single_split_population(self, tmp_path):
        spec = two_device_spec(tmp_path, out=False)
        pop = build_population(spec)
        assert set(pop.notations()) == {"0 (1) (2)", "0 (1,2)", "0 (2,1)"}

    def test_config_num_selects_one(self, tmp_path):
        spec = two_device_spec(tmp_path, out=False)
        spec = StudySpec(**{**spec.__dict__, "config_num": 1})
        pop = build_population(spec)
        assert len(pop) == 1

    @pytest.mark.parametrize("strategy, positions", [
        ("single_split", [[0, 0, 0], [1, 0, 0], [6, 0, 0]]),
        ("spatial_junctions", [[2, 0, 0], [2, 1, 0], [3, 1, 0],
                               [12, 12, 0], [15, 10, 0], [13, 13, 0]]),
    ])
    def test_config_num_out_of_range(self, strategy, positions):
        # single_split used to study the last member at -1, and both
        # strategies raised a bare IndexError past the end
        base = {"layout": DeviceLayout(np.array(positions, dtype=float)),
                "loads_w": {i: 1.0 for i in range(1, len(positions) + 1)},
                "strategy": strategy}
        with pytest.raises(StudyError, match="non-negative"):
            StudySpec(**base, config_num=-1)
        size = len(build_population(StudySpec(**base)))
        assert size > 1
        assert len(build_population(StudySpec(**base, config_num=size - 1))) == 1
        with pytest.raises(StudyError, match="out of range"):
            build_population(StudySpec(**base, config_num=size))

    def test_spatial_population(self):
        positions = np.array([[2, 0, 0], [2, 1, 0], [3, 1, 0],
                              [12, 12, 0], [15, 10, 0], [13, 13, 0]], dtype=float)
        spec = StudySpec(layout=DeviceLayout(positions),
                         loads_w={i: 5000.0 for i in range(1, 7)},
                         strategy="spatial_junctions", num_levels=1)
        pop = build_population(spec)
        assert len(pop) == 9

    def test_enumerated_junctions_population(self):
        spec = StudySpec(layout=DeviceLayout(np.array([[0., 0, 0], [1., 0, 0]])),
                         loads_w={1: 1.0, 2: 1.0},
                         strategy="enumerated_junctions", junctions=1)
        assert set(build_population(spec).notations()) == {"0 (1,2)", "0 (2,1)"}

    @pytest.mark.parametrize("junctions", [5, -1])
    def test_enumerated_junctions_out_of_range(self, junctions):
        # used to surface later, from enumeration, as "need 1 <= j <= n"
        with pytest.raises(StudyError, match="junctions"):
            StudySpec(layout=DeviceLayout(np.array([[0., 0, 0], [1., 0, 0]])),
                      loads_w={1: 1.0, 2: 1.0}, strategy="enumerated_junctions",
                      junctions=junctions)


@pytest.fixture(scope="module")
def study_result(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("study")
    spec = two_device_spec(tmp)
    return spec, run_study(spec), tmp


class TestRunStudy:
    def test_every_config_accounted_for(self, study_result):
        spec, ranked, _ = study_result
        assert len(ranked.entries) + len(ranked.failures) == 3

    def test_artifacts_written(self, study_result):
        spec, ranked, tmp = study_result
        out = tmp / "out"
        assert json.loads((out / "population.json").read_text()) == [
            "0 (1) (2)", "0 (1,2)", "0 (2,1)"]
        lines = (out / "ranking.csv").read_text().splitlines()
        assert lines[0] == ("rank,notation,t_end_s,objective,penalty,status,"
                            "verified_t_end_s,verification_gap")
        assert len(lines) == 1 + len(ranked.entries)
        with open(out / "ranking.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row, e in zip(rows, ranked.entries):
            assert float(row["verification_gap"]) == e.verification_gap
            assert float(row["verified_t_end_s"]) == pytest.approx(e.verified_t_end,
                                                                   abs=5e-7)
        pct = (out / "percentile.csv").read_text().splitlines()
        assert len(pct) == 1 + len(ranked.entries)
        assert sorted(p.name for p in (out / "solutions").iterdir()) == [
            "cfg_000.csv", "cfg_001.csv", "cfg_002.csv"]
        summary = (out / "summary.txt").read_text()
        assert ranked.best.notation in summary

    def test_parallel_matches_serial(self, study_result, tmp_path):
        spec, ranked, _ = study_result
        par_spec = two_device_spec(tmp_path, parallelism=2)
        par = run_study(par_spec)

        def values(population):
            # NaN-aware: a NaN field is not equal to itself
            return [[None if v != v else v for v in astuple(e)]
                    for e in population.entries + population.failures]

        assert values(par) == values(ranked)
        assert par.percentiles == ranked.percentiles

    def test_rerun_byte_identical(self, study_result, tmp_path):
        spec, _, tmp = study_result
        spec2 = two_device_spec(tmp_path)
        run_study(spec2)
        for name in ("ranking.csv", "percentile.csv", "population.json"):
            assert (tmp / "out" / name).read_bytes() == \
                (tmp_path / "out" / name).read_bytes()

    def test_numerical_failure_is_recorded(self, monkeypatch):
        def diverge(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(study, "evaluate_endurance", diverge)
        job = (4, "0 (1) (2)", {1: 2000.0, 2: 1000.0}, PhysicsParams(),
               OlocOptions(**TINY_OLOC), None)
        out = study._evaluate_worker(job)
        assert out.config_index == 4
        assert not out.success
        assert out.status == "error: Factor is exactly singular"

    def test_code_defect_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(study, "evaluate_endurance", broken)
        job = (0, "0 (1) (2)", {1: 2000.0, 2: 1000.0}, PhysicsParams(),
               OlocOptions(**TINY_OLOC), None)
        with pytest.raises(TypeError, match="unsupported operand"):
            study._evaluate_worker(job)

    def test_parallel_flag_heeds_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("THERMOFORGE_WORKERS", "1")
        spec = two_device_spec(tmp_path, parallelism=8)
        from thermoforge.study import _worker_count
        assert _worker_count(spec) == 1


class TestCli:
    def test_count(self, capsys):
        assert cli_main(["count", "--nodes", "3"]) == 0
        assert capsys.readouterr().out.strip() == "13"

    def test_count_with_junctions(self, capsys):
        assert cli_main(["count", "--nodes", "2", "--junctions", "2"]) == 0
        assert capsys.readouterr().out.strip() == "5"

    def test_enumerate_to_file(self, tmp_path, capsys):
        out = tmp_path / "pop.json"
        assert cli_main(["enumerate", "--nodes", "2", "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == ["0 (1) (2)", "0 (1,2)", "0 (2,1)"]

    def test_cluster(self, tmp_path, capsys):
        layout = tmp_path / "layout.json"
        layout.write_text(json.dumps({
            "positions": [[2, 0, 0], [2, 1, 0], [3, 1, 0],
                          [12, 12, 0], [15, 10, 0], [13, 13, 0]]}))
        assert cli_main(["cluster", "--layout", str(layout), "--levels", "1"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["achieved_levels"] == 1
        assert [sn["junction"] for sn in obj["levels"][1]] == [2, 4]

    def test_solve(self, tmp_path, capsys):
        opts = tmp_path / "oloc.json"
        opts.write_text(json.dumps(TINY_OLOC))
        out = tmp_path / "sol"
        code = cli_main(["solve", "--config", "0 (1)", "--loads", "8",
                         "--options", str(opts), "--out", str(out)])
        assert code == 0
        assert (out / "trajectory.csv").exists()
        summary = json.loads((out / "solution.json").read_text())
        assert summary["config"] == "0 (1)"
        # a series-only answer is the simulation of its own schedule
        assert summary["verified_t_end"] == summary["t_end"]
        assert summary["verification_gap"] == 0.0
        printed = capsys.readouterr().out
        assert printed.startswith("config:")
        assert "verified:" in printed

    def test_solve_load_count_mismatch(self, capsys):
        assert cli_main(["solve", "--config", "0 (1,2)", "--loads", "8"]) == 2

    def test_run(self, tmp_path, capsys):
        spec_file = tmp_path / "study.json"
        spec_file.write_text(json.dumps({
            "layout": {"positions": [[0, 0, 0], [1, 0, 0]],
                       "heat_loads_kw": [7, 4]},
            "strategy": "single_split",
            "oloc": TINY_OLOC,
            "out_dir": str(tmp_path / "results"),
        }))
        assert cli_main(["run", "--spec", str(spec_file)]) == 0
        assert (tmp_path / "results" / "ranking.csv").exists()
        assert "rank" in capsys.readouterr().out
