import csv
import json
import time
from dataclasses import astuple, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoforge import study
from thermoforge.cli import build_parser
from thermoforge.cli import main as cli_main
from thermoforge.enumeration import (
    COUNT_CAP,
    GENERATE_CAP,
    EnumerationCapError,
    enumerate_junction_placements,
)
from thermoforge.config import parse_notation
from thermoforge.oloc import SUCCESS_STATUSES, EnduranceRecord, OlocOptions, evaluate_endurance
from thermoforge.spatial import DeviceLayout, build_supernode_tree
from thermoforge.thermal import PhysicsParams, build_model
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
ONE_DEVICE = {"layout": {"positions": [[0, 0, 0]]}, "loads_kw": [7]}
SOLVE = ["solve", "--config", "0 (1) (2)", "--loads", "1,4"]
RUN = ["run", "--spec", "study.json"]
LAYOUT_LOADS = json.dumps({"positions": [[0, 0, 0]], "heat_loads_kw": [7]})
# (argv, files written first, start of the error line after "error: ")
INPUT_ERRORS = [
    (["solve", "--config", "0 (1) (2)", "--loads", "nan,4"], {},
     "heat load of device label(s) [1] must be finite"),
    (["solve", "--config", "0 (1) (2)", "--loads", "1,x"], {},
     "--loads: could not convert string to float: 'x'"),
    (["solve", "--config", "0 (1) (2", "--loads", "1,4"], {}, "expected ')'"),
    (SOLVE + ["--options", "oloc.json"], {"oloc.json": '{"t_max": 10}'},
     "initial temperature 20.0 already violates the bound T <= t_max = 10"),
    (SOLVE + ["--params", "physics.json"], {"physics.json": '{"pump_flow": '},
     "Expecting value"),
    (["count", "--nodes", "30"], {}, "n=30 exceeds the cap of 20"),
    (["enumerate", "--nodes", "2", "--strategy", "junction_placements"], {},
     "--junctions is required for junction_placements"),
    (RUN, {"study.json": json.dumps({**ONE_DEVICE, "strategy": "single_split",
                                     "out_dir": 5})},
     "out_dir must be a non-empty path string, got 5"),
    (["run", "--spec", "missing.json"], {}, "[Errno 2] No such file or directory"),
    # a non-object spec, layout, layout_file, section or file used to end in
    # a TypeError traceback with exit status 1
    (RUN, {"study.json": "[]"}, "a study spec must be a JSON object, got []"),
    (RUN, {"study.json": "5"}, "a study spec must be a JSON object, got 5"),
    (RUN, {"study.json": '{"layout": 5, "strategy": "single_split"}'},
     "layout must be a JSON object, got 5"),
    (RUN, {"study.json": '{"layout_file": 5, "strategy": "single_split"}'},
     "layout_file must be a path string, got 5"),
    (RUN, {"study.json": json.dumps({**ONE_DEVICE, "physics": 5})},
     "physics parameters must be a JSON object, got 5"),
    (RUN, {"study.json": json.dumps({**ONE_DEVICE, "oloc": [1, 2]})},
     "OLOC options must be a JSON object, got [1, 2]"),
    (RUN, {"study.json": json.dumps({**ONE_DEVICE, "physics": ["ha_cphx"]})},
     "physics parameters must be a JSON object, got ['ha_cphx']"),
    (SOLVE + ["--params", "physics.json"], {"physics.json": "5"},
     "physics parameters must be a JSON object, got 5"),
    (SOLVE + ["--options", "oloc.json"], {"oloc.json": "[1, 2]"},
     "OLOC options must be a JSON object, got [1, 2]"),
    (["cluster", "--layout", "layout.json"], {"layout.json": "5"},
     "a layout must be a JSON object, got 5"),
    # an OverflowError from math.isfinite before
    (SOLVE + ["--options", "oloc.json"], {"oloc.json": json.dumps({"t_max": 10**400})},
     "t_max must be a finite real number"),
    # a layout's loads used to be read, or ignored when loads_kw was given
    (RUN, {"study.json": json.dumps({"layout_file": "layout.json", "loads_kw": [7]}),
           "layout.json": LAYOUT_LOADS},
     "layout: unknown layout keys: ['heat_loads_kw']"),
    (["cluster", "--layout", "layout.json"], {"layout.json": LAYOUT_LOADS},
     "unknown layout keys: ['heat_loads_kw']"),
    # passed, and failed only after the solution was printed, naming no option
    (SOLVE + ["--options", "oloc.json"], {"oloc.json": json.dumps({"dense_points": 10**400})},
     "dense_points must be at most 1000000"),
    # numpy's "expected non-negative integer" with two or more devices,
    # exit status 0 with one
    (["cluster", "--layout", "layout.json", "--seed", "-1"],
     {"layout.json": json.dumps({"positions": [[0, 0, 0], [1, 0, 0], [0, 1, 0]]})},
     "seed must be non-negative, got -1"),
    # a flag only another strategy reads used to be dropped without a word
    (["enumerate", "--nodes", "3", "--junctions", "2"], {},
     "--junctions applies to --strategy junction_placements only, not single_split"),
    (["enumerate", "--nodes", "3", "--complete"], {},
     "--complete applies to --strategy trees only, not single_split"),
]


def entry(notation, t_end, status="optimal"):
    return StudyEntry(notation=notation, t_end=t_end, penalty=0.0, status=status,
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
                   entry("0 (2,1)", float("nan"), status="error: x")]
        ranked = rank(entries)
        assert len(ranked.entries) == 1
        assert len(ranked.failures) == 1
        assert ranked.failures[0].notation == "0 (2,1)"

    def test_failure_status_is_one_csv_field(self, tmp_path):
        # a failure's status is exception text, with commas and quotes
        statuses = ["error: operands could not be broadcast together with shapes (3,) (4,)",
                    'error: step size underflow; try method="BDF"']
        entries = [entry("0 (1,2)", 10.0)] + [
            entry(f"0 ({i}) (9)", float("nan"), status=status)
            for i, status in enumerate(statuses, start=1)]
        study.report(rank(entries), tmp_path)
        with open(tmp_path / "failures.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["notation", "status"], ["0 (1) (9)", statuses[0]],
                        ["0 (2) (9)", statuses[1]]]

    def test_no_successes(self):
        # an all-failed study keeps its failures; rank used to raise
        ranked = rank([entry("0 (1)", float("nan"), status="infeasible")])
        assert ranked.entries == () and ranked.percentiles == ()
        assert [e.notation for e in ranked.failures] == ["0 (1)"]

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
            "layout": {"positions": [[0, 0, 0], [1, 0, 0]]},
            "loads_kw": [7.5, 4],
            "strategy": "single_split",
            "oloc": TINY_OLOC,
            "parallelism": 2,
        }))
        assert spec.loads_w == {1: 7500.0, 2: 4000.0}
        assert spec.oloc.segments == 12

    def test_layout_loads_rejected(self, tmp_path):
        # a layout's heat_loads_kw used to be a second copy of the loads,
        # ignored without a word when the spec also gave loads_kw
        layout = {"positions": [[0, 0, 0]], "heat_loads_kw": [7]}
        (tmp_path / "layout.json").write_text(json.dumps(layout))
        for where in ({"layout": layout}, {"layout_file": "layout.json"}):
            with pytest.raises(StudyError, match=r"^layout: unknown layout keys: "
                                                 r"\['heat_loads_kw'\].*loads_kw"):
                StudySpec.from_json(json.dumps({**where, "loads_kw": [9]}),
                                    base_dir=tmp_path)

    def test_missing_loads(self):
        with pytest.raises(StudyError, match="^loads_kw"):
            StudySpec.from_json(json.dumps({
                "layout": {"positions": [[0, 0, 0]]},
                "strategy": "single_split",
            }))

    @pytest.mark.parametrize("loads_w, match", [
        # the loads of labels 3 and "x" used to be dropped without a word
        ({1: 7000.0, 2: 4000.0, 3: 9000.0, "x": 1.0}, r"given for \[3, 'x'\]"),
        # a bare TypeError from math.isfinite, a bool passed as 1 W, and an
        # OverflowError from math.isfinite
        ({1: "5", 2: 4000.0}, r"^loads of device label\(s\) \[1\] must be finite"),
        ({1: 7000.0, 2: True}, r"^loads of device label\(s\) \[2\] must be finite"),
        ({1: 10**400, 2: 4000.0}, r"^loads of device label\(s\) \[1\] must be finite"),
    ], ids=["extra-labels", "string", "bool", "huge-int"])
    def test_loads_w_rejected(self, loads_w, match):
        with pytest.raises(StudyError, match=match):
            StudySpec(layout=DeviceLayout(np.array([[0.0, 0, 0], [1.0, 0, 0]])),
                      loads_w=loads_w)

    @pytest.mark.parametrize("layout", [[[0, 0, 0]], np.zeros((1, 3)), None])
    def test_layout_that_is_not_a_device_layout(self, layout):
        # an AttributeError on reading its device count before
        with pytest.raises(StudyError, match="^layout must be a DeviceLayout, got "):
            StudySpec(layout=layout, loads_w={1: 1000.0})

    def test_unknown_strategy(self):
        with pytest.raises(StudyError):
            StudySpec(layout=DeviceLayout(np.array([[0.0, 0, 0]])),
                      loads_w={1: 1.0}, strategy="genetic")

    def test_layout_file_reference(self, tmp_path):
        (tmp_path / "layout.json").write_text(json.dumps({
            "positions": [[0, 0, 0], [9, 0, 0]]}))
        spec = StudySpec.from_json(json.dumps({
            "layout_file": "layout.json", "loads_kw": [5, 5], "strategy": "single_split"}),
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
        # json parses NaN; such a load used to hang the study in RK45
        ({"loads_kw": [float("nan"), 4]}, "finite"),
        # a string or bool entry used to pass as its number (true as 1 kW)
        ({"loads_kw": ["5", True]}, "^loads_kw"),
        ({"loads_kw": [5, True]}, "^loads_kw"),
        ({"layout": {"positions": [["0", 0, 0], [True, 0, 0]]}}, "positions"),
        ({"layout": {"positions": [[0, 0, 0], [1, None, 0]]}}, "positions"),
        # used to fail in run_study, after the population was built
        ({"out_dir": 5}, "out_dir"),
        # used to fail inside k-means with "expected non-negative integer"
        ({"seed": -1, "strategy": "spatial_junctions"}, "^seed must be non-negative"),
        # a worker count below 1 used to run serially without a word
        ({"parallelism": 0}, "^parallelism must be at least 1"),
        ({"parallelism": -3}, "^parallelism must be at least 1"),
        # a TypeError or AttributeError before
        ({"layout": 5}, "^layout must be a JSON object"),
        ({"layout": ["positions"]}, "^layout must be a JSON object"),
        ({"layout": [1], "loads_kw": [7]}, "^layout must be a JSON object"),
        # one load per device: these used to be reported as the layout's
        ({"loads_kw": [7]}, "^loads_kw must list 2 "),
        ({"loads_kw": [7, 4, 1]}, "^loads_kw must list 2 "),
        ({"loads_kw": [[7, 4]]}, "^loads_kw must list 2 "),
        # an OverflowError from the float cast before
        ({"loads_kw": [10**400, 4]}, "^loads_kw must list 2 finite"),
        # each used to be ignored by the strategies that do not read it
        ({"num_levels": 3}, "^num_levels applies to spatial_junctions only"),
        ({"junctions": 2}, "^junctions applies to enumerated_junctions only"),
        ({"junctions": 1, "strategy": "spatial_junctions"},
         "^junctions applies to enumerated_junctions only"),
        ({"num_levels": 2, "junctions": 1, "strategy": "enumerated_junctions"},
         "^num_levels applies to spatial_junctions only"),
        # used to build a single_split population, and to fail later in
        # clustering for spatial_junctions
        ({"num_levels": 0}, "^num_levels must be at least 1"),
        ({"num_levels": -2, "strategy": "spatial_junctions"}, "^num_levels must be at least 1"),
        # used to be accepted, and the study then wrote no report
        ({"out_dir": ""}, "^out_dir must be a non-empty path string, got ''$"),
    ])
    def test_rejected(self, change, match):
        obj = {"layout": {"positions": [[0, 0, 0], [1, 0, 0]]}, "loads_kw": [7, 4],
               "strategy": "single_split", **change}
        with pytest.raises(StudyError, match=match):
            StudySpec.from_json(json.dumps(obj))

    @pytest.mark.parametrize("obj, match", [
        # each used to raise a TypeError
        ([], "^a study spec must be a JSON object"),
        (5, "^a study spec must be a JSON object"),
        ({"layout_file": 5}, "^layout_file must be a path string"),
        ({**ONE_DEVICE, "physics": 5}, "^physics parameters must be a JSON object"),
        ({**ONE_DEVICE, "physics": ["ha_cphx"]}, "^physics parameters must be a JSON object"),
        ({**ONE_DEVICE, "oloc": [1, 2]}, "^OLOC options must be a JSON object"),
    ])
    def test_non_object_rejected(self, obj, match):
        with pytest.raises(ValueError, match=match):
            StudySpec.from_json(json.dumps(obj))

    def test_penalty_weight_is_not_an_option(self):
        obj = {"layout": {"positions": [[0, 0, 0], [1, 0, 0]]}, "loads_kw": [7, 4],
               "strategy": "single_split", "oloc": {"lambda_weight": 0.001}}
        with pytest.raises(ValueError, match="unknown OLOC options"):
            StudySpec.from_json(json.dumps(obj))

    def test_initial_temperature_above_bound(self):
        # rejected when the spec is parsed; it used to fail every
        # configuration one by one
        obj = {"layout": {"positions": [[0, 0, 0], [1, 0, 0]]}, "loads_kw": [7, 4],
               "strategy": "single_split", "oloc": {"t_wall_initial": 50.0}}
        with pytest.raises(ValueError, match="t_max"):
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

    def test_config_num_past_single_split_refused_before_building(self, monkeypatch):
        # 8 devices and config_num 10,000,000 used to build all 394,353
        # graphs before the refusal
        def unbuilt(*args, **kwargs):
            raise AssertionError("the population was built")

        monkeypatch.setattr(study, "enumerate_single_split", unbuilt)
        spec = StudySpec(layout=DeviceLayout(np.arange(24.0).reshape(8, 3)),
                         loads_w={i: 1000.0 for i in range(1, 9)},
                         strategy="single_split", config_num=10_000_000)
        with pytest.raises(StudyError, match="^config_num 10000000 is out of range for a "
                                             "population of 394353$"):
            build_population(spec)

    @pytest.mark.parametrize("strategy, junctions", [
        ("single_split", None), ("enumerated_junctions", 2), ("spatial_junctions", None)])
    def test_config_num_states_population_size(self, strategy, junctions):
        # only spatial members used to state it, so the benchmark counted a
        # single_split member's population as 1
        base = {"layout": DeviceLayout(np.array([[0.0, 0, 0], [1.0, 0, 0], [6.0, 0, 0]])),
                "loads_w": {1: 1.0, 2: 1.0, 3: 1.0}, "strategy": strategy,
                "junctions": junctions}
        size = len(build_population(StudySpec(**base)))
        pop = build_population(StudySpec(**base, config_num=size - 1))
        assert pop.provenance["population_size"] == size
        assert pop.provenance["config_num"] == size - 1

    @pytest.mark.parametrize("strategy, junctions", [
        ("single_split", None), ("enumerated_junctions", 1)])
    def test_enumeration_cap_applies(self, strategy, junctions):
        # a study used to lift the cap to the device count, so 9 devices
        # started building 4,596,553 single-split graphs
        spec = StudySpec(layout=DeviceLayout(np.arange(27.0).reshape(9, 3)),
                         loads_w={i: 1000.0 for i in range(1, 10)},
                         strategy=strategy, junctions=junctions)
        start = time.perf_counter()
        with pytest.raises(EnumerationCapError, match="n=9") as info:
            build_population(spec)
        assert time.perf_counter() - start < 1.0
        # no study field passes a cap, and config_num does not help: the
        # message names the way out a study has
        assert f"a {strategy} study builds its whole population" in str(info.value)
        assert "spatial_junctions" in str(info.value)
        assert "larger cap" not in str(info.value)
        with pytest.raises(EnumerationCapError, match="config_num included"):
            build_population(replace(spec, config_num=0))

    def test_level_cap_names_config_num(self):
        # no study field passes a cap, so the level cap's message names the
        # way out a study has: one member at a time
        positions = np.column_stack([0.1 * np.arange(9.0), np.zeros(9), np.zeros(9)])
        spec = StudySpec(layout=DeviceLayout(positions),
                         loads_w={i: 1000.0 for i in range(1, 10)},
                         strategy="spatial_junctions", num_levels=1)
        with pytest.raises(EnumerationCapError, match="population=394353") as info:
            build_population(spec)
        assert "config_num" in str(info.value)
        assert "larger cap" not in str(info.value)
        assert build_population(replace(spec, config_num=0)).provenance[
            "population_size"] == 394_353

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

    def test_enumerated_junctions_needs_a_count(self):
        with pytest.raises(StudyError, match="enumerated_junctions needs a junction count"):
            StudySpec(layout=DeviceLayout(np.array([[0., 0, 0], [1., 0, 0]])),
                      loads_w={1: 1.0, 2: 1.0}, strategy="enumerated_junctions")

    @pytest.mark.parametrize("junctions", [5, -1])
    def test_enumerated_junctions_out_of_range(self, junctions):
        # used to surface later, from enumeration, as "need 1 <= j <= n"
        with pytest.raises(StudyError, match="junctions"):
            StudySpec(layout=DeviceLayout(np.array([[0., 0, 0], [1., 0, 0]])),
                      loads_w={1: 1.0, 2: 1.0}, strategy="enumerated_junctions",
                      junctions=junctions)


def population_values(population):
    # NaN-aware: a NaN field is not equal to itself
    return [[None if v != v else v for v in astuple(e)]
            for e in population.entries + population.failures]


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

    def test_entries_carry_solver_counts(self, study_result):
        spec, ranked, _ = study_result
        by_notation = {e.notation: e for e in ranked.entries}
        split = by_notation["0 (1) (2)"]
        assert split.iterations > 0
        assert split.segments == spec.oloc.segments
        assert 0.0 <= split.constraint_violation <= spec.oloc.feasibility_tol
        for series in ("0 (1,2)", "0 (2,1)"):  # no NLP is run
            e = by_notation[series]
            assert (e.iterations, e.segments, e.constraint_violation) == (
                0, spec.oloc.segments, 0.0)

    def test_parallel_matches_serial(self, study_result, tmp_path):
        spec, ranked, _ = study_result
        par_spec = two_device_spec(tmp_path, parallelism=2)
        par = run_study(par_spec)
        assert population_values(par) == population_values(ranked)
        assert par.percentiles == ranked.percentiles

    def test_two_level_study(self):
        # the nested-junction case: level 1 clusters two far-apart groups of
        # six devices, and level 2 splits each group's five free devices
        # into three and two
        def group(c):
            return [[c, 0], [c - 3, 0], [c - 3, 0.3], [c - 3, -0.3], [c + 3, 0], [c + 3, 0.3]]

        spec = StudySpec(layout=DeviceLayout(np.array(group(0.0) + group(100.0))),
                         loads_w={i: 2000.0 + 250.0 * i for i in range(1, 13)},
                         strategy="spatial_junctions", num_levels=2,
                         oloc=OlocOptions(segments=6, mesh_refinements=0))
        tree = build_supernode_tree(spec.layout, 2)
        assert [(sn.junction, sn.members) for sn in tree.levels[2]] == [
            (2, (2, 3, 4)), (5, (5, 6)), (8, (8, 9, 10)), (11, (11, 12))]
        notations = build_population(spec).notations()
        assert len(notations) == 9
        assert notations[0] == "0 (1 (2,3,4) (5,6)) (7 (8,9,10) (11,12))"
        for notation in notations:
            parent = {c: p for p, c in parse_notation(notation).edges}
            for sn in tree.levels[2]:
                for label in sn.members:
                    chain = [label]
                    while chain[-1] != 0:
                        chain.append(parent[chain[-1]])
                    # through its level-2 junction to its level-1 junction,
                    # which the tank feeds
                    assert sn.junction in chain, (notation, label)
                    assert chain[-2:] == [sn.parent_chain[-1], 0], (notation, label)
        serial = run_study(spec)
        assert len(serial.entries) == 9 and not serial.failures
        par = run_study(replace(spec, parallelism=2))
        assert population_values(par) == population_values(serial)
        assert par.percentiles == serial.percentiles

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_entries_are_their_solutions_scalars(self, tmp_path, parallelism):
        # tf_min lies above the endurance of "0 (2,1)", which fails
        spec = two_device_spec(tmp_path, parallelism=parallelism, out=False)
        spec = replace(spec, oloc=replace(spec.oloc, tf_min=23.0))
        ranked = run_study(spec)
        assert [e.notation for e in ranked.failures] == ["0 (2,1)"]
        for e in ranked.entries + ranked.failures:
            sol = evaluate_endurance(build_model(parse_notation(e.notation), spec.loads_w,
                                                 spec.physics), spec.oloc)
            for f in fields(EnduranceRecord):
                got, want = getattr(e, f.name), getattr(sol, f.name)
                assert got == want or (got != got and want != want), f.name
            assert e.success == (e.status in SUCCESS_STATUSES)

    def test_rerun_byte_identical(self, study_result, tmp_path):
        spec, _, tmp = study_result
        spec2 = two_device_spec(tmp_path)
        run_study(spec2)
        for name in ("ranking.csv", "percentile.csv", "population.json"):
            assert (tmp / "out" / name).read_bytes() == \
                (tmp_path / "out" / name).read_bytes()

    def test_rerun_replaces_earlier_files(self, tmp_path):
        # a rerun into the same out_dir used to keep the earlier run's
        # failures.csv and its solutions past the new population
        out = tmp_path / "out"
        run_study(two_device_spec(tmp_path))
        one = replace(two_device_spec(tmp_path),
                      layout=DeviceLayout(np.array([[0.0, 0, 0]])), loads_w={1: 7000.0})
        failing = replace(one, oloc=replace(one.oloc, tf_min=5000.0))
        assert len(run_study(failing).failures) == 1
        assert [p.name for p in (out / "solutions").iterdir()] == ["cfg_000.csv"]
        assert (out / "failures.csv").read_text() == "notation,status\n0 (1),infeasible\n"
        assert not run_study(one).failures
        assert not (out / "failures.csv").exists()
        assert (out / "summary.txt").read_text().splitlines()[1] == "failures: 0"
        assert [p.name for p in (out / "solutions").iterdir()] == ["cfg_000.csv"]

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
        assert (out.iterations, out.segments) == (0, 0)
        assert np.isnan(out.constraint_violation)

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

    def test_bad_worker_count_is_named_before_any_output(self, tmp_path, monkeypatch):
        # used to fail in int() after population.json was written
        monkeypatch.setenv("THERMOFORGE_WORKERS", "abc")
        with pytest.raises(StudyError, match="THERMOFORGE_WORKERS"):
            run_study(two_device_spec(tmp_path))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("env", ["0", "-2"])
    def test_worker_count_below_one_is_named_before_any_output(
            self, tmp_path, monkeypatch, env):
        # used to be clamped to 1, so the study ran serially without a word
        monkeypatch.setenv("THERMOFORGE_WORKERS", env)
        with pytest.raises(StudyError, match="THERMOFORGE_WORKERS must be at least 1"):
            run_study(two_device_spec(tmp_path))
        assert not (tmp_path / "out").exists()


class TestCli:
    def test_count(self, capsys):
        assert cli_main(["count", "--nodes", "3"]) == 0
        assert capsys.readouterr().out.strip() == "13"

    def test_cap_defaults_are_the_library_caps(self):
        parser = build_parser()
        assert parser.parse_args(["count", "--nodes", "3"]).cap == COUNT_CAP
        assert parser.parse_args(["enumerate", "--nodes", "3"]).cap == GENERATE_CAP

    def test_count_with_junctions(self, capsys):
        # the size of the population `enumerate --strategy junction_placements`
        # builds, N counting every device: 1 for two devices as two junctions
        for n in range(1, 7):
            for j in range(1, n + 1):
                assert cli_main(["count", "--nodes", str(n), "--junctions", str(j)]) == 0
                assert cli_main(["enumerate", "--nodes", str(n), "--strategy",
                                 "junction_placements", "--junctions", str(j)]) == 0
                count, notations = capsys.readouterr().out.split("\n", 1)
                assert int(count) == len(json.loads(notations)), (n, j)

    def test_enumerate_to_file(self, tmp_path, capsys):
        out = tmp_path / "pop.json"
        assert cli_main(["enumerate", "--nodes", "2", "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == ["0 (1) (2)", "0 (1,2)", "0 (2,1)"]

    def test_enumerate_junction_placements(self, capsys):
        assert cli_main(["enumerate", "--nodes", "3", "--strategy", "junction_placements",
                         "--junctions", "2"]) == 0
        notations = json.loads(capsys.readouterr().out)
        assert notations == list(enumerate_junction_placements(3, 2).notations())
        assert len(notations) == 6

    def test_enumerate_complete_trees(self, capsys):
        # n^(n-1) rooted labeled trees: 9 for 3 devices
        assert cli_main(["enumerate", "--nodes", "3", "--strategy", "trees",
                         "--complete"]) == 0
        notations = json.loads(capsys.readouterr().out)
        assert len(notations) == len(set(notations)) == 9
        assert "0 (2 (1) (3))" in notations

    def test_cluster(self, tmp_path, capsys):
        layout = tmp_path / "layout.json"
        layout.write_text(json.dumps({
            "positions": [[2, 0, 0], [2, 1, 0], [3, 1, 0],
                          [12, 12, 0], [15, 10, 0], [13, 13, 0]]}))
        assert cli_main(["cluster", "--layout", str(layout), "--levels", "1"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj == {"achieved_levels": 1, "levels": [
            [{"members": [1, 2, 3, 4, 5, 6], "junction": 0, "parent_chain": []}],
            [{"members": [1, 2, 3], "junction": 2, "parent_chain": [0]},
             {"members": [4, 5, 6], "junction": 4, "parent_chain": [0]}]]}

    def test_cluster_to_file(self, tmp_path, capsys):
        layout = tmp_path / "layout.json"
        layout.write_text(json.dumps({"positions": [[0, 0, 0], [1, 0, 0], [9, 9, 0]]}))
        assert cli_main(["cluster", "--layout", str(layout)]) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "tree.json"
        assert cli_main(["cluster", "--layout", str(layout), "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"super-node tree -> {out}\n"
        assert out.read_text() == printed

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

    def test_solve_split(self, tmp_path, capsys):
        # a split configuration's penalty is not zero, so a printed or
        # written objective or penalty read from the wrong field shows
        opts = tmp_path / "oloc.json"
        opts.write_text(json.dumps(TINY_OLOC))
        out = tmp_path / "sol"
        assert cli_main(["solve", "--config", "0 (1) (2)", "--loads", "6,3",
                         "--options", str(opts), "--out", str(out)]) == 0
        sol = evaluate_endurance(build_model(parse_notation("0 (1) (2)"),
                                             {1: 6000.0, 2: 3000.0}), OlocOptions(**TINY_OLOC))
        assert sol.penalty > 0
        summary = json.loads((out / "solution.json").read_text())
        assert summary == sol.summary()
        assert summary["objective"] == summary["t_end"] - summary["penalty"]
        printed = capsys.readouterr().out.splitlines()
        assert f"objective: {sol.objective:.4f}" in printed
        assert f"penalty:   {sol.penalty:.6f}" in printed

    def test_solve_load_count_mismatch(self, capsys):
        assert cli_main(["solve", "--config", "0 (1,2)", "--loads", "8"]) == 2

    @pytest.mark.parametrize("argv, files, message", INPUT_ERRORS,
                             ids=[f"argv{i}-files{i}" for i in range(len(INPUT_ERRORS))])
    def test_input_error_is_one_line(self, argv, files, message, tmp_path, monkeypatch,
                                     capsys):
        # each of these used to end in a traceback
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_bad_load_names_the_option(self, capsys):
        argv = ["solve", "--config", "0 (1) (2)", "--loads", "1,x"]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --loads")
        assert "'x'" in err

    def test_run(self, tmp_path, capsys):
        spec_file = tmp_path / "study.json"
        spec_file.write_text(json.dumps({
            "layout": {"positions": [[0, 0, 0], [1, 0, 0]]},
            "loads_kw": [7, 4],
            "strategy": "single_split",
            "oloc": TINY_OLOC,
            "out_dir": str(tmp_path / "results"),
        }))
        assert cli_main(["run", "--spec", str(spec_file)]) == 0
        assert (tmp_path / "results" / "ranking.csv").exists()
        assert "rank" in capsys.readouterr().out

    def test_run_with_nothing_ranked(self, tmp_path, capsys):
        # every configuration fails: the run used to exit 2, as if the input
        # were bad, and to write neither failures.csv nor summary.txt
        spec_file = tmp_path / "study.json"
        spec_file.write_text(json.dumps({
            **ONE_DEVICE,
            "strategy": "single_split",
            "oloc": {**TINY_OLOC, "tf_min": 5000},
            "out_dir": str(tmp_path / "results"),
        }))
        assert cli_main(["run", "--spec", str(spec_file)]) == 1
        out = tmp_path / "results"
        assert len((out / "ranking.csv").read_text().splitlines()) == 1
        assert (out / "percentile.csv").read_text() == "notation,t_end_s,percentile\n"
        assert (out / "failures.csv").read_text() == "notation,status\n0 (1),infeasible\n"
        assert (out / "summary.txt").read_text() == "configurations ranked: 0\nfailures: 1\n"
        assert "failures: 1" in capsys.readouterr().out
