import itertools
import json
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag, expm
from scipy.optimize import minimize

from thermoforge import oloc
from thermoforge.config import parse_notation
from thermoforge.oloc import (
    STATUS_CAPPED,
    STATUS_FEASIBLE,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_UNVERIFIED,
    EnduranceRecord,
    OlocOptions,
    StageConstraints,
    Transcription,
    evaluate_endurance,
    solve,
)
from thermoforge.spatial import DeviceLayout, build_supernode_tree
from thermoforge.study import StudySpec, build_population
from thermoforge.thermal import build_model, interp_columns, simulate


def make_problem(notation, loads_kw, options=None):
    graph = parse_notation(notation)
    loads = {lab: kw * 1000.0 for lab, kw in zip(graph.labels, loads_kw)}
    return Transcription(build_model(graph, loads), options)


def seventeen_device_model(config_num=0):
    """A member of the 17-device, three-cluster population; member 0 is
    acceptance criterion 6's configuration."""
    rng = np.random.default_rng(7)
    positions = []
    for (cx, cy), size in zip([(0.0, 0.0), (40.0, 5.0), (18.0, 35.0)], [6, 6, 5]):
        for _ in range(size):
            positions.append([cx + rng.uniform(-2, 2), cy + rng.uniform(-2, 2), 0.0])
    layout = DeviceLayout(np.array(positions))
    tree = build_supernode_tree(layout, num_levels=1, seed=0)
    junction_loads = dict(zip(sorted(tree.junctions_at(1)), (3000.0, 4000.0, 5000.0)))
    spec = StudySpec(layout=layout,
                     loads_w={lab: junction_loads.get(lab, 4000.0) for lab in range(1, 18)},
                     strategy="spatial_junctions", num_levels=1, config_num=config_num)
    (notation,) = build_population(spec).notations()
    return build_model(parse_notation(notation), spec.loads_w, spec.physics)


def exact_states(model, t0, flows, times):
    """The exact solution under constant flows at ``times``: a matrix
    exponential of the augmented affine system."""
    j, k = model.lti_parts(flows)
    n = model.n_states
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n], aug[:n, n] = j, k
    return np.array([(expm(aug * t) @ np.append(t0, 1.0))[:n] for t in times])


def stage_jacobian(blocks):
    """The full matrix of segment blocks ``[C_k | E_k F_k]``, shape
    (segments, rows, 2 n_y), segment k's rows over ``[y_k | y_k+1]``."""
    segments, rows, width = blocks.shape
    ny = width // 2
    full = np.zeros((segments * rows, (segments + 1) * ny))
    for k, block in enumerate(blocks):
        full[k * rows : (k + 1) * rows, k * ny : (k + 2) * ny] = block
    return full


def one_sided_matrix(con):
    """The dense matrix A of a record's one-sided rows A z <= b: the
    block-diagonal of each stage's kept block rows."""
    return block_diag(*(con.block[kept] for kept in con.keep))


def pin_matrix(con, z):
    """The stage-0 rows' Jacobian at z over the whole of z."""
    full = np.zeros((con.n_0, len(z)))
    full[:, : con.n_y] = con.pins_jac(z)
    return full


@pytest.fixture
def nlp_runs(monkeypatch):
    """The keyword arguments and result of every NLP run, in call order."""
    runs = []

    def recorded(*args, **kwargs):
        runs.append((kwargs, minimize(*args, **kwargs)))
        return runs[-1][1]

    monkeypatch.setattr(oloc, "minimize", recorded)
    return runs


@pytest.fixture
def equal_split_runs(monkeypatch):
    """The trajectory of every simulation under constant flows (the
    equal-split run), in call order; re-simulations of a flow schedule are
    not recorded."""
    runs = []

    def counted(*args, **kwargs):
        traj = simulate(*args, **kwargs)
        if isinstance(kwargs["flows"], np.ndarray):
            runs.append(traj)
        return traj

    monkeypatch.setattr(oloc, "simulate", counted)
    return runs


@pytest.fixture(scope="module")
def sol_two_parallel():
    """Shared solve of '0 (1) (2)' with asymmetric loads (default mesh)."""
    prob = make_problem("0 (1) (2)", [6.0, 3.0],
                        OlocOptions(segments=50, mesh_refinements=1))
    return prob, evaluate_endurance(prob.model, prob.options)


class TestFormulate:
    def test_series_degenerates_to_simulation(self):
        prob = make_problem("0 (1,2,3)", [4.0, 4.0, 4.0])
        assert prob.n_u == 0
        assert prob.lam == 0.0
        assert prob.n_x == prob.n_temp

    def test_three_way_split(self):
        prob = make_problem("0 (1) (2) (3)", [4.0, 4.0, 4.0])
        assert prob.n_u == 2
        assert len(prob.model.physics.flow_map.dependent) == 1
        assert prob.n_temp == 2 * 3 + 4
        assert prob.lam == pytest.approx(0.01 / (2 * 0.05**2))

    def test_state_dimension_scales(self):
        n = 17
        notation = "0 (" + ",".join(str(k) for k in range(1, n + 1)) + ")"
        prob = make_problem(notation, [4.0] * n)
        assert prob.n_temp == 2 * n + 4

    def test_initial_temperature_above_bound(self):
        with pytest.raises(ValueError, match="bound"):
            OlocOptions(t_wall_initial=50.0)

    @pytest.mark.parametrize("name", ["t_wall_initial", "t_fluid_initial",
                                      "t_loop_initial"])
    def test_initial_temperature_at_bound_names_it(self, name):
        # checked when the options are built, before any model exists
        with pytest.raises(ValueError, match="t_max = 45.0"):
            OlocOptions(**{name: 45.0})

    @pytest.mark.parametrize("notation", [
        "0 (1,2,3)", "0 (1) (2,3)", "0 (1 (2) (3)) (4,5)",
        "0 (" + ",".join(str(k) for k in range(1, 18)) + ")",
    ])
    def test_hottest_initial_temperature_is_the_largest_option(self, notation):
        # OlocOptions checks max(t_wall, t_fluid, t_loop) against t_max with
        # no model at hand: every model has nodes of all three kinds
        graph = parse_notation(notation)
        model = build_model(graph, {lab: 1000.0 for lab in graph.labels})
        for temps in itertools.permutations((20.0, 31.0, 15.0)):
            assert model.initial_state(*temps).max() == max(temps)


class TestOptions:
    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown OLOC options"):
            OlocOptions.from_json('{"segmeents": 30}')

    def test_penalty_weight_is_not_an_option(self):
        # the weight is derived, 0.01 / (N_f u_max^2), so no solve can
        # spend more than 1% of its endurance on the penalty
        with pytest.raises(ValueError, match="unknown OLOC options"):
            OlocOptions.from_json('{"lambda_weight": 0.001}')

    @pytest.mark.parametrize("name", ["T_max", "t_f_bounds", "optimality_tol",
                                      "fix_initial_flows"])
    def test_removed_name_rejected(self, name):
        # the aliases T_max and t_f_bounds were second spellings of t_max and
        # tf_min/tf_max; gtol is feasibility_tol, and the initial flows are free
        with pytest.raises(ValueError, match="unknown OLOC options"):
            OlocOptions.from_json(json.dumps({name: 1}))

    def test_scheme_validation(self):
        # trapezoidal collocation is the only transcription, so "scheme" is
        # no longer an option: any value of it is rejected
        for value in ("trapezoidal", "hermite_simpson", "euler"):
            with pytest.raises(ValueError, match="unknown OLOC options"):
                OlocOptions.from_json(json.dumps({"scheme": value}))
        with pytest.raises(TypeError, match="scheme"):
            OlocOptions(scheme="euler")

    @pytest.mark.parametrize("name, value", [
        ("segments", 1), ("tf_min", 0.0), ("u_max", 0.0), ("u_max", -0.05),
        ("max_iterations", 0), ("mesh_refinements", -1), ("refine_rtol", 0.0),
        ("feasibility_tol", 0.0), ("dense_points", 1),
        # json parses NaN and Infinity, so from_json sees these too
        ("t_max", float("nan")), ("tf_max", float("inf")),
        ("t_wall_initial", float("nan")), ("t_fluid_initial", float("nan")),
        ("t_loop_initial", float("-inf")),
        # a float or bool count used to pass and fail inside every split
        # solve, and a string to raise TypeError
        ("segments", 20.5), ("segments", "20"), ("mesh_refinements", 1.5),
        ("mesh_refinements", True),
        # a string real used to raise a bare TypeError, a bool to pass as 1.0
        ("u_max", "0.05"), ("t_max", True), ("refine_rtol", True),
        # an infinite u_max used to fail every split solve on infs in the
        # NLP, and an infinite refine_rtol to accept every grid unchecked
        ("u_max", float("inf")), ("feasibility_tol", float("inf")),
        ("refine_rtol", float("inf")),
        # an OverflowError from math.isfinite before
        pytest.param("t_max", 10**400, id="t_max-huge_int"),
        # each trajectory CSV is resampled in memory: 10**400 rows passed
        # and failed only while the first file was written
        ("dense_points", 10**6 + 1),
        pytest.param("dense_points", 10**400, id="dense_points-huge_int"),
    ])
    def test_out_of_range_value_rejected(self, name, value):
        # e.g. u_max = 0 used to surface as a division by zero in the
        # control-penalty weight for every split configuration of a study
        with pytest.raises(ValueError, match=name):
            OlocOptions(**{name: value})
        with pytest.raises(ValueError, match=name):
            OlocOptions.from_json(json.dumps({name: value}))


class TestTranscription:
    def test_pack_unpack_roundtrip(self):
        prob = make_problem("0 (1) (2)", [4.0, 2.0])
        trans = Transcription(prob.model, replace(prob.options, segments=4), tf_guess=25.0)
        rng = np.random.default_rng(0)
        tf = 33.0
        states = rng.uniform(10, 40, (trans.n_pts, trans.n_x))
        controls = rng.uniform(-0.04, 0.04, (trans.n_pts, trans.n_u))
        tf2, s2, c2 = trans.unpack(trans.pack(tf, states, controls))
        assert tf2 == pytest.approx(tf, rel=1e-14)
        np.testing.assert_allclose(s2, states, rtol=1e-13)
        np.testing.assert_allclose(c2, controls, rtol=1e-13)

    def test_unpack_pack_roundtrip(self):
        # every grid point carries its own final-time copy, the leading
        # entry of its y_k, so any z, copies unequal, survives the round trip
        prob = make_problem("0 (1 (2) (3)) (4)", [4.0] * 4)
        trans = Transcription(prob.model, replace(prob.options, segments=5), tf_guess=25.0)
        z = np.random.default_rng(1).uniform(-1.5, 1.5, trans.n_z)
        tf, states, controls = trans.unpack(z)
        assert tf.shape == (trans.n_pts,)
        np.testing.assert_array_equal(tf, z[:: trans.n_y] * trans.s_tf)
        np.testing.assert_allclose(trans.pack(tf, states, controls), z, rtol=1e-15, atol=0)

    def test_derivatives_are_stage_blocks(self):
        # in stage order z = [y_0, ..., y_N], y_k = [t_k; T_k; x_k; u_k],
        # segment k's defects depend on y_k and y_k+1 only, one block per
        # segment, and both Hessians are one symmetric block per grid point
        prob = make_problem("0 (1 (2) (3)) (4)", [4.0] * 4)
        trans = Transcription(prob.model, replace(prob.options, segments=5), tf_guess=30.0)
        rng = np.random.default_rng(5)
        z = trans.initial_guess() + 0.02 * rng.standard_normal(trans.n_z)
        ny = trans.n_y
        assert ny == 1 + trans.n_x + trans.n_u and trans.n_z == trans.n_pts * ny
        n_defects = trans.segments * (1 + trans.n_x)
        assert trans.defects(z).shape == (n_defects,)
        jac = trans.defects_jac(z)
        assert jac.shape == (trans.segments, 1 + trans.n_x, 2 * ny)
        assert np.all(np.abs(jac).max(axis=(1, 2)) > 0.0)
        for hess in (trans.defects_hess(z, rng.standard_normal(n_defects)),
                     trans.objective_hess(z)):
            assert hess.shape == (trans.n_pts, ny, ny)
            assert np.any(hess != 0.0)
            np.testing.assert_array_equal(hess, hess.transpose(0, 2, 1))

    def test_pattern_sizes_of_the_readme(self):
        # the 17-device configuration the README quotes
        graph = parse_notation("0 (3,1,2,4,5,6) (8,7,9,10,11,12) (16,13,14,15,17)")
        model = build_model(graph, {lab: 4000.0 for lab in graph.labels})
        for segments, n_z, jac_shape, hess_shape in ((20, 903, (20, 41, 86), (21, 43, 43)),
                                                     (40, 1763, (40, 41, 86), (41, 43, 43))):
            trans = Transcription(model, OlocOptions(segments=segments))
            assert trans.n_z == n_z
            assert trans.defects_jac(np.ones(n_z)).shape == jac_shape
            v = np.ones(segments * jac_shape[1])
            assert trans.defects_hess(np.ones(n_z), v).shape == hess_shape
            assert trans.objective_hess(np.ones(n_z)).shape == hess_shape

    # the grid size is the options' own, checked by OlocOptions
    @pytest.mark.parametrize("argument, value", [
        ("tf_guess", float("nan")), ("tf_guess", float("inf")), ("tf_guess", 0.0),
        ("tf_guess", -5.0), ("tf_guess", "30"),
    ])
    def test_malformed_argument_is_named(self, argument, value):
        prob = make_problem("0 (1) (2)", [4.0, 2.0])
        with pytest.raises(ValueError, match=argument):
            Transcription(prob.model, prob.options, **{argument: value})

    def test_flow_state_defect_is_exact_trapezoid(self):
        # the flow states obey xdot = u and the final-time copies tdot = 0,
        # so their defect rows are the trapezoid rule applied to t_k u_k
        # and to 0, hand-checkable with unequal copies
        prob = make_problem("0 (1) (2)", [4.0, 2.0])
        trans = Transcription(prob.model, replace(prob.options, segments=2), tf_guess=10.0)
        tf = np.array([10.0, 12.0, 11.0])
        states = np.tile(prob.options.initial_state(prob.model), (3, 1))
        states = np.hstack([states, np.array([[0.1], [0.2], [0.15]])])
        controls = np.array([[0.01], [0.03], [-0.02]])
        d = trans.defects(trans.pack(tf, states, controls))
        d = d.reshape(trans.segments, 1 + trans.n_x)
        np.testing.assert_allclose(d[:, 0] * trans.s_tf, [2.0, -1.0], rtol=1e-14)
        flow = d[:, 1 + trans.n_temp] * trans.sx[trans.n_temp]
        h = 0.5  # in tau
        assert flow[0] == pytest.approx(0.2 - 0.1 - (h / 2) * (10.0 * 0.01 + 12.0 * 0.03),
                                        abs=1e-12)
        assert flow[1] == pytest.approx(0.15 - 0.2 - (h / 2) * (12.0 * 0.03 - 11.0 * 0.02),
                                        abs=1e-12)

    def test_gradients_match_finite_differences(self):
        prob = make_problem("0 (1) (2)", [6.0, 3.0], OlocOptions(segments=5))
        trans = Transcription(prob.model, prob.options, tf_guess=30.0)
        rng = np.random.default_rng(42)
        z = trans.initial_guess() + 0.02 * rng.standard_normal(trans.n_z)
        eps = 1e-6

        g = trans.objective_grad(z)
        g_fd = np.empty_like(g)
        for i in range(trans.n_z):
            zp, zm = z.copy(), z.copy()
            zp[i] += eps
            zm[i] -= eps
            g_fd[i] = (trans.objective(zp) - trans.objective(zm)) / (2 * eps)
        assert np.abs(g - g_fd).max() <= 1e-5 * max(np.abs(g_fd).max(), 1.0)

        jac = stage_jacobian(trans.defects_jac(z))
        jac_fd = np.empty_like(jac)
        for i in range(trans.n_z):
            zp, zm = z.copy(), z.copy()
            zp[i] += eps
            zm[i] -= eps
            jac_fd[:, i] = (trans.defects(zp) - trans.defects(zm)) / (2 * eps)
        assert np.abs(jac - jac_fd).max() <= 1e-5 * np.abs(jac_fd).max()

        # second derivatives: central differences of the first ones
        v = rng.standard_normal(trans.segments * (1 + trans.n_x))
        hess = block_diag(*trans.defects_hess(z, v))
        obj_hess = block_diag(*trans.objective_hess(z))
        hess_fd, obj_hess_fd = np.empty_like(hess), np.empty_like(obj_hess)
        for i in range(trans.n_z):
            zp, zm = z.copy(), z.copy()
            zp[i] += eps
            zm[i] -= eps
            hess_fd[:, i] = (stage_jacobian(trans.defects_jac(zp)).T @ v
                             - stage_jacobian(trans.defects_jac(zm)).T @ v) / (2 * eps)
            obj_hess_fd[:, i] = (trans.objective_grad(zp)
                                 - trans.objective_grad(zm)) / (2 * eps)
        assert np.abs(hess - hess_fd).max() <= 1e-6 * np.abs(hess_fd).max()
        assert np.abs(hess - hess.T).max() <= 1e-12 * np.abs(hess).max()
        assert np.abs(obj_hess - obj_hess_fd).max() <= 1e-6 * np.abs(obj_hess_fd).max()

    def test_defect_residual_shrinks_with_mesh(self):
        # sampling an accurate trajectory away from the initial fast
        # transient: trapezoid local residual ~ h^3
        prob = make_problem("0 (1)", [8.0])
        traj = simulate(prob.model, prob.options.initial_state(prob.model),
                        flows=np.zeros(0), t_end=25.0, tol=1e-11)
        t_lo, window = 5.0, 20.0
        residual = {}
        for segments in (10, 20, 40):
            trans = Transcription(prob.model, replace(prob.options, segments=segments),
                                  tf_guess=window)
            grid = t_lo + np.linspace(0.0, window, trans.n_pts)
            states = traj.at(grid)
            z = trans.pack(window, states, np.zeros((trans.n_pts, 0)))
            residual[segments] = np.abs(trans.defects(z)).max()
        order1 = np.log2(residual[10] / residual[20])
        order2 = np.log2(residual[20] / residual[40])
        assert order1 > 2.0 and order2 > 2.0  # third-order local residual

    def test_dependent_flow_constraint(self):
        # a row pair of the one-sided block is M x_k at every grid point,
        # whatever the temperatures, controls and t_f, bounded so that
        # M x_k + offset is in [0, pump]
        prob = make_problem("0 (1 (2) (3)) (4,5)", [4.0] * 5)
        fm, pump = prob.model.physics.flow_map, prob.model.params.pump_flow
        trans = Transcription(prob.model, replace(prob.options, segments=6), tf_guess=30.0)
        rng = np.random.default_rng(3)
        states = np.hstack([rng.uniform(10.0, 40.0, (trans.n_pts, prob.n_temp)),
                            rng.uniform(0.0, pump, (trans.n_pts, prob.n_u))])
        controls = rng.uniform(-0.05, 0.05, (trans.n_pts, prob.n_u))
        con = trans.constraints()
        dense = one_sided_matrix(con)
        up, down = [], []
        for k in range(trans.n_pts):
            for m_row in fm.m_matrix:
                row = np.zeros(trans.n_z)
                cols = 1 + k * trans.n_y + np.arange(prob.n_temp, trans.n_x)
                row[cols] = m_row * trans.sx[prob.n_temp:]
                (i,) = np.flatnonzero((dense == row).all(axis=1))
                (j,) = np.flatnonzero((dense == -row).all(axis=1))
                up.append(i)
                down.append(j)
        a, limits = dense[up], con.limits[con.keep]
        lb, ub = -limits[down], limits[up]
        got = (a @ trans.pack(30.0, states, controls)).reshape(trans.n_pts, -1)
        np.testing.assert_allclose(got, states[:, prob.n_temp:] @ fm.m_matrix.T,
                                   rtol=1e-14, atol=1e-15)
        np.testing.assert_array_equal(lb.reshape(got.shape),
                                      np.tile(-fm.m_offset, (trans.n_pts, 1)))
        np.testing.assert_array_equal(ub.reshape(got.shape),
                                      np.tile(pump - fm.m_offset, (trans.n_pts, 1)))

    @pytest.mark.parametrize("notation", ["0 (1) (2)", "0 (1) (2) (3)",
                                          "0 (1 (2) (3)) (4)", "0 (1) (2) (3) (4) (5)"])
    @pytest.mark.parametrize("segments", [2, 7, 20, 50])
    def test_penalty_weight_keeps_penalty_within_one_percent(self, notation, segments):
        # the worst case, every control on its rate limit at every grid
        # point, costs exactly 1% of t_f, so no solve can exceed it
        n = parse_notation(notation).node_count
        trans = make_problem(notation, [4.0] * n, OlocOptions(segments=segments))
        assert trans.n_u > 0
        tf = 37.0
        controls = np.full((trans.n_pts, trans.n_u), trans.options.u_max)
        states, _ = trans._equal_split_grid(tf)
        penalty = oloc._build_solution(trans, tf, states, controls, STATUS_OPTIMAL,
                                       0.0, 0).penalty
        assert penalty <= 0.01 * tf * (1 + 1e-12)
        assert penalty == pytest.approx(0.01 * tf, rel=1e-12)

    def test_guess_without_event_starts_near_the_cap(self):
        # with no loads the equal split never reaches the bound, so every
        # final-time copy starts at 0.9 tf_max
        prob = make_problem("0 (1) (2)", [0.0, 0.0])
        copies, _, _ = prob.unpack(prob.initial_guess())
        assert prob._equal_split_run().event_time is None
        np.testing.assert_allclose(copies, 0.9 * prob.options.tf_max, rtol=1e-15, atol=0)

    def test_guess_samples_the_equal_split_exactly(self):
        prob = make_problem("0 (1) (2)", [6.0, 3.0], OlocOptions(segments=20))
        _, states, _ = prob.unpack(prob.initial_guess())
        traj = prob._equal_split_run()
        times = np.linspace(0.0, 0.998 * traj.event_time, prob.n_pts)
        temps = states[:, :prob.n_temp]
        # equal up to the scaling of the packed decision vector
        np.testing.assert_allclose(temps, traj.at(times), rtol=1e-15, atol=0)
        exact = exact_states(prob.model, prob.options.initial_state(prob.model),
                             prob.model.physics.flow_map.equal_split, times)
        assert np.abs(temps - exact).max() <= 1e-6

    def test_guess_past_the_event_holds_its_last_state(self):
        # with tf_min beyond the equal-split event the guess runs to tf_min,
        # and the grid points after the event keep the state it stops in
        prob = make_problem("0 (1) (2)", [6.0, 3.0], OlocOptions(segments=20, tf_min=60.0))
        traj = prob._equal_split_run()
        copies, states, _ = prob.unpack(prob.initial_guess())
        np.testing.assert_allclose(copies, 60.0, rtol=1e-15, atol=0)
        times = np.linspace(0.0, 60.0, prob.n_pts)
        temps, after = states[:, :prob.n_temp], times > traj.event_time
        assert after.any() and not after.all()
        np.testing.assert_allclose(temps[after], np.broadcast_to(traj.at(traj.t_stop),
                                                                 temps[after].shape),
                                   rtol=1e-15, atol=0)
        np.testing.assert_allclose(temps[~after], traj.at(times[~after]), rtol=1e-15, atol=0)

    def test_guess_is_near_feasible(self):
        prob = make_problem("0 (1) (2)", [6.0, 3.0])
        trans = Transcription(prob.model, replace(prob.options, segments=20))
        z0 = trans.initial_guess()
        assert np.abs(trans.defects(z0)).max() < 0.5  # discretization error only
        con = trans.constraints()
        np.testing.assert_allclose(con.pins(z0), 0.0, rtol=0, atol=1e-9)
        assert np.all(one_sided_matrix(con) @ z0 <= con.limits[con.keep] + 1e-9)


class TestSolve:
    def test_endurance_matches_event_time_without_controls(self):
        prob = make_problem("0 (1)", [8.0],
                            OlocOptions(segments=50, mesh_refinements=2))
        sol = evaluate_endurance(prob.model, prob.options)
        traj = simulate(prob.model, prob.options.initial_state(prob.model),
                        flows=np.zeros(0), t_end=1000.0, tol=1e-10, t_bound=45.0)
        assert sol.success
        assert abs(sol.t_end - traj.event_time) / traj.event_time <= 0.005

    def test_global_order_of_final_time(self):
        prob = make_problem("0 (1)", [8.0])
        truth = simulate(prob.model, prob.options.initial_state(prob.model),
                         flows=np.zeros(0), t_end=1000.0, tol=1e-11, t_bound=45.0).event_time
        errors = []
        for segments in (8, 16, 32):
            trans = Transcription(prob.model, replace(prob.options, segments=segments))
            sol = solve(trans)
            assert sol.success
            errors.append(abs(sol.t_end - truth))
        assert errors[2] < errors[1] < errors[0]
        order = np.log2(errors[0] / errors[2]) / 2.0
        assert order > 1.2  # second-order scheme, loosely observed

    def test_final_time_copies_agree(self, monkeypatch, nlp_runs):
        # the copies are tied only by one equality row per segment, so at a
        # solution within feasibility_tol they differ by at most that per
        # segment, in scaled units
        transcriptions = []

        def recorded_solve(trans, z0=None):
            transcriptions.append(trans)
            return solve(trans, z0)

        monkeypatch.setattr(oloc, "solve", recorded_solve)
        prob = make_problem("0 (1) (2) (3)", [12.0, 4.0, 1.0],
                            OlocOptions(segments=20, mesh_refinements=0))
        sol = evaluate_endurance(prob.model, prob.options)
        assert sol.status == STATUS_OPTIMAL
        (trans,), ((_, res),) = transcriptions, nlp_runs
        copies, _, _ = trans.unpack(res.x)
        assert copies[0] == sol.t_end
        bound = trans.segments * trans.options.feasibility_tol * trans.s_tf
        assert np.abs(copies - sol.t_end).max() <= bound

    @pytest.mark.parametrize("case", ["two-parallel", "seventeen-device"])
    def test_multipliers_are_in_row_order(self, nlp_runs, case):
        # each constraint's multipliers, row for row, make the Lagrangian's
        # gradient vanish at the returned point, within the run's own stop
        # rule: the scaled KKT error at most feasibility_tol
        if case == "two-parallel":
            model = make_problem("0 (1) (2)", [6.0, 3.0]).model
        else:
            model = seventeen_device_model()
        trans = Transcription(model, OlocOptions(segments=20))
        solve(trans)
        ((kwargs, res),) = nlp_runs
        con = kwargs["constraints"]
        assert res.status == 1
        v_def, v_pin, v_in = res.v
        gradient = (trans.objective_grad(res.x) + stage_jacobian(trans.defects_jac(res.x)).T @ v_def
                    + pin_matrix(con, res.x).T @ v_pin + one_sided_matrix(con).T @ v_in)
        v = np.concatenate(res.v)
        s_d = max(oloc._S_MAX, np.abs(v).sum() / len(v)) / oloc._S_MAX
        assert np.abs(gradient).max() <= trans.options.feasibility_tol * s_d

    def test_optimized_beats_equal_split(self, sol_two_parallel):
        prob, sol = sol_two_parallel
        assert sol.success
        eq_event = simulate(prob.model, prob.options.initial_state(prob.model),
                            flows=prob.model.physics.flow_map.equal_split,
                            t_end=1000.0, tol=1e-9, t_bound=45.0).event_time
        assert sol.t_end > eq_event

    def test_penalty_below_one_percent(self, sol_two_parallel):
        _, sol = sol_two_parallel
        assert sol.penalty < 0.01 * sol.t_end

    def test_accepted_solution_feasibility(self, sol_two_parallel):
        prob, sol = sol_two_parallel
        assert sol.constraint_violation <= prob.options.feasibility_tol

    def test_dependent_flows_within_bounds(self, sol_two_parallel):
        prob, sol = sol_two_parallel
        tol = prob.options.feasibility_tol * 10
        assert np.all(sol.dependent_flows >= -tol)
        assert np.all(sol.dependent_flows <= prob.model.params.pump_flow + tol)

    def test_independent_flows_within_bounds(self, sol_two_parallel):
        prob, sol = sol_two_parallel
        tol = prob.options.feasibility_tol * 10
        flows = sol.grid_states[:, prob.n_temp:]
        assert np.all(flows >= -tol)
        assert np.all(flows <= prob.model.params.pump_flow + tol)

    def test_resimulation_reproduces_final_temperatures(self, sol_two_parallel):
        prob, sol = sol_two_parallel
        schedule = sol.flow_schedule()
        traj = simulate(prob.model, prob.options.initial_state(prob.model),
                        flows=schedule, t_end=sol.t_end, tol=1e-9)
        final = traj.at(traj.t_stop)
        optimized = sol.grid_states[-1, : prob.n_temp]
        assert np.abs(final - optimized).max() <= 0.5

    def test_resimulation_reaches_bound_at_endurance(self, sol_two_parallel):
        # the reported endurance must be one the returned schedule reaches
        prob, sol = sol_two_parallel
        o = prob.options
        traj = simulate(prob.model, prob.options.initial_state(prob.model),
                        flows=sol.flow_schedule(), t_end=2.0 * sol.t_end, tol=1e-9, t_bound=o.t_max)
        assert traj.event_time is not None
        assert abs(traj.event_time - sol.t_end) <= o.refine_rtol * sol.t_end

    def test_walls_arrive_together(self, sol_two_parallel):
        _, sol = sol_two_parallel
        assert sol.wall_arrival_spread <= 0.5

    def test_temperature_bound_respected(self, sol_two_parallel):
        prob, sol = sol_two_parallel
        assert sol.grid_states[:, : prob.n_temp].max() <= 45.0 + 1e-5

    def test_zero_loads_hit_cap(self):
        prob = make_problem("0 (1) (2)", [0.0, 0.0],
                            OlocOptions(segments=8, tf_max=200.0))
        sol = evaluate_endurance(prob.model, prob.options)
        assert sol.status == STATUS_CAPPED
        assert sol.t_end == 200.0

    def test_deterministic_reruns(self):
        opts = OlocOptions(segments=12, mesh_refinements=0)
        runs = []
        for _ in range(2):
            prob = make_problem("0 (1) (2)", [6.0, 3.0], opts)
            sol = evaluate_endurance(prob.model, opts)
            assert sol.iterations > 0
            runs.append((sol.t_end, sol.iterations))
        assert runs[0] == runs[1]

    def test_endurance_decreases_with_load(self):
        ends = []
        for kw in (8.0, 10.0, 12.0):
            prob = make_problem("0 (1) (2)", [kw, kw / 2.0],
                                OlocOptions(segments=16, mesh_refinements=0))
            sol = evaluate_endurance(prob.model, prob.options)
            assert sol.success
            assert sol.iterations > 0
            ends.append(sol.t_end)
        assert ends[0] > ends[1] > ends[2]

    def test_iterations_total_every_nlp_run(self, nlp_runs):
        # each mesh round adds its own NLP iterations to the count of the
        # returned solution
        prob = make_problem("0 (1) (2)", [6.0, 3.0],
                            OlocOptions(segments=10, mesh_refinements=1))
        sol = evaluate_endurance(prob.model, prob.options)
        assert sol.success
        assert len(nlp_runs) >= 2
        assert sol.iterations == sum(res.nit for _, res in nlp_runs)

    def test_refined_grid_size_is_its_options(self, monkeypatch):
        # a refined grid's options once kept the first grid's segment count
        transcriptions = []

        def recorded_solve(trans, z0=None):
            transcriptions.append(trans)
            return solve(trans, z0)

        monkeypatch.setattr(oloc, "solve", recorded_solve)
        prob = make_problem("0 (1) (2)", [6.0, 3.0],
                            OlocOptions(segments=10, mesh_refinements=1))
        evaluate_endurance(prob.model, prob.options)
        assert [t.segments for t in transcriptions] == [10, 20]
        assert [t.options.segments for t in transcriptions] == [10, 20]
        assert [t.n_pts for t in transcriptions] == [11, 21]

    def test_refinement_keeps_final_time_within_bounds(self):
        # with these loads the warm-started 40-segment solve once followed
        # the exact Hessian's negative curvature to t_f < 0 and stalled
        # there for 2,000 iterations; t_0's one-sided rows keep a positive
        # slack, so t_f stays strictly within its bounds.  The
        # 20-segment grid passes the re-simulation check, so the 40-segment
        # round is run here directly, warm-started as a refinement would be
        graph = parse_notation("0 (1,3) (2)")
        loads = {1: 11999.584733463851, 2: 4000.3898214746705, 3: 999.9637421676971}
        prob = Transcription(build_model(graph, loads),
                             OlocOptions(segments=20, mesh_refinements=0))
        coarse = evaluate_endurance(prob.model, prob.options)
        assert coarse.segments == 20 and coarse.success
        trans = Transcription(prob.model, replace(prob.options, segments=40),
                              tf_guess=coarse.t_end)
        sol = solve(trans, trans.guess_from(coarse))
        assert sol.status == STATUS_OPTIMAL
        assert sol.segments == 40
        assert sol.iterations < 500

    def test_omitted_final_time_guess_is_simulated(self, equal_split_runs):
        # with a fixed 100 s guess this solve stopped infeasible at t_f =
        # tf_min after 255 iterations; the guess now comes from the
        # equal-split simulation, which the initial guess reuses
        options = OlocOptions(segments=20)
        trans = make_problem("0 (1) (2) (3)", [12.0, 4.0, 1.0], options)
        sol = solve(trans)
        (run,) = equal_split_runs
        assert trans.tf_guess == run.event_time
        assert sol.status == STATUS_OPTIMAL
        ref = evaluate_endurance(trans.model, replace(options, mesh_refinements=0))
        assert ref.segments == 20
        assert abs(sol.t_end - ref.t_end) <= options.refine_rtol * ref.t_end

    @pytest.mark.parametrize("notation, nlp", [("0 (1) (2) (3)", True), ("0 (1,2,3)", False)])
    def test_one_equal_split_simulation_per_evaluation(self, equal_split_runs, nlp_runs,
                                                       notation, nlp):
        # the first grid's transcription runs it; the choice to skip the
        # NLP, the first grid's start and a refined grid all reuse that run
        model = build_model(parse_notation(notation), {1: 12000.0, 2: 4000.0, 3: 1000.0})
        sol = evaluate_endurance(model, OlocOptions(segments=10, mesh_refinements=1))
        assert sol.status == STATUS_OPTIMAL
        assert len(equal_split_runs) == 1
        assert bool(nlp_runs) == nlp

    def test_verified_grid_is_not_refined(self, nlp_runs):
        # the 20-segment schedule re-simulates to its endurance within
        # refine_rtol, so that grid is the answer and no finer one is solved
        prob = make_problem("0 (1) (2)", [6.0, 3.0],
                            OlocOptions(segments=20, mesh_refinements=2))
        sol = evaluate_endurance(prob.model, prob.options)
        assert len(nlp_runs) == 1
        assert sol.segments == 20
        assert sol.status == STATUS_OPTIMAL
        event = simulate(prob.model, prob.options.initial_state(prob.model),
                         flows=sol.flow_schedule(), t_end=2.0 * sol.t_end, tol=1e-9,
                         t_bound=prob.options.t_max).event_time
        assert sol.verified_t_end == event
        assert sol.verification_gap == (event - sol.t_end) / sol.t_end
        assert abs(sol.verification_gap) <= prob.options.refine_rtol

    def test_refines_only_until_the_check_passes(self, nlp_runs):
        # 10 segments miss the tolerance, 20 meet it: the solve stops there
        # although a third round (40 segments) is allowed
        prob = make_problem("0 (1) (2)", [6.0, 3.0],
                            OlocOptions(segments=10, mesh_refinements=2))
        sol = evaluate_endurance(prob.model, prob.options)
        assert len(nlp_runs) == 2
        assert sol.segments == 20
        assert sol.status == STATUS_OPTIMAL
        assert abs(sol.verification_gap) <= prob.options.refine_rtol

    def test_unverified_when_rounds_run_out(self, nlp_runs):
        # no grid up to 40 segments meets a 1e-7 tolerance: the last one is
        # returned, still a success and ranked, but labelled unverified
        prob = make_problem("0 (1) (2)", [6.0, 3.0],
                            OlocOptions(segments=10, mesh_refinements=2,
                                        refine_rtol=1e-7))
        sol = evaluate_endurance(prob.model, prob.options)
        assert len(nlp_runs) == 3
        assert sol.segments == 40
        assert sol.status == STATUS_UNVERIFIED
        assert sol.success
        assert abs(sol.verification_gap) > 1e-7
        assert sol.iterations == sum(res.nit for _, res in nlp_runs)

    def test_converged_stop_outside_tolerance_is_infeasible(self, monkeypatch):
        # a stalled stop (status 2) outside the feasibility tolerance is a
        # recorded failure, judged by the solver's own result; no second
        # run is started from it
        calls = []

        def pushed_off(fun, x0, **kwargs):
            res = minimize(fun, x0, **kwargs)
            res.status = 2
            res.x = res.x.copy()
            mid = 1 + 5 * prob.n_y  # the temperatures at grid point 5
            res.x[mid : mid + prob.n_temp] += 1e-3
            res.constr_violation = np.abs(kwargs["constraints"].defects(res.x)).max()
            calls.append(res)
            return res

        monkeypatch.setattr(oloc, "minimize", pushed_off)
        prob = make_problem("0 (1) (2)", [6.0, 3.0],
                            OlocOptions(segments=10, mesh_refinements=0))
        sol = solve(prob)
        (res,) = calls
        assert res.constr_violation > prob.options.feasibility_tol
        assert sol.status == STATUS_INFEASIBLE
        assert not sol.success
        assert sol.constraint_violation == res.constr_violation
        assert sol.iterations == res.nit

    def test_unconverged_stop_within_tolerance_is_feasible(self, monkeypatch):
        # an iteration-limit stop (status 0) within the feasibility tolerance
        # is ranked, but not as a converged optimum
        calls = []

        def stopped_early(fun, x0, **kwargs):
            res = minimize(fun, x0, **kwargs)
            res.status = 0
            calls.append(res)
            return res

        monkeypatch.setattr(oloc, "minimize", stopped_early)
        prob = make_problem("0 (1) (2)", [6.0, 3.0],
                            OlocOptions(segments=10, mesh_refinements=0))
        sol = solve(prob)
        (res,) = calls
        assert res.constr_violation <= prob.options.feasibility_tol
        assert sol.status == STATUS_FEASIBLE
        assert sol.success
        assert sol.iterations == res.nit

    def test_resimulation_short_of_the_bound_is_unverified(self, sol_two_parallel):
        # with the bound out of reach over twice t_end, the schedule has no
        # verified endurance and an infinite gap
        prob, sol = sol_two_parallel
        far = replace(prob.options, t_max=500.0)
        checked = oloc._verified(prob.model, far, sol)
        assert np.isnan(checked.verified_t_end)
        assert checked.verification_gap == float("inf")
        assert checked.t_end == sol.t_end

    def test_failed_refinement_is_labelled_unrefined(self, monkeypatch):
        # the coarse solution stays ranked, but not as a converged optimum
        calls = []

        def refined_round_fails(trans, z0=None):
            sol = solve(trans, z0)
            calls.append((trans.segments, sol.iterations))
            if len(calls) > 1:
                return replace(sol, status=STATUS_INFEASIBLE)
            return sol

        monkeypatch.setattr(oloc, "solve", refined_round_fails)
        prob = make_problem("0 (1) (2)", [6.0, 3.0],
                            OlocOptions(segments=10, mesh_refinements=2))
        sol = evaluate_endurance(prob.model, prob.options)
        assert [segments for segments, _ in calls] == [10, 20]
        assert sol.status == STATUS_UNVERIFIED
        assert "," not in sol.status  # ranking.csv writes it unquoted
        assert sol.success
        assert sol.segments == 10
        assert sol.iterations == sum(nit for _, nit in calls)

    def test_summary_and_csv(self, sol_two_parallel, tmp_path):
        prob, sol = sol_two_parallel
        s = sol.summary()
        assert set(s) == ({"config", "objective"}
                          | {f.name for f in fields(EnduranceRecord)} - {"notation"})
        path = tmp_path / "traj.csv"
        sol.write_trajectory_csv(path, prob.options.dense_points)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("t_s,")
        assert len(lines) == 1 + prob.options.dense_points

    @pytest.mark.parametrize("notation, loads_kw, dense_points", [
        ("0 (1,2,3)", [12.0, 4.0, 1.0], 201),
        ("0 (1) (2)", [6.0, 3.0], 201),
        # three chunks, the last of one row
        ("0 (1) (2)", [6.0, 3.0], 2 * oloc.CSV_CHUNK_ROWS + 1),
    ], ids=["0 (1,2,3)-loads_kw0", "0 (1) (2)-loads_kw1", "0 (1) (2)-three_chunks"])
    def test_csv_bytes_match_savetxt(self, notation, loads_kw, dense_points, tmp_path):
        # the file is formatted one chunk of rows at a time; np.savetxt's
        # row loop is the reference, on a series-only and on a split solution
        prob = make_problem(notation, loads_kw, OlocOptions(segments=10))
        sol = evaluate_endurance(prob.model, prob.options)
        assert sol.success
        t_dense = np.linspace(0.0, sol.t_end, dense_points)
        states = interp_columns(t_dense, sol.grid_t, sol.grid_states)
        dependent = interp_columns(t_dense, sol.grid_t, sol.dependent_flows)
        controls = interp_columns(t_dense, sol.grid_t, sol.grid_controls)
        header = (["t_s"] + [f"T_{n}" for n in sol.state_names]
                  + [f"mdot_indep_{j}" for j in range(states.shape[1] - sol.n_temp)]
                  + [f"mdot_dep_{j}" for j in range(dependent.shape[1])]
                  + [f"u_{j}" for j in range(controls.shape[1])])
        rows = np.column_stack([t_dense, states, dependent, controls])
        fmt = ["%.6f"] * (rows.shape[1] - controls.shape[1]) + ["%.8f"] * controls.shape[1]
        with open(tmp_path / "savetxt.csv", "w", newline="") as fh:
            np.savetxt(fh, rows, fmt=fmt, delimiter=",", newline="\r\n",
                       header=",".join(header), comments="")
        sol.write_trajectory_csv(tmp_path / "traj.csv", dense_points)
        assert (tmp_path / "traj.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()

    def test_csv_write_memory_is_bounded(self, tmp_path):
        # a write once held every value of the file as a Python float, and
        # its text, at once: 37 MB for these 50,000 rows of 12 columns, and
        # about 3 GB for dev17's 44 columns at dense_points = 10**6
        prob = make_problem("0 (1) (2)", [6.0, 3.0], OlocOptions(segments=10))
        sol = evaluate_endurance(prob.model, prob.options)
        tracemalloc.start()
        try:
            sol.write_trajectory_csv(tmp_path / "traj.csv", 50_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 15 * 2**20


class TestConstraintForms:
    """The solver gets no variable bounds, and every limit is a one-sided
    row: a value pinned from both sides is a stage-0 equality row, not two
    one-sided rows."""

    def test_no_bounds_and_each_constraint_equality_or_one_sided(self, nlp_runs):
        prob = make_problem("0 (1 (2) (3)) (4)", [4.0] * 4,
                            OlocOptions(segments=6, mesh_refinements=0))
        evaluate_endurance(prob.model, prob.options)
        assert nlp_runs
        for kwargs, _ in nlp_runs:
            assert kwargs.get("bounds") is None
            con = kwargs["constraints"]
            assert isinstance(con, StageConstraints)
            # a z <= b and -a z <= -b would squeeze their slacks to zero
            rows = {(tuple(a), b) for a, b in zip(one_sided_matrix(con), con.limits[con.keep])}
            assert not any((tuple(-np.array(a)), -b) in rows for a, b in rows)

    def test_equality_rows_pin_exactly_the_initial_state(self):
        prob = make_problem("0 (1 (2) (3)) (4)", [4.0] * 4)
        trans = Transcription(prob.model, replace(prob.options, segments=5), tf_guess=30.0)
        con = trans.constraints()
        n = trans.n_temp
        z = np.random.default_rng(5).standard_normal(trans.n_z)
        jac = con.pins_jac(z)
        # one unit entry per row, on the leading columns of y_0
        assert jac.shape == (con.n_0, trans.n_y) == (n, trans.n_y)
        assert np.argwhere(jac).tolist() == [[i, 1 + i] for i in range(n)]
        assert np.all(jac[jac != 0.0] == 1.0)
        np.testing.assert_array_equal(con.pins_hess(z, np.ones(n)), 0.0)
        # the rows are z's initial temperatures less the pinned ones
        state = prob.options.initial_state(prob.model)
        np.testing.assert_allclose(-con.pins(np.zeros(trans.n_z)) * trans.sx[:n], state,
                                   rtol=1e-15)
        np.testing.assert_allclose(con.pins(z), z[1 : 1 + n] + con.pins(np.zeros(trans.n_z)),
                                   rtol=0, atol=1e-15)

    def test_final_time_rows_bound_only_the_first_copy(self):
        # tf_min <= t_0 <= tf_max are block rows 0 and 1, which only grid
        # point 0 keeps; no other row reads a final-time copy, which the
        # defects' ties hold together
        prob = make_problem("0 (1 (2) (3)) (4)", [4.0] * 4)
        trans = Transcription(prob.model, replace(prob.options, segments=5), tf_guess=30.0)
        con, o = trans.constraints(), prob.options
        assert np.argwhere(con.block[:2]).tolist() == [[0, 0], [1, 0]]
        assert con.block[:2, 0].tolist() == [1.0, -1.0]
        assert not con.keep[1:, :2].any()
        assert con.limits[0, :2].tolist() == [o.tf_max / trans.s_tf, -o.tf_min / trans.s_tf]
        assert np.all(con.block[2:, 0] == 0.0)

    def test_three_device_split_converges_quickly(self, nlp_runs):
        # the three-device benchmark study's loads; with the initial
        # temperatures pinned by lb == ub bounds this took 51 iterations
        graph = parse_notation("0 (1) (2,3)")
        model = build_model(graph, {1: 12000.0, 2: 4000.0, 3: 1000.0})
        sol = evaluate_endurance(model, OlocOptions(segments=20, mesh_refinements=1))
        assert sol.status == STATUS_OPTIMAL and sol.segments == 20
        assert len(nlp_runs) == 1
        assert nlp_runs[0][1].nit <= 35

    def test_seventeen_device_refinement_does_not_lose_endurance(self):
        # a 40-segment grid warm-started from the verified 20-segment answer,
        # as a refinement round would be, must not stop more than refine_rtol
        # below what the 20-segment schedule reaches; it once stopped
        # "optimal" at 11.773717 s against 11.806342 s re-simulated
        model = seventeen_device_model()
        options = OlocOptions(segments=20, mesh_refinements=0)
        coarse = evaluate_endurance(model, options)
        assert coarse.status == STATUS_OPTIMAL and coarse.segments == 20
        trans = Transcription(model, replace(options, segments=40), tf_guess=coarse.t_end)
        fine = solve(trans, trans.guess_from(coarse))
        assert fine.status == STATUS_OPTIMAL
        assert fine.t_end >= coarse.verified_t_end * (1.0 - options.refine_rtol)

    def test_seventeen_device_refinement_succeeds(self):
        # acceptance criterion 6's configuration from 10 segments, with a
        # tolerance no grid here meets: the warm-started 20-segment round
        # once stopped at a constraint violation of 0.95 after 280
        # iterations, and the 10-segment solution was returned
        model = seventeen_device_model()
        sol = evaluate_endurance(model, OlocOptions(segments=10, mesh_refinements=1,
                                                    refine_rtol=1e-5))
        assert sol.segments == 20
        assert sol.success
        assert sol.status == STATUS_UNVERIFIED


def one_stage(pins, pins_jac, pins_hess, a, b):
    """The record of a problem over one stage, the whole of x: no segment
    rows, the stage-0 rows ``pins`` and the one-sided rows ``a x <= b`` of a
    dense matrix a."""
    a = np.asarray(a, dtype=float)
    n = a.shape[1]
    return StageConstraints(stages=1, n_y=n, n_c=0, n_0=len(pins_jac(np.zeros(n))),
                            defects=lambda x: np.zeros(0),
                            defects_jac=lambda x: np.zeros((0, 0, 2 * n)),
                            defects_hess=lambda x, v: np.zeros((1, n, n)),
                            pins=pins, pins_jac=pins_jac, pins_hess=pins_hess,
                            block=a, keep=np.ones((1, len(a)), dtype=bool),
                            limits=np.asarray(b, dtype=float)[None])


def circle(a, b):
    """min x1 + x2 on the circle x1^2 + x2^2 = 2, its one stage-0 row, with
    the one-sided rows a x <= b, as ``minimize`` arguments."""
    return {"fun": lambda x: x[0] + x[1], "jac": lambda x: np.ones(2),
            "hess": lambda x: np.zeros((1, 2, 2)), "method": oloc._interior_point,
            "constraints": one_stage(lambda x: np.array([x @ x - 2.0]),
                                     lambda x: 2.0 * x[None, :],
                                     lambda x, v: 2.0 * v[0] * np.eye(2), a, b)}


class TestInteriorPoint:
    """The NLP solver as a custom ``minimize`` method, on a problem small
    enough to check by hand: min x1 + x2 on the circle x1^2 + x2^2 = 2, with
    x1 <= 3 and -x2 <= 3 as one-sided rows, from near the circle's
    maximizer (1, 1).  The minimizer is (-1, -1)."""

    X0 = np.array([1.1, 0.9])

    @staticmethod
    def run(x0, scipy_arguments=None, **options):
        return minimize(x0=x0, options=options, **circle([[1.0, 0.0], [0.0, -1.0]], [3.0, 3.0]),
                        **(scipy_arguments or {}))

    def test_negative_curvature_needs_a_shift_and_converges(self, monkeypatch):
        # near (1, 1) the least-squares multiplier of the circle is about
        # -1/2, so the Lagrangian's Hessian 2 v I is negative definite: the
        # first matrix has the wrong inertia and is factored again, shifted
        shifts = []
        factor = oloc._StageKKT.factor

        def counted(self, hessian, dw):
            shifts.append(dw)
            return factor(self, hessian, dw)

        monkeypatch.setattr(oloc._StageKKT, "factor", counted)
        res = self.run(self.X0)
        assert res.status == 1 and res.success
        np.testing.assert_allclose(res.x, [-1.0, -1.0], atol=1e-6)
        assert res.constr_violation <= 1e-6
        # one factorization for the first multipliers, at least one per
        # iteration, and more where the inertia was corrected
        assert max(shifts) > 0.0
        assert len(shifts) > 1 + res.nit
        # the multipliers of the segment rows (none), the stage-0 rows and
        # the one-sided rows: the circle's is 1/2 at the minimizer and the
        # inactive limits' are near zero
        segments, pins, limits = res.v
        assert segments.shape == (0,)
        assert pins == pytest.approx([0.5], abs=1e-6)
        assert limits.shape == (2,) and np.abs(limits).max() <= 1e-5

    def test_accepted_second_order_correction(self, monkeypatch, nlp_runs):
        # this 17-device member's 20-segment solve takes exactly one
        # second-order correction, and accepts it (30 KKT solves for 28
        # iterations); no other test or benchmark workload accepts one.
        # Without corrections there is one solve for the first multipliers
        # and one per iteration
        solves = []
        factor = oloc._StageKKT.factor

        def counted(self, hessian, dw):
            factored = factor(self, hessian, dw)

            def counted_solve(rhs):
                solves.append(len(rhs))
                return factored(rhs)
            return factored and counted_solve

        monkeypatch.setattr(oloc._StageKKT, "factor", counted)
        trans = Transcription(seventeen_device_model(525_670), OlocOptions(segments=20))
        assert solve(trans).status == STATUS_OPTIMAL
        ((_, res),) = nlp_runs
        assert len(solves) > 1 + res.nit

    @pytest.mark.parametrize("name, value", [("stage", 3), ("maxiters", 1), ("stages", 3)])
    def test_misspelt_option_is_refused(self, name, value):
        # a misspelt option once ran as if it were absent; the constraint
        # record, not an option, declares the stages
        with pytest.raises(TypeError, match=name):
            self.run(self.X0, **{name: value})

    @pytest.mark.parametrize("name", ["callback", "hessp"])
    def test_unused_scipy_argument_is_refused(self, name):
        # scipy passes both to every method; a callback was once dropped,
        # and the run converged in 9 iterations without calling it
        calls = []
        with pytest.raises(ValueError, match=f"{name} is not supported"):
            self.run(self.X0, {name: lambda *args: calls.append(args)})
        assert calls == []

    def test_variable_bounds_are_refused(self):
        # a bound is a one-sided row of the constraint record
        with pytest.raises(ValueError, match="pass variable bounds as one-sided rows"):
            self.run(self.X0, {"bounds": [(-3.0, 3.0), (-3.0, 3.0)]})

    def test_large_first_multipliers_start_at_zero(self, monkeypatch):
        # with the objective scaled by 1e4 the circle's least-squares
        # multiplier at X0 is about 4950, past _Y0_MAX; started at 0 instead,
        # the run still converges to the multiplier 5000, by another path
        # than from the estimate
        arguments = circle([[1.0, 0.0], [0.0, -1.0]], [3.0, 3.0])
        arguments.update(fun=lambda x: 1e4 * (x[0] + x[1]), jac=lambda x: np.full(2, 1e4))
        res = minimize(x0=self.X0, **arguments)
        assert res.status == 1
        np.testing.assert_allclose(res.x, [-1.0, -1.0], atol=1e-6)
        assert res.v[1] == pytest.approx([5000.0], rel=1e-6)
        monkeypatch.setattr(oloc, "_Y0_MAX", np.inf)
        estimated = minimize(x0=self.X0, **arguments)
        assert estimated.status == 1 and estimated.nfev != res.nfev

    def test_iteration_limit_is_status_0(self):
        res = self.run(self.X0, maxiter=2)
        assert res.status == 0 and not res.success
        assert res.nit == 2

    def test_result_carries_every_counter_solve_and_benchmark_read(self):
        res = self.run(self.X0, tol=1e-8)
        for name in ("nit", "nfev", "njev", "cg_niter", "status"):
            assert isinstance(res[name], int), name
        assert res.cg_niter == 0
        assert res.nfev >= res.nit + 1 and res.njev == res.nit + 1
        assert 0.0 <= res.constr_violation <= 1e-8


class TestStageLayout:
    """The constraint record declares z as N equal stages; the interior
    point refuses a layout or derivatives that do not fit it instead of
    factoring a matrix it never looked at, and stops with its own message
    when the KKT matrix cannot be factored with the right inertia."""

    @staticmethod
    def run(hessian=None, **changes):
        """min |z|^2 / 2 + sum(z) over three stages of two entries each, with
        one segment row z_k+1[0] - z_k[0] = 0 per pair of neighbours, the
        stage-0 row z[0] = 1 and the one-sided rows |z| <= 5; the objective
        Hessian or any field of the constraint record may be replaced."""
        ties = np.eye(6)[2::2] - np.eye(6)[:-2:2]
        con = StageConstraints(stages=3, n_y=2, n_c=1, n_0=1,
                               defects=lambda x: ties @ x,
                               defects_jac=lambda x: np.tile([-1.0, 0.0, 1.0, 0.0], (2, 1, 1)),
                               defects_hess=lambda x, v: np.zeros((3, 2, 2)),
                               pins=lambda x: x[:1] - 1.0, pins_jac=lambda x: np.eye(1, 2),
                               pins_hess=lambda x, v: np.zeros((2, 2)),
                               block=np.vstack([np.eye(2), -np.eye(2)]),
                               keep=np.ones((3, 4), dtype=bool), limits=np.full((3, 4), 5.0))
        return minimize(lambda x: 0.5 * x @ x + x.sum(), np.ones(6), jac=lambda x: x + 1.0,
                        hess=hessian or (lambda x: np.tile(np.eye(2), (3, 1, 1))),
                        method=oloc._interior_point, constraints=replace(con, **changes))

    def test_fitting_problem_converges(self):
        res = self.run()
        assert res.status == 1
        np.testing.assert_allclose(res.x[::2], 1.0, atol=1e-6)
        np.testing.assert_allclose(res.x[1::2], -1.0, atol=1e-6)

    # the whole matrix in place of stage blocks, as a transcription's
    # derivatives once were
    COUPLED = np.eye(6) + np.eye(6, k=4) + np.eye(6, k=-4)

    @pytest.mark.parametrize("part, value, match", [
        pytest.param("hessian", lambda x: TestStageLayout.COUPLED,
                     r"objective Hessian has shape \(6, 6\), expected \(3, 2, 2\)",
                     id="objective-hessian"),
        pytest.param("defects_jac", lambda x: np.eye(6)[2::2] - np.eye(6)[:-2:2],
                     r"defect Jacobian has shape \(2, 6\), expected \(2, 1, 4\)",
                     id="constraint-jacobian"),
        pytest.param("defects_hess", lambda x, v: TestStageLayout.COUPLED,
                     r"defect Hessian has shape \(6, 6\), expected \(3, 2, 2\)",
                     id="constraint-hessian"),
        pytest.param("defects", lambda x: x[2:3] - x[:1],
                     r"defect value has shape \(1,\), expected \(2,\)", id="constraint-value"),
        # a stage-0 row that reads another stage has a wider block
        pytest.param("pins_jac", lambda x: np.eye(6)[[2]],
                     r"stage-0 Jacobian has shape \(1, 6\), expected \(1, 2\)",
                     id="stage-0-jacobian"),
        pytest.param("pins_hess", lambda x, v: TestStageLayout.COUPLED,
                     r"stage-0 Hessian has shape \(6, 6\), expected \(2, 2\)",
                     id="stage-0-hessian"),
        pytest.param("pins", lambda x: x[:2] - 1.0,
                     r"stage-0 value has shape \(2,\), expected \(1,\)", id="stage-0-value"),
        # one-sided rows over the whole of z, and a mask or limits with one
        # entry per kept row, as the rows' nonzeros once were given
        pytest.param("block", np.vstack([np.eye(6), -np.eye(6)]),
                     r"one-sided block has shape \(12, 6\), expected \(12, 2\)",
                     id="one-sided-block"),
        pytest.param("keep", np.ones(12, dtype=bool),
                     r"one-sided keep mask has shape \(12,\), expected \(3, 4\)",
                     id="one-sided-keep"),
        pytest.param("limits", np.full(12, 5.0),
                     r"one-sided limits has shape \(12,\), expected \(3, 4\)",
                     id="one-sided-limits"),
    ])
    def test_derivative_of_the_wrong_shape_is_named(self, part, value, match):
        with pytest.raises(ValueError, match=match):
            self.run(**{part: value})

    @pytest.mark.parametrize("shape", [(2, 1, 6), (2, 1, 5), (2, 3, 4)],
                             ids=["too-wide", "odd-width", "too-many-rows"])
    def test_blocks_that_do_not_tile_are_named(self, shape):
        # segment blocks wider than two stages, with no two halves, or with
        # more rows than the record declares
        with pytest.raises(ValueError, match=re.escape(f"defect Jacobian has shape {shape}, "
                                                      f"expected (2, 1, 4)")):
            self.run(defects_jac=lambda x: np.zeros(shape))

    @pytest.mark.parametrize("change", [{"n_y": 3}, {"stages": 2}, {"n_c": 3}],
                             ids=["wider-stages", "fewer-stages", "too-many-rows"])
    def test_layout_that_does_not_tile_is_named(self, change):
        # 3 stages of 3 entries or 2 stages of 2 are not 6 variables, and 3
        # rows per segment outgrow stages of 2 entries
        layout = {"stages": 3, "n_y": 2, "n_c": 1, **change}
        with pytest.raises(ValueError, match=re.escape(
                f"{layout['stages']} stages of {layout['n_y']} entries with {layout['n_c']} "
                f"rows per segment do not tile 6 variables")):
            self.run(**change)

    def test_inertia_correction_giving_up_has_its_own_message(self):
        # curvature no shift up to 1e40 can outweigh
        res = self.run(hessian=lambda x: -1e60 * np.tile(np.eye(2), (3, 1, 1)))
        assert res.status == 2 and not res.success
        assert res.message == oloc._SINGULAR
        assert res.nit == 0

    def test_singular_state_block_has_the_same_message(self):
        # the first segment's row reads z_1[0] with a zero entry: E_0 = 0
        blocks = np.array([[[-1.0, 0.0, 0.0, 0.0]], [[-1.0, 0.0, 1.0, 0.0]]])
        res = self.run(defects_jac=lambda x: blocks)
        assert res.status == 2 and res.message == oloc._SINGULAR and res.nit == 0

    def test_singular_stage_zero_block_has_the_same_message(self):
        # y_0 pinned twice by the same row
        res = minimize(lambda x: 0.5 * x @ x, np.ones(2), jac=lambda x: x,
                       hess=lambda x: np.eye(2)[None], method=oloc._interior_point,
                       constraints=one_stage(lambda x: x[[0, 0]] - 1.0,
                                             lambda x: np.eye(2)[[0, 0]],
                                             lambda x, v: np.zeros((2, 2)), np.zeros((0, 2)), []))
        assert res.status == 2 and res.message == oloc._SINGULAR

    def test_more_stage_zero_rows_than_entries_have_the_same_message(self):
        # three rows over two entries cannot all be independent
        res = minimize(lambda x: 0.5 * x @ x, np.ones(2), jac=lambda x: x,
                       hess=lambda x: np.eye(2)[None], method=oloc._interior_point,
                       constraints=one_stage(lambda x: x[[0, 1, 0]] - 1.0,
                                             lambda x: np.eye(2)[[0, 1, 0]],
                                             lambda x, v: np.zeros((2, 2)), np.zeros((0, 2)), []))
        assert res.status == 2 and res.message == oloc._SINGULAR and res.nit == 0

    def test_stalled_line_search_keeps_its_message(self):
        # the bound x1 <= 1.5 just outside the circle of TestInteriorPoint:
        # with no restoration phase the run stalls on it
        res = minimize(x0=np.array([1.1, 0.9]),
                       **circle([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [1.5, 1.5, 1.5]))
        assert res.status == 2
        assert res.message == "The line search found no acceptable step."


class TestStageKKT:
    """The stage-wise factorization against dense linear algebra on the
    assembled matrix [[blockdiag(H_k) + dw I, J'], [J, 0]]."""

    @staticmethod
    def jacobian(segments, block_0):
        """The full Jacobian: the segments' rows, then the stage-0 rows."""
        full = stage_jacobian(segments)
        pins = np.zeros((len(block_0), full.shape[1]))
        pins[:, : block_0.shape[1]] = block_0
        return np.vstack([full, pins])

    @staticmethod
    def assembled(hessian, jacobian, dw):
        m = len(jacobian)
        w = block_diag(*hessian) + dw * np.eye(jacobian.shape[1])
        return np.block([[w, jacobian.T], [jacobian, np.zeros((m, m))]])

    @settings(max_examples=200, deadline=None)
    @given(stages=st.integers(1, 4), n_c=st.integers(1, 3), n_u=st.integers(0, 3),
           dw=st.sampled_from([0.0, 0.3, 3.0]), data=st.data())
    def test_solve_and_inertia_match_dense(self, stages, n_c, n_u, dw, data):
        ny = n_c + n_u
        n_0 = data.draw(st.integers(0, ny), label="n_0")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        # symmetric stage Hessians, often indefinite
        hessian = rng.standard_normal((stages, ny, ny))
        hessian += hessian.transpose(0, 2, 1)
        segments = rng.standard_normal((stages - 1, n_c, 2 * ny))
        segments[:, :, ny : ny + n_c] += 3.0 * np.eye(n_c)
        block_0 = rng.standard_normal((n_0, ny))
        jacobian = self.jacobian(segments, block_0)
        matrix = self.assembled(hessian, jacobian, dw)
        eig = np.linalg.eigvalsh(matrix)
        # a verdict on an eigenvalue at rounding level means nothing
        assume(np.abs(eig).min() > 1e-6 * np.abs(eig).max())

        kkt = oloc._StageKKT(stages, ny)
        assert kkt.set_jacobian(segments, block_0)
        y = rng.standard_normal(len(jacobian))
        np.testing.assert_allclose(kkt.transpose_product(y), jacobian.T @ y, rtol=0, atol=1e-12)
        solve = kkt.factor(hessian, dw)
        assert (solve is not None) == (np.count_nonzero(eig < 0) == len(jacobian))
        if solve is not None:
            rhs = rng.standard_normal(len(matrix))
            expected = np.linalg.solve(matrix, rhs)
            np.testing.assert_allclose(solve(rhs), expected,
                                       atol=1e-8 * np.abs(expected).max())

    def test_seventeen_device_residual(self, monkeypatch):
        # the last KKT system of the 17-device solve on its 20-segment grid;
        # SuperLU, factoring -1e-8 mu^0.25 I in place of the zero block,
        # left a relative residual of 1.5e-7 on it
        seen = {}
        set_jacobian, factor = oloc._StageKKT.set_jacobian, oloc._StageKKT.factor

        def recorded_jacobian(self, segments, block_0):
            seen["jacobian"] = TestStageKKT.jacobian(segments, block_0)
            return set_jacobian(self, segments, block_0)

        def recorded_factor(self, hessian, dw):
            factored, jacobian = factor(self, hessian, dw), seen["jacobian"]

            def recorded_solve(rhs):
                step = factored(rhs)
                seen["last"] = (hessian, jacobian, dw, rhs, step)
                return step
            return factored and recorded_solve

        monkeypatch.setattr(oloc._StageKKT, "set_jacobian", recorded_jacobian)
        monkeypatch.setattr(oloc._StageKKT, "factor", recorded_factor)
        trans = Transcription(seventeen_device_model(), OlocOptions(segments=20))
        assert solve(trans).status == STATUS_OPTIMAL
        hessian, jacobian, dw, rhs, step = seen["last"]
        residual = self.assembled(hessian, jacobian, dw) @ step - rhs
        assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(rhs)

    def test_seventeen_device_solve_holds_one_factorization(self):
        # each iterate's Hessian blocks, Jacobian inverses and factors are
        # dropped before the next ones are built, and the sweep stores no
        # N S^-1 N' or transposed closed-loop block: the peak was 4.42 MiB
        # while the last iterate's solve outlived the next sweep
        model = seventeen_device_model()
        options = OlocOptions(segments=20, mesh_refinements=0)
        solve(Transcription(model, options))  # the first call's one-time allocations
        trans = Transcription(model, options)
        tracemalloc.start()
        try:
            assert solve(trans).status == STATUS_OPTIMAL
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.6 * 2**20


class TestOneSidedRows:
    """The one-sided rows' stage products with the block, and the stage
    blocks of A' diag(sigma) A, against dense linear algebra."""

    @settings(max_examples=200, deadline=None)
    @given(stages=st.integers(1, 4), ny=st.integers(1, 4), r=st.integers(0, 6),
           data=st.data())
    def test_products_match_dense(self, stages, ny, r, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        n = stages * ny
        # each block row reads a random subset, perhaps empty, of a stage,
        # and each stage keeps a random subset of the rows
        block = rng.standard_normal((r, ny)) * (rng.uniform(size=(r, ny)) < 0.6)
        keep = rng.uniform(size=(stages, r)) < 0.7
        limits = rng.standard_normal((stages, r))
        # the products read only the layout and the one-sided rows
        con = StageConstraints(stages=stages, n_y=ny, n_c=0, n_0=0, defects=None,
                               defects_jac=None, defects_hess=None, pins=None, pins_jac=None,
                               pins_hess=None, block=block, keep=keep, limits=limits)
        product, transpose_product, stage_blocks, b = oloc._one_sided(con)
        a, n_in = one_sided_matrix(con), keep.sum()
        np.testing.assert_array_equal(b, limits[keep])
        z, lam, sigma = rng.standard_normal(n), rng.standard_normal(n_in), rng.uniform(size=n_in)
        np.testing.assert_allclose(product(z), a @ z, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(transpose_product(lam), a.T @ lam, rtol=1e-12, atol=1e-12)
        # the diagonal blocks of A' diag(sigma) A; no row reads two stages,
        # so its other blocks are zero
        dense = a.T @ (sigma[:, None] * a)
        blocks = np.array([dense[k * ny : (k + 1) * ny, k * ny : (k + 1) * ny]
                           for k in range(stages)])
        np.testing.assert_allclose(stage_blocks(sigma), blocks, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(block_diag(*blocks), dense, rtol=0, atol=0)


class TestSeriesOnly:
    """A configuration without independent flows has one trajectory, so its
    endurance comes from the equal-split simulation with no NLP."""

    NOTATION, LOADS_KW = "0 (1,2,3)", [12.0, 4.0, 1.0]

    @pytest.fixture(autouse=True)
    def no_nlp(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a series-only configuration ran an NLP")

        monkeypatch.setattr(oloc, "minimize", refuse)

    def evaluate(self, loads_kw, **options):
        prob = make_problem(self.NOTATION, loads_kw, OlocOptions(**options))
        return prob, evaluate_endurance(prob.model, prob.options)

    def test_endurance_is_the_event_time(self):
        prob, sol = self.evaluate(self.LOADS_KW, segments=20, mesh_refinements=1)
        assert prob.n_u == 0
        event = simulate(prob.model, prob.options.initial_state(prob.model),
                         flows=np.zeros(0), t_end=prob.options.tf_max, tol=1e-8,
                         t_bound=prob.options.t_max).event_time
        assert sol.status == STATUS_OPTIMAL and sol.success
        assert sol.t_end == event
        assert sol.iterations == 0
        assert sol.constraint_violation == 0.0
        assert sol.segments == 20
        assert sol.grid_states.shape == (21, prob.n_temp)
        assert sol.grid_states[-1].max() == pytest.approx(prob.options.t_max, abs=1e-6)

    def test_grid_states_are_exact(self):
        # the grid samples the simulation's own series, where linear
        # interpolation between 400 samples was off by 8.1e-5 K
        prob, sol = self.evaluate(self.LOADS_KW, segments=20)
        exact = exact_states(prob.model, prob.options.initial_state(prob.model),
                             np.zeros(0), sol.grid_t)
        assert np.abs(sol.grid_states[:, :prob.n_temp] - exact).max() <= 1e-6

    def test_answer_is_its_own_verification(self):
        # the returned schedule is the one simulated, so it reaches the
        # bound exactly at t_end; a capped answer reaches it nowhere
        _, sol = self.evaluate(self.LOADS_KW, segments=20)
        assert sol.verified_t_end == sol.t_end
        assert sol.verification_gap == 0.0
        _, capped = self.evaluate([0.0, 0.0, 0.0], segments=8, tf_max=200.0)
        assert np.isnan(capped.verified_t_end) and np.isnan(capped.verification_gap)

    def test_event_before_tf_min_is_infeasible(self):
        _, sol = self.evaluate(self.LOADS_KW, segments=20, tf_min=1000.0)
        assert sol.status == STATUS_INFEASIBLE
        assert not sol.success
        assert sol.iterations == 0

    def test_zero_loads_hit_cap(self):
        _, sol = self.evaluate([0.0, 0.0, 0.0], segments=8, tf_max=200.0)
        assert sol.status == STATUS_CAPPED and sol.success
        assert sol.t_end == 200.0
        assert sol.iterations == 0
