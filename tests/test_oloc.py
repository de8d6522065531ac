import numpy as np
import pytest

from thermoforge.config import build_flow_map, parse_notation
from thermoforge.oloc import (
    STATUS_CAPPED,
    FormulationError,
    OlocOptions,
    Transcription,
    evaluate_endurance,
    formulate,
    solve,
    transcribe,
)
from thermoforge.thermal import build_model, simulate


def make_problem(notation, loads_kw, options=None):
    graph = parse_notation(notation)
    loads = {lab: kw * 1000.0 for lab, kw in zip(graph.labels, loads_kw)}
    model = build_model(graph, loads)
    flow_map = build_flow_map(graph, model.params.pump_flow)
    return formulate(model, flow_map, loads, options or OlocOptions())


@pytest.fixture(scope="module")
def sol_two_parallel():
    """Shared solve of '0 (1) (2)' with asymmetric loads (default mesh)."""
    prob = make_problem("0 (1) (2)", [6.0, 3.0],
                        OlocOptions(segments=50, mesh_refinements=1))
    return prob, evaluate_endurance(prob.model, prob.flow_map, prob.loads_w,
                                    prob.options)


class TestFormulate:
    def test_series_degenerates_to_simulation(self):
        prob = make_problem("0 (1,2,3)", [4.0, 4.0, 4.0])
        assert prob.n_f == 0
        assert prob.lam == 0.0
        assert prob.n_x == prob.n_temp

    def test_three_way_split(self):
        prob = make_problem("0 (1) (2) (3)", [4.0, 4.0, 4.0])
        assert prob.n_f == 2
        assert len(prob.flow_map.dependent) == 1
        assert prob.n_temp == 2 * 3 + 4
        assert prob.lam == pytest.approx(0.01 / (2 * 0.05**2))

    def test_state_dimension_scales(self):
        n = 17
        notation = "0 (" + ",".join(str(k) for k in range(1, n + 1)) + ")"
        prob = make_problem(notation, [4.0] * n)
        assert prob.n_temp == 2 * n + 4

    def test_mismatched_flow_map(self):
        g1 = parse_notation("0 (1) (2)")
        g2 = parse_notation("0 (1,2)")
        model = build_model(g1, {1: 1000.0, 2: 1000.0})
        fm2 = build_flow_map(g2, model.params.pump_flow)
        with pytest.raises(FormulationError):
            formulate(model, fm2, {1: 1000.0, 2: 1000.0})

    def test_missing_load(self):
        g = parse_notation("0 (1) (2)")
        model = build_model(g, {1: 1000.0, 2: 1000.0})
        fm = build_flow_map(g, model.params.pump_flow)
        with pytest.raises(FormulationError, match=r"\[2\]"):
            formulate(model, fm, {1: 1000.0})

    def test_initial_temperature_above_bound(self):
        g = parse_notation("0 (1)")
        model = build_model(g, {1: 1000.0})
        fm = build_flow_map(g, model.params.pump_flow)
        with pytest.raises(FormulationError, match="bound"):
            formulate(model, fm, {1: 1000.0},
                      OlocOptions(t_wall_initial=50.0))


class TestOptions:
    def test_json_aliases(self):
        o = OlocOptions.from_json('{"segments": 30, "t_f_bounds": [2, 500], "T_max": 50}')
        assert o.segments == 30
        assert (o.tf_min, o.tf_max) == (2.0, 500.0)
        assert o.t_max == 50.0

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            OlocOptions.from_json('{"segmeents": 30}')

    def test_scheme_validation(self):
        with pytest.raises(ValueError):
            OlocOptions(scheme="euler")


class TestTranscription:
    def test_pack_unpack_roundtrip(self):
        prob = make_problem("0 (1) (2)", [4.0, 2.0])
        trans = transcribe(prob, segments=4, tf_guess=25.0)
        rng = np.random.default_rng(0)
        tf = 33.0
        states = rng.uniform(10, 40, (trans.n_pts, trans.n_x))
        controls = rng.uniform(-0.04, 0.04, (trans.n_pts, trans.n_u))
        tf2, s2, c2 = trans.unpack(trans.pack(tf, states, controls))
        assert tf2 == pytest.approx(tf, rel=1e-14)
        np.testing.assert_allclose(s2, states, rtol=1e-13)
        np.testing.assert_allclose(c2, controls, rtol=1e-13)

    def test_flow_state_defect_is_exact_trapezoid(self):
        # the flow states obey xdot = u, so their defect rows are the
        # trapezoid rule applied to u, hand-checkable
        prob = make_problem("0 (1) (2)", [4.0, 2.0])
        trans = transcribe(prob, segments=2, tf_guess=10.0)
        tf = 10.0
        states = np.tile(prob.initial_temperatures(), (3, 1))
        states = np.hstack([states, np.array([[0.1], [0.2], [0.15]])])
        controls = np.array([[0.01], [0.03], [-0.02]])
        d = trans.defects(trans.pack(tf, states, controls))
        d = d.reshape(trans.segments, trans.n_x) * trans.sx
        h = 0.5 * tf
        assert d[0, trans.n_temp] == pytest.approx(
            0.2 - 0.1 - (h / 2) * (0.01 + 0.03), abs=1e-12)
        assert d[1, trans.n_temp] == pytest.approx(
            0.15 - 0.2 - (h / 2) * (0.03 - 0.02), abs=1e-12)

    @pytest.mark.parametrize("scheme", ["trapezoidal", "hermite_simpson"])
    def test_gradients_match_finite_differences(self, scheme):
        prob = make_problem("0 (1) (2)", [6.0, 3.0], OlocOptions(segments=5))
        trans = transcribe(prob, scheme=scheme, tf_guess=30.0)
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

        jac = trans.defects_jac(z).toarray()
        jac_fd = np.empty_like(jac)
        for i in range(trans.n_z):
            zp, zm = z.copy(), z.copy()
            zp[i] += eps
            zm[i] -= eps
            jac_fd[:, i] = (trans.defects(zp) - trans.defects(zm)) / (2 * eps)
        assert np.abs(jac - jac_fd).max() <= 1e-5 * np.abs(jac_fd).max()

    def test_defect_residual_shrinks_with_mesh(self):
        # sampling an accurate trajectory away from the initial fast
        # transient: trapezoid local residual ~ h^3
        prob = make_problem("0 (1)", [8.0])
        traj = simulate(prob.model, prob.initial_temperatures(), flows=np.zeros(0),
                        t_end=25.0, tol=1e-11, dense_points=8000)
        t_lo, window = 5.0, 20.0
        residual = {}
        for segments in (10, 20, 40):
            trans = transcribe(prob, segments=segments, tf_guess=window)
            grid = t_lo + np.linspace(0.0, window, trans.n_pts)
            states = traj.interpolate(grid)
            z = trans.pack(window, states, np.zeros((trans.n_pts, 0)))
            residual[segments] = np.abs(trans.defects(z)).max()
        order1 = np.log2(residual[10] / residual[20])
        order2 = np.log2(residual[20] / residual[40])
        assert order1 > 2.0 and order2 > 2.0  # third-order local residual

    def test_guess_is_near_feasible(self):
        prob = make_problem("0 (1) (2)", [6.0, 3.0])
        trans = transcribe(prob, segments=20, tf_guess=None)
        z0 = trans.initial_guess()
        assert np.abs(trans.defects(z0)).max() < 0.5  # discretization error only
        lb, ub = trans.bounds().lb, trans.bounds().ub
        assert np.all(z0 >= lb - 1e-9) and np.all(z0 <= ub + 1e-9)


class TestSolve:
    def test_endurance_matches_event_time_without_controls(self):
        prob = make_problem("0 (1)", [8.0],
                            OlocOptions(segments=50, mesh_refinements=2))
        sol = evaluate_endurance(prob.model, prob.flow_map, prob.loads_w,
                                 prob.options)
        traj = simulate(prob.model, prob.initial_temperatures(), flows=np.zeros(0),
                        t_end=1000.0, tol=1e-10, t_bound=45.0)
        assert sol.success
        assert abs(sol.t_end - traj.event_time) / traj.event_time <= 0.005

    def test_global_order_of_final_time(self):
        prob = make_problem("0 (1)", [8.0])
        truth = simulate(prob.model, prob.initial_temperatures(), flows=np.zeros(0),
                         t_end=1000.0, tol=1e-11, t_bound=45.0).event_time
        errors = []
        for segments in (8, 16, 32):
            trans = transcribe(prob, segments=segments)
            sol = solve(trans)
            assert sol.success
            errors.append(abs(sol.t_end - truth))
        assert errors[2] < errors[1] < errors[0]
        order = np.log2(errors[0] / errors[2]) / 2.0
        assert order > 1.2  # second-order scheme, loosely observed

    def test_optimized_beats_equal_split(self, sol_two_parallel):
        prob, sol = sol_two_parallel
        assert sol.success
        eq_event = simulate(prob.model, prob.initial_temperatures(),
                            flows=prob.flow_map.equal_split(), t_end=1000.0,
                            tol=1e-9, t_bound=45.0).event_time
        assert sol.t_end > eq_event

    def test_penalty_below_one_percent(self, sol_two_parallel):
        _, sol = sol_two_parallel
        assert sol.penalty_value < 0.01 * sol.t_end

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
        traj = simulate(prob.model, prob.initial_temperatures(), flows=schedule,
                        loads_w=prob.loads_w, t_end=sol.t_end, tol=1e-9)
        final = traj.states[-1]
        optimized = sol.grid_states[-1, : prob.n_temp]
        assert np.abs(final - optimized).max() <= 0.5

    def test_resimulation_reaches_bound_at_endurance(self, sol_two_parallel):
        # the reported endurance must be one the returned schedule reaches
        prob, sol = sol_two_parallel
        o = prob.options
        traj = simulate(prob.model, prob.initial_temperatures(),
                        flows=sol.flow_schedule(), loads_w=prob.loads_w,
                        t_end=2.0 * sol.t_end, tol=1e-9, t_bound=o.t_max)
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
        sol = evaluate_endurance(prob.model, prob.flow_map, prob.loads_w,
                                 prob.options)
        assert sol.status == STATUS_CAPPED
        assert sol.t_end == 200.0

    def test_deterministic_reruns(self):
        opts = OlocOptions(segments=12, mesh_refinements=0)
        runs = []
        for _ in range(2):
            prob = make_problem("0 (1)", [8.0], opts)
            sol = evaluate_endurance(prob.model, prob.flow_map, prob.loads_w, opts)
            runs.append(sol.t_end)
        assert runs[0] == runs[1]

    def test_endurance_decreases_with_load(self):
        ends = []
        for kw in (8.0, 10.0, 12.0):
            prob = make_problem("0 (1)", [kw], OlocOptions(segments=16,
                                                           mesh_refinements=0))
            sol = evaluate_endurance(prob.model, prob.flow_map, prob.loads_w,
                                     prob.options)
            assert sol.success
            ends.append(sol.t_end)
        assert ends[0] > ends[1] > ends[2]

    def test_hermite_simpson_scheme(self):
        prob = make_problem("0 (1)", [8.0],
                            OlocOptions(segments=16, scheme="hermite_simpson",
                                        mesh_refinements=0))
        sol = evaluate_endurance(prob.model, prob.flow_map, prob.loads_w,
                                 prob.options)
        truth = simulate(prob.model, prob.initial_temperatures(), flows=np.zeros(0),
                         t_end=1000.0, tol=1e-10, t_bound=45.0).event_time
        assert sol.success
        assert abs(sol.t_end - truth) / truth <= 0.005

    def test_summary_and_csv(self, sol_two_parallel, tmp_path):
        _, sol = sol_two_parallel
        s = sol.summary()
        assert set(s) == {"config", "t_end", "objective", "penalty", "status",
                          "wall_arrival_spread"}
        path = tmp_path / "traj.csv"
        sol.write_trajectory_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("t_s,")
        assert len(lines) == 1 + len(sol.t)
