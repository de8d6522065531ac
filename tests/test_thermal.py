import dataclasses
import gc
import json
import weakref

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.optimize import brentq

from thermoforge import thermal
from thermoforge.config import parse_notation
from thermoforge.enumeration import enumerate_single_split, enumerate_trees
from thermoforge.oloc import OlocOptions, evaluate_endurance
from thermoforge.thermal import (
    ModelConstructionError,
    PhysicsParams,
    PiecewiseLinearFlows,
    StiffnessError,
    assemble,
    build_model,
    build_physics_graph,
    simulate,
)

from test_config import random_feasible_flows


def node_balance_rhs(physics, temps, x, loads_w, pump=None, sink=None):
    """Independent oracle: per-node power balance summed edge by edge."""
    params = physics.params
    pump = params.pump_flow if pump is None else pump
    sink = params.sink_flow if sink is None else sink
    te = np.append(temps, params.t_sink)
    power = np.zeros(physics.n_states)
    for (tail, head), ha in zip(physics.convection, physics.conductance):
        q = ha * (te[head] - te[tail])
        power[tail] += q
        power[head] -= q
    for (tail, head), row in zip(physics.advection, physics.flow_rows):
        mdot = row[0] * pump + float(np.dot(row[1:-1], x)) + row[-1] * sink
        power[head] += mdot * params.cp_fluid * (te[tail] - te[head])
    for lab, load in zip(physics.config.labels, loads_w):
        power[physics.node_index(f"w{lab}")] += load
    return power / physics.capacitance


def build_random_case(rng):
    """Random small configuration with loads, temps, and feasible flows."""
    n = int(rng.integers(1, 7))
    pops = enumerate_single_split(n) if rng.random() < 0.5 else enumerate_trees(
        n, complete=True)
    graph = pops[int(rng.integers(len(pops)))]
    loads = {lab: float(rng.uniform(0, 12000)) for lab in graph.labels}
    model = build_model(graph, loads)
    temps = rng.uniform(5.0, 80.0, model.n_states)
    x = random_feasible_flows(model.physics.flow_map, rng)
    return model, temps, x, np.array([loads[lab] for lab in graph.labels])


class TestParams:
    def test_published_defaults(self):
        p = PhysicsParams()
        assert p.llhx_wall_mass == 1.2
        assert p.cphx_wall_mass == 1.15
        assert p.tank_fluid_mass == 2.01
        assert p.t_sink == 15.0
        assert p.sink_flow == 0.2
        assert p.pump_flow == 0.4

    def test_json_roundtrip(self):
        p = PhysicsParams(ha_cphx=750.0)
        assert PhysicsParams.from_json(p.to_json()) == p

    def test_override_unknown_key(self):
        with pytest.raises(ValueError, match="unknown"):
            PhysicsParams.from_json('{"hA": 1.0}')

    def test_positive_validation(self):
        with pytest.raises(ValueError):
            PhysicsParams(cp_fluid=-1.0)

    @pytest.mark.parametrize("name, value", [
        # a string used to raise a bare numpy TypeError, a bool to pass as 1
        ("ha_cphx", "500"), ("ha_cphx", True), ("t_sink", "15"), ("pump_flow", None),
    ])
    def test_non_real_value_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            PhysicsParams.from_json(json.dumps({name: value}))


class TestPhysicsGraph:
    def test_single_device_structure(self):
        pg = build_physics_graph(parse_notation("0 (1)"), {1: 1000.0})
        assert pg.kinds == ("tank_fluid", "cphx_fluid", "cphx_wall", "llhx_primary",
                            "llhx_wall", "llhx_secondary")
        adv = [tuple(e) for e in pg.advection]
        i = pg.node_index
        assert adv == [
            (i("tank"), i("f1")), (i("f1"), i("llhx_p")),
            (i("llhx_p"), i("tank")), (pg.n_states, i("llhx_s")),
        ]
        conv = {frozenset(e) for e in pg.convection}
        assert conv == {
            frozenset((i("w1"), i("f1"))),
            frozenset((i("llhx_w"), i("llhx_p"))),
            frozenset((i("llhx_w"), i("llhx_s"))),
        }

    def test_node_and_edge_counts(self):
        pg = build_physics_graph(parse_notation("0 (1,2) (3)"), {1: 1.0, 2: 1.0, 3: 1.0})
        assert pg.n_states == 10  # 2N + 4 internal
        assert len(pg.names) == len(pg.kinds) == len(pg.capacitance) == 10
        assert len(pg.advection) == 3 + 2 + 1 + 1  # branches + tails + return + sink pair
        assert pg.flow_rows.shape == (len(pg.advection), 2 + pg.flow_map.independent_count)

    def test_scales_to_eighteen_devices(self):
        n = 18
        edges = [(0, 1)] + [(k - 1, k) for k in range(2, n + 1)]
        pg = build_physics_graph(parse_notation("0 (" + ",".join(
            str(k) for k in range(1, n + 1)) + ")"), {k: 1.0 for k in range(1, n + 1)})
        assert pg.n_states == 2 * n + 4
        assert len(pg.names) == len(pg.kinds) == 2 * n + 4

    def test_missing_load_names_label(self):
        with pytest.raises(ModelConstructionError, match=r"\[3\]"):
            build_physics_graph(parse_notation("0 (1,2) (3)"), {1: 1.0, 2: 1.0})

    @pytest.mark.parametrize("load", [float("nan"), float("inf")])
    def test_nonfinite_load_names_label(self, load):
        # such a load used to keep RK45's step loop spinning forever
        with pytest.raises(ModelConstructionError, match=r"\[1\]"):
            build_model(parse_notation("0 (1,2)"), {1: load, 2: 1.0})

    def test_total_flow_into_llhx(self):
        rng = np.random.default_rng(0)
        g = parse_notation("0 (1 (2) (3)) (4,5)")
        pg = build_physics_graph(g, {k: 1.0 for k in range(1, 6)})
        x = random_feasible_flows(pg.flow_map, rng)
        i_llhx = pg.node_index("llhx_p")
        total = sum(
            row[0] * pg.params.pump_flow + float(np.dot(row[1:-1], x))
            for (_, head), row in zip(pg.advection, pg.flow_rows) if head == i_llhx
        )
        assert total == pytest.approx(pg.params.pump_flow, abs=1e-12)

    def test_edge_table_against_flow_map(self):
        # read from the tables alone, without assembling the matrices
        rng = np.random.default_rng(31)
        for _ in range(40):
            model, _, x, _ = build_random_case(rng)
            pg, fm, p = model.physics, model.physics.flow_map, model.params
            flows = pg.flow_rows @ np.concatenate([[p.pump_flow], x, [p.sink_flow]])
            fluid = {0: pg.node_index("tank"),
                     **{lab: pg.node_index(f"f{lab}") for lab in pg.config.labels}}
            # the tree's edges first, in the flow map's order and at its flows
            n_br = len(fm.branch_edges)
            assert [tuple(e) for e in pg.advection[:n_br]] == [
                (fluid[a], fluid[b]) for a, b in fm.branch_edges]
            np.testing.assert_allclose(flows[:n_br], fm.edge_flows(x), rtol=1e-12, atol=1e-15)
            # each leaf feeds the LLHX primary side with its inflow edge's flow
            inflow = dict(zip((c for _, c in fm.branch_edges), fm.edge_flows(x)))
            feeds = {int(tail): f for (tail, head), f in zip(pg.advection, flows)
                     if head == pg.node_index("llhx_p")}
            assert feeds == pytest.approx(
                {fluid[leaf]: inflow[leaf] for leaf in pg.config.leaves}, rel=1e-12, abs=1e-15)
            # one edge leaves the sink, boundary node n_states, into llhx_s
            (k,) = np.flatnonzero(pg.advection[:, 0] == pg.n_states)
            assert pg.advection[k, 1] == pg.node_index("llhx_s")
            assert flows[k] == p.sink_flow
            assert not np.any(pg.advection[:, 1] == pg.n_states)
            mass_cp = {
                "tank_fluid": p.tank_fluid_mass * p.cp_fluid,
                "cphx_fluid": p.cphx_fluid_mass * p.cp_fluid,
                "cphx_wall": p.cphx_wall_mass * p.cp_wall,
                "llhx_primary": p.llhx_primary_fluid_mass * p.cp_fluid,
                "llhx_wall": p.llhx_wall_mass * p.cp_wall,
                "llhx_secondary": p.llhx_secondary_fluid_mass * p.cp_fluid,
            }
            assert list(pg.capacitance) == [mass_cp[kind] for kind in pg.kinds]


class TestAssemble:
    def test_capacitances_positive_diagonal(self):
        m = build_model(parse_notation("0 (1,2)"), {1: 1.0, 2: 1.0})
        assert np.all(m.physics.capacitance > 0)

    def test_convection_pairwise_power_conservation(self):
        # C_i * A_ij == C_j * A_ji for the convection part (antisymmetric powers)
        m = build_model(parse_notation("0 (1) (2)"), {1: 1.0, 2: 1.0})
        a_red = m.a
        power = m.physics.capacitance[:, None] * a_red
        np.testing.assert_allclose(power, power.T, atol=1e-9)

    def test_zero_capacitance_rejected(self):
        pg = build_physics_graph(parse_notation("0 (1)"), {1: 1.0})
        caps = pg.capacitance.copy()
        caps[pg.node_index("tank")] = 0.0
        broken = dataclasses.replace(pg, capacitance=caps)
        with pytest.raises(ModelConstructionError):
            assemble(broken)


class TestRhs:
    def test_global_equilibrium_is_zero(self):
        m = build_model(parse_notation("0 (1,2) (3)"), {k: 0.0 for k in (1, 2, 3)})
        t = np.full(m.n_states, m.t_sink)
        r = m.derivative(t[None], np.zeros((1, m.n_flows + 2)))[0]
        assert np.abs(r).max() < 1e-12

    def test_uniform_temperature_kills_advection(self):
        m = build_model(parse_notation("0 (1)"), {1: 0.0})
        t = np.full(m.n_states, m.t_sink)
        r = m.rhs(t, flows=np.zeros(0))
        assert np.abs(r).max() < 1e-12

    def test_hot_fluid_advects_negative(self):
        m = build_model(parse_notation("0 (1)"), {1: 0.0})
        t = np.full(m.n_states, 15.0)
        i_f1 = m.physics.node_index("f1")
        t[i_f1] = 30.0
        r = m.derivative(t[None], np.array([[m.params.pump_flow, 0.0]]))[0]
        assert r[i_f1] < 0.0

    def test_doubling_ha_doubles_rhs_without_flows(self):
        g = parse_notation("0 (1,2)")
        loads = {1: 0.0, 2: 0.0}
        m1 = build_model(g, loads)
        m2 = build_model(g, loads, PhysicsParams(
            ha_cphx=1000.0, ha_llhx_primary=2000.0, ha_llhx_secondary=2000.0))
        rng = np.random.default_rng(2)
        t = rng.uniform(10, 50, m1.n_states)
        r1 = m1.derivative(t[None], np.zeros((1, 2)))[0]
        r2 = m2.derivative(t[None], np.zeros((1, 2)))[0]
        np.testing.assert_allclose(r2, 2.0 * r1, rtol=1e-12)

    def test_rejects_nonfinite(self):
        m = build_model(parse_notation("0 (1)"), {1: 1.0})
        t = np.full(m.n_states, 20.0)
        t[0] = np.nan
        with pytest.raises(ValueError):
            m.rhs(t, flows=np.zeros(0))

    def test_matrix_vs_node_balance_200_random(self):
        rng = np.random.default_rng(1234)
        for _ in range(200):
            model, temps, x, loads = build_random_case(rng)
            r_matrix = model.rhs(temps, x)
            r_direct = node_balance_rhs(model.physics, temps, x, loads)
            scale = max(np.abs(r_direct).max(), 1e-30)
            assert np.abs(r_matrix - r_direct).max() <= 1e-12 * scale

    def test_advection_power_telescopes(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            model, temps, x, _ = build_random_case(rng)
            pg = model.physics
            te = np.append(temps, model.t_sink)
            # the loop's own streams only: the sink stream is switched off
            mdot = pg.flow_rows @ np.concatenate([[pg.params.pump_flow], x, [0.0]])
            tails, heads = pg.advection.T
            total = float(np.sum(mdot * pg.params.cp_fluid * (te[tails] - te[heads])))
            assert abs(total) <= 1e-9

    def test_global_energy_audit(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            model, temps, x, loads = build_random_case(rng)
            r = model.rhs(temps, x)
            i_ls = model.physics.node_index("llhx_s")
            expected = loads.sum() + model.params.sink_flow * model.params.cp_fluid * (
                model.t_sink - temps[i_ls])
            assert abs(float(model.physics.capacitance @ r) - expected) <= 1e-9


class TestKernel:
    def _batch(self, rng, m_pts=4):
        model, _, _, loads = build_random_case(rng)
        temps = rng.uniform(5.0, 80.0, (m_pts, model.n_states))
        xs = np.array([random_feasible_flows(model.physics.flow_map, rng)
                       for _ in range(m_pts)]).reshape(m_pts, model.n_flows)
        return model, temps, xs, loads

    def test_derivative_batch_vs_node_balance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            model, temps, xs, loads = self._batch(rng)
            f = model.derivative(temps, model.flow_vector(xs))
            assert f.shape == temps.shape
            for p in range(len(temps)):
                direct = node_balance_rhs(model.physics, temps[p], xs[p], loads)
                scale = max(np.abs(direct).max(), 1e-30)
                assert np.abs(f[p] - direct).max() <= 1e-12 * scale

    def test_jacobian_vs_central_differences(self):
        rng = np.random.default_rng(6)
        eps = 1e-6
        for _ in range(20):
            model, temps, xs, _ = self._batch(rng, m_pts=3)
            j_t, j_x = model.jacobian(temps, model.flow_vector(xs))
            assert j_t.shape == (3, model.n_states, model.n_states)
            assert j_x.shape == (3, model.n_states, model.n_flows)

            def f(t, x):
                return model.derivative(t, model.flow_vector(x))

            scale = max(np.abs(j_t).max(), np.abs(j_x).max() if j_x.size else 0.0)
            for i in range(model.n_states):
                dt = np.zeros(model.n_states)
                dt[i] = eps
                fd = (f(temps + dt, xs) - f(temps - dt, xs)) / (2 * eps)
                assert np.abs(j_t[:, :, i] - fd).max() <= 1e-7 * scale
            for i in range(model.n_flows):
                dx = np.zeros(model.n_flows)
                dx[i] = eps
                fd = (f(temps, xs + dx) - f(temps, xs - dx)) / (2 * eps)
                assert np.abs(j_x[:, :, i] - fd).max() <= 1e-7 * scale

    def test_cross_hessian_vs_differences_of_jacobian(self):
        # f is bilinear: d f / d x is affine in T, d f / d T affine in x, so
        # central differences of the Jacobians are exact up to rounding
        rng = np.random.default_rng(9)
        for _ in range(20):
            model, temps, xs, _ = self._batch(rng, m_pts=3)
            weights = rng.standard_normal(temps.shape)
            cross = model.cross_hessian(weights)
            assert cross.shape == (3, model.n_states, model.n_flows)
            if model.n_flows == 0:
                continue
            scale = np.abs(cross).max()
            w = model.flow_vector(xs)
            for i in range(model.n_states):
                dt = np.zeros(model.n_states)
                dt[i] = 1.0
                _, jx_p = model.jacobian(temps + dt, w)
                _, jx_m = model.jacobian(temps - dt, w)
                fd = np.einsum("mi,mil->ml", weights, jx_p - jx_m) / 2.0
                assert np.abs(cross[:, i, :] - fd).max() <= 1e-10 * scale
            for i in range(model.n_flows):
                dx = np.zeros(model.n_flows)
                dx[i] = 1e-3
                jt_p, _ = model.jacobian(temps, model.flow_vector(xs + dx))
                jt_m, _ = model.jacobian(temps, model.flow_vector(xs - dx))
                fd = np.einsum("mi,mij->mj", weights, jt_p - jt_m) / 2e-3
                assert np.abs(cross[:, :, i] - fd).max() <= 1e-8 * scale

    def test_lti_parts_vs_kernel(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            model, temps, xs, _ = self._batch(rng, m_pts=1)
            j, k = model.lti_parts(xs[0])
            w = model.flow_vector(xs)
            np.testing.assert_array_equal(j, model.jacobian(temps, w)[0][0])
            f = model.derivative(temps, w)[0]
            np.testing.assert_allclose(j @ temps[0] + k, f, rtol=1e-12,
                                       atol=1e-12 * np.abs(f).max())

    def test_flow_vector_rows(self):
        m = build_model(parse_notation("0 (1) (2) (3)"), {1: 1.0, 2: 1.0, 3: 1.0})
        xs = np.array([[0.1, 0.2], [0.3, 0.0]])
        w = m.flow_vector(xs)
        np.testing.assert_array_equal(w[1], m.flow_vector(xs[1]))
        assert w.shape == (2, 4)
        with pytest.raises(ValueError):
            m.flow_vector(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            m.rhs(np.full(m.n_states, 20.0), flows=xs)


class TestSimulate:
    def test_convection_only_walls_decay(self):
        m = build_model(parse_notation("0 (1)"), {1: 0.0})
        t0 = m.initial_state(t_wall=20.0, t_fluid=15.0, t_loop=15.0)
        # no pump and no sink flow: the model's own flows would advect
        still = np.zeros((1, m.n_flows + 2))
        sol = solve_ivp(lambda t, y: m.derivative(y[None], still)[0], (0.0, 30.0), t0,
                        rtol=1e-9, atol=1e-12, t_eval=np.linspace(0.0, 30.0, 400))
        states = sol.y.T
        i_w = m.physics.node_index("w1")
        i_f = m.physics.node_index("f1")
        walls = states[:, i_w]
        assert np.all(np.diff(walls) <= 1e-7)  # slack for dense-output wiggle
        assert walls[-1] < walls[0]
        # two-body exchange: wall approaches the fluid temperature
        assert abs(walls[-1] - states[-1, i_f]) < 0.05

    def test_lti_vs_matrix_exponential(self):
        m = build_model(parse_notation("0 (1)"), {1: 5000.0})
        t0 = OlocOptions().initial_state(m)
        j, k = m.lti_parts(np.zeros(0))
        n = m.n_states
        aug = np.zeros((n + 1, n + 1))
        aug[:n, :n] = j
        aug[:n, n] = k
        for t_star in (5.0, 20.0):
            e = expm(aug * t_star)
            exact = e[:n, :n] @ t0 + e[:n, n]
            traj = simulate(m, t0, flows=np.zeros(0), t_end=t_star, tol=1e-11)
            rel = np.abs(traj.at(traj.t_stop) - exact).max() / np.abs(exact).max()
            assert rel <= 1e-8

    def test_event_detection(self):
        m = build_model(parse_notation("0 (1)"), {1: 8000.0})
        traj = simulate(m, OlocOptions().initial_state(m), flows=np.zeros(0),
                        t_end=500.0, tol=1e-9, t_bound=45.0)
        assert traj.event_time is not None
        assert 0.0 < traj.event_time < 500.0
        assert traj.at(traj.t_stop).max() == pytest.approx(45.0, abs=1e-6)

    def test_step_underflow_names_the_fallback(self):
        # a fluid node of 1e-300 kg makes ||J|| about 1e300 /s, so the step
        # that keeps ||J|| h bounded is below the spacing of floats near t
        m = build_model(parse_notation("0 (1)"), {1: 8000.0},
                        PhysicsParams(cphx_fluid_mass=1e-300))
        with pytest.raises(StiffnessError, match="looser tolerance") as err:
            simulate(m, OlocOptions().initial_state(m), flows=np.zeros(0), t_end=10.0)
        assert "BDF" not in str(err.value)

    def test_no_event_without_bound_crossing(self):
        m = build_model(parse_notation("0 (1)"), {1: 100.0})
        traj = simulate(m, OlocOptions().initial_state(m), flows=np.zeros(0),
                        t_end=50.0, tol=1e-8, t_bound=45.0)
        assert traj.event_time is None

    @pytest.mark.parametrize("excess", [0.0, 5.0])
    def test_start_at_or_above_bound_is_the_event(self, excess):
        # no integration: the bound is met at t = 0, in the initial state
        m = build_model(parse_notation("0 (1)"), {1: 8000.0})
        t0 = OlocOptions().initial_state(m)
        t0[0] = 45.0 + excess
        traj = simulate(m, t0, flows=np.zeros(0), t_end=50.0, t_bound=45.0)
        assert traj.event_time == 0.0
        assert traj.t_stop == 0.0
        np.testing.assert_array_equal(traj.at(0.0), t0)

    def test_at_matches_direct_integration(self):
        # inside steps, on the schedule's breakpoints, at 0 and at t_stop
        # (past the last breakpoint, where the schedule holds its end values)
        m = build_model(parse_notation("0 (1) (2)"), {1: 4000.0, 2: 2000.0})
        t0 = OlocOptions().initial_state(m)
        sched = PiecewiseLinearFlows(np.array([0.0, 10.0, 20.0]),
                                     np.array([[0.1], [0.3], [0.2]]))
        traj = simulate(m, t0, flows=sched, t_end=25.0)
        times = np.array([0.0, 3.7, 10.0, 14.2, 20.0, 22.5, 25.0])
        assert traj.t_stop == 25.0
        direct = solve_ivp(
            lambda t, y: m.derivative(y[None], m.flow_vector(sched(t))[None])[0],
            (0.0, 25.0), t0, rtol=1e-12, atol=1e-15, t_eval=times)
        np.testing.assert_allclose(traj.at(times), direct.y.T, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("time", [-1e-9, 25.0 + 1e-9, np.inf, np.nan])
    def test_at_rejects_times_outside_the_run(self, time):
        m = build_model(parse_notation("0 (1)"), {1: 4000.0})
        traj = simulate(m, OlocOptions().initial_state(m), flows=np.zeros(0), t_end=25.0)
        with pytest.raises(ValueError, match="t_stop"):
            traj.at([0.0, time])

    @pytest.mark.parametrize("argument, inputs", [
        pytest.param("t0_state", lambda t0: {"t0_state": np.append(t0[:-1], np.nan)},
                     id="nan-temperature"),
        pytest.param("tol", lambda t0: {"tol": 0.0}, id="zero-tol"),
        pytest.param("tol", lambda t0: {"tol": -1e-8}, id="negative-tol"),
        pytest.param("tol", lambda t0: {"tol": np.nan}, id="nan-tol"),
        pytest.param("t_end", lambda t0: {"t_end": np.nan}, id="nan-t_end"),
        pytest.param("t_end", lambda t0: {"t_end": np.inf}, id="inf-t_end"),
        pytest.param("t_bound", lambda t0: {"t_bound": np.nan}, id="nan-t_bound"),
        pytest.param("times", lambda t0: {"flows": PiecewiseLinearFlows(
            np.array([0.0, 5.0, 5.0]), np.array([[0.1], [0.2], [0.3]]))},
            id="repeated-breakpoints"),
        pytest.param("times", lambda t0: {"flows": PiecewiseLinearFlows(
            np.array([0.0, 5.0, 2.0]), np.array([[0.1], [0.2], [0.3]]))},
            id="decreasing-breakpoints"),
        pytest.param("values", lambda t0: {"flows": PiecewiseLinearFlows(
            np.array([0.0, 5.0]), np.array([[0.1], [np.nan]]))}, id="nan-flow"),
        pytest.param("values", lambda t0: {"flows": PiecewiseLinearFlows(
            np.array([0.0, 5.0]), np.array([[0.1], [0.2], [0.3]]))},
            id="one-row-per-time"),
    ])
    def test_invalid_input_names_the_argument(self, argument, inputs):
        # each of these once failed as a stiffness error, an IndexError or
        # a run without an event
        m = build_model(parse_notation("0 (1) (2)"), {1: 6000.0, 2: 3000.0})
        t0 = OlocOptions().initial_state(m)
        with pytest.raises(ValueError, match=f"^{argument} "):
            simulate(m, **{"t0_state": t0, "flows": np.array([0.15]), "t_end": 50.0,
                           "t_bound": 45.0, **inputs(t0)})

    def test_rhs_arrays_freed_without_the_cycle_collector(self, monkeypatch):
        # scipy's solver object is freed only by the cycle collector, and it
        # keeps the right-hand side; with the collector rarely run, the
        # (J, k) arrays it held raised the 17-device benchmark's peak RSS
        refs = []
        lti_parts = thermal.ThermalModel.lti_parts

        def recorded(self, values):
            parts = lti_parts(self, values)
            refs.extend(weakref.ref(a) for a in parts)
            return parts

        monkeypatch.setattr(thermal.ThermalModel, "lti_parts", recorded)
        m = build_model(parse_notation("0 (1) (2)"), {1: 4000.0, 2: 2000.0})
        gc.disable()
        try:
            simulate(m, OlocOptions().initial_state(m), flows=np.array([0.2]), t_end=10.0)
            assert refs and all(ref() is None for ref in refs)
        finally:
            gc.enable()

    def test_fluid_temperatures_bounded_below(self):
        m = build_model(parse_notation("0 (1) (2)"), {1: 4000.0, 2: 2000.0})
        t0 = OlocOptions().initial_state(m)
        traj = simulate(m, t0, flows=np.array([0.2]), t_end=60.0, tol=1e-9)
        floor = min(m.t_sink, t0.min())
        assert traj.at(np.linspace(0.0, traj.t_stop, 400)).min() >= floor - 1e-6

    def test_piecewise_linear_schedule(self):
        m = build_model(parse_notation("0 (1) (2)"), {1: 4000.0, 2: 2000.0})
        sched = PiecewiseLinearFlows(np.array([0.0, 10.0, 20.0]),
                                     np.array([[0.1], [0.3], [0.2]]))
        traj = simulate(m, OlocOptions().initial_state(m), flows=sched, t_end=20.0,
                        tol=1e-8)
        assert np.all(np.isfinite(traj.at(np.linspace(0.0, traj.t_stop, 400))))

    @pytest.mark.parametrize("notation, loads_kw", [("0 (1) (2,3)", [12.0, 4.0, 1.0]),
                                                    ("0 (1 (2) (3)) (4,5)", [4.0] * 5)])
    def test_event_time_matches_direct_integration(self, notation, loads_kw):
        # simulate integrates J(t) T + k(t) built from lti_parts; RK45 run on
        # model.derivative itself, with the same tolerances, must reach the
        # bound at the same time, under constant flows and a solved schedule.
        # The two runs round differently, so at the schedule's kinks they can
        # take different steps and differ by the integrator's own error (at
        # tol 1e-9 by up to 5e-8 relative); at tol 1e-12 that is below 1e-10
        graph = parse_notation(notation)
        model = build_model(graph, {lab: 1000.0 * kw for lab, kw in zip(graph.labels, loads_kw)})
        options = OlocOptions(segments=10, mesh_refinements=0)
        sol = evaluate_endurance(model, options)
        assert sol.success and model.n_flows > 0
        t0, tol, t_end = options.initial_state(model), 1e-12, 2.0 * sol.t_end
        equal = model.physics.flow_map.equal_split
        schedule = sol.flow_schedule()

        def crossing(t, y):
            return options.t_max - np.max(y)

        crossing.terminal = True
        crossing.direction = -1
        for flows, flow_at in ((equal, lambda t: equal), (schedule, schedule)):
            event = simulate(model, t0, flows=flows, t_end=t_end, tol=tol,
                             t_bound=options.t_max).event_time
            direct = solve_ivp(
                lambda t, y: model.derivative(y[None], model.flow_vector(flow_at(t))[None])[0],
                (0.0, t_end), t0, rtol=tol, atol=tol * 1e-3, events=[crossing])
            (expected,) = direct.t_events[0]
            assert event == pytest.approx(expected, rel=1e-9, abs=0)

    @staticmethod
    def expm_crossing(model, t0, flows, bound):
        """Reference: where the exact solution under constant flows, a
        matrix exponential of the augmented system, first reaches ``bound``."""
        j, k = model.lti_parts(flows)
        n = model.n_states
        aug = np.zeros((n + 1, n + 1))
        aug[:n, :n] = j
        aug[:n, n] = k

        def excess(t):
            e = expm(aug * t)
            return (e[:n, :n] @ t0 + e[:n, n]).max() - bound

        hi = 1.0
        while excess(hi) < 0.0:
            hi *= 2.0
        return brentq(excess, 0.0, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps)

    @pytest.mark.parametrize("notation, loads, flows", [("0 (1)", {1: 8000.0}, []),
                                                        ("0 (1) (2)", {1: 6000.0, 2: 3000.0},
                                                         [0.15])])
    def test_event_matches_matrix_exponential(self, notation, loads, flows):
        # each step sums the exact solution's series, so even at the
        # pipeline's tol 1e-8 the event is within 1e-11 of the exact crossing
        m = build_model(parse_notation(notation), loads)
        t0 = OlocOptions().initial_state(m)
        expected = self.expm_crossing(m, t0, np.array(flows), 45.0)
        traj = simulate(m, t0, flows=np.array(flows), t_end=500.0, tol=1e-8, t_bound=45.0)
        assert traj.event_time == pytest.approx(expected, rel=1e-11, abs=0)
        assert traj.at(traj.t_stop).max() == pytest.approx(45.0, abs=1e-9)

    def test_crossing_on_a_breakpoint(self):
        # the flows change exactly where the bound is reached, so the step
        # that ends on the breakpoint must find the crossing at its end, or
        # the next one at its start
        m = build_model(parse_notation("0 (1) (2)"), {1: 6000.0, 2: 3000.0})
        t0 = OlocOptions().initial_state(m)
        crossing = self.expm_crossing(m, t0, np.array([0.15]), 45.0)
        for later in (0.05, 0.35):
            sched = PiecewiseLinearFlows(np.array([0.0, crossing, 2.0 * crossing]),
                                         np.array([[0.15], [0.15], [later]]))
            traj = simulate(m, t0, flows=sched, t_end=3.0 * crossing, tol=1e-8,
                            t_bound=45.0)
            assert traj.event_time == pytest.approx(crossing, rel=1e-11, abs=0)

    def test_capped_configuration_reaches_no_event(self):
        # light loads settle below the bound: the run spans the whole default
        # final-time cap (about 10,650 steps) and ends at the equilibrium
        m = build_model(parse_notation("0 (1) (2)"), {1: 500.0, 2: 300.0})
        options = OlocOptions()
        flows = m.physics.flow_map.equal_split
        traj = simulate(m, options.initial_state(m), flows=flows, t_end=options.tf_max,
                        tol=1e-8, t_bound=options.t_max)
        assert traj.event_time is None
        assert traj.t_stop == options.tf_max
        j, k = m.lti_parts(flows)
        assert np.abs(j @ traj.at(traj.t_stop) + k).max() <= 1e-9
        assert traj.at(np.linspace(0.0, traj.t_stop, 400)).max() < options.t_max

    def test_initial_state_layout(self):
        m = build_model(parse_notation("0 (1,2)"), {1: 1.0, 2: 1.0})
        t0 = m.initial_state(t_wall=21.0, t_fluid=19.0, t_loop=16.0)
        names = dict(zip(m.physics.names, t0))
        assert names["w1"] == 21.0 and names["f2"] == 19.0
        assert names["tank"] == 16.0 and names["llhx_w"] == 16.0
