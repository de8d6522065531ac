"""Lumped thermal dynamics of a coolant architecture.

A configuration tree is expanded into a thermal network, one edge table in
state order (:class:`PhysicsGraph`): the tank, a fluid node per device, a
wall node per device, then the liquid-to-liquid heat exchanger's primary,
wall and secondary nodes; the fixed-temperature sink stream is the boundary
node ``n_states``.  Each advection edge (tail, head) has a flow row over
w = [pump flow; independent branch flows; sink flow], the branch edges'
rows copied from the flow map; each convection pair has a conductance; heat
loads enter the walls.  The assembled state equation is bilinear in
temperatures and flow rates,

    dT/dt = A [T; T_sink] + B1 diag(Z w) B2 [T; T_sink] + C^-1 D P,

with Z the flow rows.  Advection into a node enters as
m_dot * cp * (T_upstream - T_node) / C_node; convection pairs exchange
hA * dT.

The equation is evaluated in one place, :meth:`ThermalModel.derivative`
(with its Jacobians in :meth:`ThermalModel.jacobian`), batched over points;
the collocation transcription calls both, and the simulator integrates the
affine form they give for fixed flows, :meth:`ThermalModel.lti_parts`.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.integrate import solve_ivp

from .config import ROOT, ConfigGraph, FlowMap, build_flow_map, check_fields, overridden


class ModelConstructionError(ValueError):
    """Physics graph or matrix assembly is inconsistent."""


class StiffnessError(RuntimeError):
    """The integrator's step size underflowed; try a looser tolerance."""


@dataclass(frozen=True)
class PhysicsParams:
    """Physical constants (SI units; temperatures in deg C).

    Masses and flow rates follow the published set; heat-transfer
    coefficients and specific heats default to plausible water/aluminum
    magnitudes and are meant to be overridden when calibrating, so absolute
    endurance values depend on this calibration.
    """

    cp_fluid: float = 4184.0              # J/(kg K)
    cp_wall: float = 896.0                # J/(kg K)
    llhx_wall_mass: float = 1.2           # kg
    cphx_wall_mass: float = 1.15          # kg
    tank_fluid_mass: float = 2.01         # kg
    cphx_fluid_mass: float = 0.2          # kg
    llhx_primary_fluid_mass: float = 0.3  # kg
    llhx_secondary_fluid_mass: float = 0.3  # kg
    ha_cphx: float = 500.0                # W/K
    ha_llhx_primary: float = 1000.0       # W/K
    ha_llhx_secondary: float = 1000.0     # W/K
    t_sink: float = 15.0                  # deg C
    sink_flow: float = 0.2                # kg/s
    pump_flow: float = 0.4                # kg/s

    def __post_init__(self):
        check_fields(self)
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "t_sink" and not value > 0:
                raise ValueError(f"{f.name} must be positive, got {value}")

    def to_json(self) -> str:
        return json.dumps({f.name: getattr(self, f.name) for f in fields(self)}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "PhysicsParams":
        return overridden(cls(), json.loads(text), "physics parameters")


@dataclass(frozen=True, eq=False)
class PhysicsGraph:
    """The thermal network of one configuration, as tables in state order.

    The states are the tank, a fluid node per device, a wall node per
    device (each in label order), then the LLHX primary, wall and secondary
    nodes; the sink stream is the boundary node ``n_states``, at ``t_sink``.
    ``advection`` rows are streams (tail, head): the tree's edges in the
    flow map's order, each leaf's feed of the LLHX primary side, the return
    to the tank and the sink stream into the secondary side.  Stream k
    flows at ``flow_rows[k] @ w``, w = [pump; independent flows; sink], and
    carries m_dot * cp * (T_tail - T_head) into its head.  ``convection``
    rows are pairs exchanging ``conductance[k] * dT``.  Heat loads enter
    the walls.
    """

    config: ConfigGraph
    flow_map: FlowMap = field(repr=False)
    params: PhysicsParams
    loads_w: np.ndarray = field(repr=False)       # per sorted device label
    names: tuple[str, ...] = field(repr=False)
    kinds: tuple[str, ...] = field(repr=False)
    capacitance: np.ndarray = field(repr=False)   # (n,) J/K
    advection: np.ndarray = field(repr=False)     # (n_adv, 2) tail, head
    flow_rows: np.ndarray = field(repr=False)     # (n_adv, 2+N_f)
    convection: np.ndarray = field(repr=False)    # (n_conv, 2)
    conductance: np.ndarray = field(repr=False)   # (n_conv,) W/K

    @property
    def n_states(self) -> int:
        return len(self.names)

    def node_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(name) from None


def build_physics_graph(
    graph: ConfigGraph,
    loads_w: dict,
    params: PhysicsParams | None = None,
) -> PhysicsGraph:
    """Expand a configuration tree into its thermal network.

    ``loads_w`` maps every device label to its heat load in watts; a missing
    label or a non-finite load is an error.
    """
    p = params or PhysicsParams()
    missing = [lab for lab in graph.labels if lab not in loads_w]
    if missing:
        raise ModelConstructionError(f"no heat load given for device label(s) {missing}")
    loads = np.array([float(loads_w[lab]) for lab in graph.labels])
    # a NaN or infinite load never lets the integrator's step control settle
    nonfinite = [lab for lab, q in zip(graph.labels, loads) if not np.isfinite(q)]
    if nonfinite:
        raise ModelConstructionError(f"heat load of device label(s) {nonfinite} "
                                     "must be finite")
    fm = build_flow_map(graph, p.pump_flow)
    labels, n_dev = graph.labels, len(graph.labels)
    fluid = {ROOT: 0, **{lab: 1 + k for k, lab in enumerate(labels)}}
    llhx_p, llhx_w, llhx_s, sink = range(2 * n_dev + 1, 2 * n_dev + 5)

    names = ("tank", *(f"f{lab}" for lab in labels), *(f"w{lab}" for lab in labels),
             "llhx_p", "llhx_w", "llhx_s")
    kinds = ("tank_fluid", *("cphx_fluid",) * n_dev, *("cphx_wall",) * n_dev,
             "llhx_primary", "llhx_wall", "llhx_secondary")
    capacitance = np.array(
        [p.tank_fluid_mass * p.cp_fluid]
        + [p.cphx_fluid_mass * p.cp_fluid] * n_dev + [p.cphx_wall_mass * p.cp_wall] * n_dev
        + [p.llhx_primary_fluid_mass * p.cp_fluid, p.llhx_wall_mass * p.cp_wall,
           p.llhx_secondary_fluid_mass * p.cp_fluid])

    # the tree's edges, then each leaf's feed of the LLHX primary side (its
    # inflow edge's flow), the loop closure at the pump rate and the sink
    # stream into the secondary side
    branch_rows = np.column_stack([fm.edge_offset / p.pump_flow, fm.edge_matrix,
                                   np.zeros(len(fm.branch_edges))])
    inflow = {c: k for k, (_, c) in enumerate(fm.branch_edges)}
    unit = np.eye(branch_rows.shape[1])
    flow_rows = np.vstack([branch_rows, branch_rows[[inflow[leaf] for leaf in graph.leaves]],
                           unit[[0, -1]]])
    advection = np.array([(fluid[a], fluid[b]) for a, b in fm.branch_edges]
                         + [(fluid[leaf], llhx_p) for leaf in graph.leaves]
                         + [(llhx_p, 0), (sink, llhx_s)])
    convection = np.array([(fluid[lab] + n_dev, fluid[lab]) for lab in labels]
                          + [(llhx_w, llhx_p), (llhx_w, llhx_s)])
    conductance = np.array([p.ha_cphx] * n_dev + [p.ha_llhx_primary, p.ha_llhx_secondary])

    return PhysicsGraph(config=graph, flow_map=fm, params=p, loads_w=loads,
                        names=names, kinds=kinds, capacitance=capacitance,
                        advection=advection, flow_rows=flow_rows,
                        convection=convection, conductance=conductance)


@dataclass(frozen=True, eq=False)
class ThermalModel:
    """Assembled matrices of the bilinear state equation."""

    physics: PhysicsGraph
    a: np.ndarray = field(repr=False)     # (n, n+1) convection dynamics
    b1: np.ndarray = field(repr=False)    # (n, n_adv) cp/C injection per edge head
    b2: np.ndarray = field(repr=False)    # (n_adv, n+1) tail-minus-head selector
    z: np.ndarray = field(repr=False)     # (n_adv, 2+N_f) flow decomposition
    c: np.ndarray = field(repr=False)     # (n,) capacitances, J/K
    d: np.ndarray = field(repr=False)     # (n, n_dev) load injection
    state_names: tuple[str, ...] = ()

    @property
    def params(self) -> PhysicsParams:
        return self.physics.params

    @property
    def n_states(self) -> int:
        return self.a.shape[0]

    @property
    def n_flows(self) -> int:
        return self.z.shape[1] - 2

    @property
    def t_sink(self) -> float:
        return self.params.t_sink

    @property
    def leaf_wall_indices(self) -> tuple[int, ...]:
        """Wall nodes of branch-end devices; at optimal endurance these are
        the walls that can reach the temperature bound together (mid-branch
        devices see cooler coolant and lag by the preheat gap)."""
        return tuple(self.physics.node_index(f"w{lab}")
                     for lab in sorted(self.physics.config.leaves))

    def flow_vector(self, flows) -> np.ndarray:
        """Assemble w = [pump; independent flows; sink stream], row by row
        when ``flows`` holds one flow vector per row, shape (m, N_f)."""
        x = np.atleast_1d(np.asarray(flows, dtype=float))
        if x.ndim > 2 or x.shape[-1] != self.n_flows:
            raise ValueError(f"expected {self.n_flows} independent flows, got {x.shape}")
        ends = x.shape[:-1] + (1,)
        return np.concatenate([np.full(ends, self.params.pump_flow), x,
                               np.full(ends, self.params.sink_flow)], axis=-1)

    def derivative(self, temps: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Temperature derivatives (K/s) at m points under the model's heat
        loads: ``temps`` (m, n) and flow vectors ``w`` (m, 2+N_f) give f of
        shape (m, n)."""
        edge_flows = w @ self.z.T                                       # (m, n_e)
        tdiff = temps @ self.b2[:, :-1].T + self.t_sink * self.b2[:, -1]  # (m, n_e)
        return (
            temps @ self.a[:, :-1].T
            + self.t_sink * self.a[:, -1]
            + (edge_flows * tdiff) @ self.b1.T
            + (self.d @ self.physics.loads_w) / self.c
        )

    def jacobian(self, temps: np.ndarray, w: np.ndarray):
        """Jacobians of :meth:`derivative` at m points: d f / d T of shape
        (m, n, n) and d f / d x (independent flows) of shape (m, n, N_f)."""
        edge_flows = w @ self.z.T
        tdiff = temps @ self.b2[:, :-1].T + self.t_sink * self.b2[:, -1]
        j_t = self.a[:, :-1] + self.b1 @ (edge_flows[:, :, None] * self.b2[:, :-1])
        j_x = self.b1 @ (tdiff[:, :, None] * self.z[:, 1:-1])
        return j_t, j_x

    def cross_hessian(self, weights: np.ndarray) -> np.ndarray:
        """Weighted second derivative sum_i weights_i d2 f_i / dT dx for m
        weight vectors (m, n), shape (m, n, N_f).  f is bilinear, so this is
        its only nonzero second derivative, and it does not depend on the
        point."""
        return np.einsum("me,ej,el->mjl", weights @ self.b1, self.b2[:, :-1],
                         self.z[:, 1:-1])

    def rhs(self, temperatures, flows) -> np.ndarray:
        """Temperature derivative (K/s) at one point."""
        t = np.asarray(temperatures, dtype=float)
        if t.shape != (self.n_states,):
            raise ValueError(f"expected {self.n_states} temperatures, got {t.shape}")
        w = self.flow_vector(flows)
        if w.ndim != 1:
            raise ValueError(f"expected one flow vector, got shape {np.shape(flows)}")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(w))):
            raise ValueError("rhs inputs must be finite")
        return self.derivative(t[None], w[None])[0]

    def lti_parts(self, flows):
        """For fixed flows the dynamics are affine: dT/dt = J T + k.  Row by
        row when ``flows`` holds one flow vector per row, shape (m, N_f):
        then J is (m, n, n) and k is (m, n)."""
        w = self.flow_vector(flows)
        rows = np.atleast_2d(w)
        zero = np.zeros((len(rows), self.n_states))
        j, _ = self.jacobian(zero, rows)
        k = self.derivative(zero, rows)
        return (j[0], k[0]) if w.ndim == 1 else (j, k)

    def initial_state(self, t_wall: float, t_fluid: float, t_loop: float) -> np.ndarray:
        """Initial temperatures: device walls and fluids at their own, tank
        and LLHX at the loop temperature.  ``OlocOptions.initial_state``
        gives them from the options."""
        kinds = np.array(self.physics.kinds)
        t0 = np.full(self.n_states, t_loop, dtype=float)
        t0[kinds == "cphx_fluid"] = t_fluid
        t0[kinds == "cphx_wall"] = t_wall
        return t0


def assemble(physics: PhysicsGraph) -> ThermalModel:
    """Scatter a physics graph's tables into the state-equation matrices."""
    n = physics.n_states
    caps = physics.capacitance
    if np.any(~np.isfinite(caps)) or np.any(caps <= 0.0):
        raise ModelConstructionError("every internal node needs a positive capacitance")

    # in table order: the LLHX wall's diagonal sums two conductances
    a = np.zeros((n, n + 1))
    for (i, j), ha in zip(physics.convection, physics.conductance):
        a[i, i] -= ha / caps[i]
        a[i, j] += ha / caps[i]
        a[j, j] -= ha / caps[j]
        a[j, i] += ha / caps[j]

    tails, heads = physics.advection.T
    edges = np.arange(len(physics.advection))
    b1 = np.zeros((n, len(edges)))
    b1[heads, edges] = physics.params.cp_fluid / caps[heads]
    b2 = np.zeros((len(edges), n + 1))
    b2[edges, tails] = 1.0
    b2[edges, heads] = -1.0

    labels = physics.config.labels
    d = np.zeros((n, len(labels)))
    d[[physics.node_index(f"w{lab}") for lab in labels], np.arange(len(labels))] = 1.0

    return ThermalModel(physics=physics, a=a, b1=b1, b2=b2, z=physics.flow_rows,
                        c=caps, d=d, state_names=physics.names)


def build_model(graph: ConfigGraph, loads_w: dict,
                params: PhysicsParams | None = None) -> ThermalModel:
    """Convenience: expand and assemble in one step."""
    return assemble(build_physics_graph(graph, loads_w, params))


def interp_columns(x, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """Interpolate every column of ``fp`` (len(xp), k) linearly at ``x``;
    the result has shape ``np.shape(x) + (k,)``."""
    out = np.empty(np.shape(x) + fp.shape[1:])
    for j in range(fp.shape[1]):
        out[..., j] = np.interp(x, xp, fp[:, j])
    return out


@dataclass(frozen=True)
class PiecewiseLinearFlows:
    """Independent-flow schedule interpolated linearly between breakpoints."""

    times: np.ndarray
    values: np.ndarray  # (len(times), N_f)

    def __call__(self, t: float) -> np.ndarray:
        t = np.clip(t, self.times[0], self.times[-1])
        return interp_columns(t, self.times, self.values)


@dataclass(frozen=True)
class Trajectory:
    t: np.ndarray
    states: np.ndarray  # (len(t), n_states)
    event_time: float | None

    def interpolate(self, times) -> np.ndarray:
        return interp_columns(np.atleast_1d(times), self.t, self.states)


def simulate(
    model: ThermalModel,
    t0_state,
    flows,
    t_end: float = 100.0,
    tol: float = 1e-8,
    t_bound: float | None = None,
    dense_points: int = 400,
) -> Trajectory:
    """Integrate the model under its heat loads with ``solve_ivp``'s RK45,
    an adaptive embedded Runge-Kutta pair.

    ``flows`` is a constant vector of independent flows or a
    :class:`PiecewiseLinearFlows` schedule.  For given flows the dynamics
    are affine in the temperatures, dT/dt = J T + k, and J and k are affine
    in the flows, so the integrated right-hand side is J(t) T + k(t) with
    (J, k) from :meth:`ThermalModel.lti_parts` at each breakpoint of the
    schedule (constant flows are one interval with equal ends) and
    interpolated linearly between breakpoints, which is exact.  With
    ``t_bound`` set, integration stops
    at the first time any temperature reaches the bound and reports it as
    ``event_time``.
    """
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    y0 = np.asarray(t0_state, dtype=float)

    if isinstance(flows, PiecewiseLinearFlows):
        times, values = flows.times, flows.values
    else:
        times, values = np.zeros(1), np.atleast_1d(np.asarray(flows, dtype=float))[None]
    if len(times) == 1:
        # constant flows: two equal breakpoints, one interval of constant (J, k)
        times, values = np.array([times[0], times[0] + 1.0]), np.repeat(values, 2, axis=0)
    jac, k = model.lti_parts(values)
    djac, dk = np.diff(jac, axis=0), np.diff(k, axis=0)
    # the schedule holds its end values outside [times[0], times[-1]]
    breaks, dt = times.tolist(), np.diff(times).tolist()
    last = len(dt) - 1

    def f(t, y):
        i = min(max(bisect_right(breaks, t) - 1, 0), last)
        s = min(max(t - breaks[i], 0.0), dt[i]) / dt[i]
        return jac[i] @ y + k[i] + s * (djac[i] @ y + dk[i])

    events = None
    if t_bound is not None:
        if np.max(y0) >= t_bound:
            return Trajectory(np.array([0.0]), y0[None, :], 0.0)

        def crossing(t, y):
            return t_bound - np.max(y)

        crossing.terminal = True
        crossing.direction = -1
        events = [crossing]

    sol = solve_ivp(f, (0.0, t_end), y0, rtol=tol, atol=tol * 1e-3,
                    dense_output=True, events=events)  # RK45, the default
    jac = k = djac = dk = None  # f outlives this call in scipy's solver's reference cycle
    if sol.status == -1:
        raise StiffnessError(f"{sol.message}; retry with a looser tolerance than "
                             f"tol={tol:g}")

    t_stop = sol.t[-1]
    event_time = None
    if events is not None and len(sol.t_events[0]):
        event_time = float(sol.t_events[0][0])
        t_stop = event_time
    ts = np.linspace(0.0, t_stop, dense_points)
    ys = sol.sol(ts).T
    return Trajectory(ts, ys, event_time)
