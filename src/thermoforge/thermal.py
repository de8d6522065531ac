"""Lumped thermal dynamics of a coolant architecture.

A configuration tree is expanded into a physics graph: every device gets a
fluid node and a wall node, the loop closes through a liquid-to-liquid heat
exchanger (primary/wall/secondary), and the secondary side couples to a
fixed-temperature sink stream.  The assembled state equation is bilinear in
temperatures and flow rates,

    dT/dt = A [T; T_sink] + B1 diag(Z w) B2 [T; T_sink] + C^-1 D P,

with w = [pump flow; independent branch flows; sink flow].  Advection into a
node enters as m_dot * cp * (T_upstream - T_node) / C_node; convection pairs
exchange hA * dT; heat loads inject directly into wall nodes.

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


@dataclass(frozen=True)
class PhysicsNode:
    name: str
    kind: str
    capacitance: float | None  # J/K; None for the boundary node


@dataclass(frozen=True)
class PhysicsEdge:
    """kind 'convection' uses ha; 'advection'/'bidir_advection' carry the
    affine flow decomposition (pump_coef, x_coefs, sink_coef)."""

    kind: str
    tail: int
    head: int
    ha: float | None = None
    pump_coef: float = 0.0
    x_coefs: tuple[float, ...] = ()
    sink_coef: float = 0.0


@dataclass(frozen=True)
class PhysicsGraph:
    config: ConfigGraph
    flow_map: FlowMap = field(repr=False)
    params: PhysicsParams
    nodes: tuple[PhysicsNode, ...]
    edges: tuple[PhysicsEdge, ...]
    heat_load_map: dict  # device label -> wall node index
    loads_w: np.ndarray = field(repr=False)  # per sorted device label
    sink_index: int = 0

    @property
    def n_states(self) -> int:
        return self.sink_index

    def node_index(self, name: str) -> int:
        for i, n in enumerate(self.nodes):
            if n.name == name:
                return i
        raise KeyError(name)

    def advection_edges(self) -> tuple[PhysicsEdge, ...]:
        return tuple(e for e in self.edges if e.kind in ("advection", "bidir_advection"))

    def convection_edges(self) -> tuple[PhysicsEdge, ...]:
        return tuple(e for e in self.edges if e.kind == "convection")


def build_physics_graph(
    graph: ConfigGraph,
    loads_w: dict,
    params: PhysicsParams | None = None,
) -> PhysicsGraph:
    """Expand a configuration tree into the full physics graph.

    ``loads_w`` maps every device label to its heat load in watts; a missing
    label or a non-finite load is an error.
    """
    params = params or PhysicsParams()
    missing = [lab for lab in graph.labels if lab not in loads_w]
    if missing:
        raise ModelConstructionError(f"no heat load given for device label(s) {missing}")
    loads = np.array([float(loads_w[lab]) for lab in graph.labels])
    # a NaN or infinite load never lets the integrator's step control settle
    nonfinite = [lab for lab, p in zip(graph.labels, loads) if not np.isfinite(p)]
    if nonfinite:
        raise ModelConstructionError(f"heat load of device label(s) {nonfinite} "
                                     "must be finite")
    flow_map = build_flow_map(graph, params.pump_flow)
    n_f = flow_map.independent_count

    nodes: list[PhysicsNode] = [
        PhysicsNode("tank", "tank_fluid", params.tank_fluid_mass * params.cp_fluid)
    ]
    fluid_idx: dict[int, int] = {}
    for lab in graph.labels:
        fluid_idx[lab] = len(nodes)
        nodes.append(
            PhysicsNode(f"f{lab}", "cphx_fluid", params.cphx_fluid_mass * params.cp_fluid)
        )
    wall_idx: dict[int, int] = {}
    for lab in graph.labels:
        wall_idx[lab] = len(nodes)
        nodes.append(
            PhysicsNode(f"w{lab}", "cphx_wall", params.cphx_wall_mass * params.cp_wall)
        )
    i_llhx_p = len(nodes)
    nodes.append(
        PhysicsNode("llhx_p", "llhx_primary", params.llhx_primary_fluid_mass * params.cp_fluid)
    )
    i_llhx_w = len(nodes)
    nodes.append(PhysicsNode("llhx_w", "llhx_wall", params.llhx_wall_mass * params.cp_wall))
    i_llhx_s = len(nodes)
    nodes.append(
        PhysicsNode("llhx_s", "llhx_secondary", params.llhx_secondary_fluid_mass * params.cp_fluid)
    )
    i_sink = len(nodes)
    nodes.append(PhysicsNode("sink", "sink_boundary", None))

    def state_of(node: int) -> int:
        return 0 if node == ROOT else fluid_idx[node]

    edges: list[PhysicsEdge] = []
    # branch-interior advection mirrors the tree edges
    for (p, c), row, off in zip(
        flow_map.branch_edges, flow_map.edge_matrix, flow_map.edge_offset
    ):
        edges.append(
            PhysicsEdge(
                kind="advection",
                tail=state_of(p),
                head=state_of(c),
                pump_coef=off / params.pump_flow,
                x_coefs=tuple(row),
            )
        )
    # branch tails feed the LLHX primary side
    inflow_rows = {c: (row, off) for (p, c), row, off in zip(
        flow_map.branch_edges, flow_map.edge_matrix, flow_map.edge_offset)}
    for leaf in graph.leaves:
        row, off = inflow_rows[leaf]
        edges.append(
            PhysicsEdge(
                kind="advection",
                tail=fluid_idx[leaf],
                head=i_llhx_p,
                pump_coef=off / params.pump_flow,
                x_coefs=tuple(row),
            )
        )
    # loop closure back to the tank at the full pump rate
    edges.append(
        PhysicsEdge(
            kind="advection", tail=i_llhx_p, head=0,
            pump_coef=1.0, x_coefs=(0.0,) * n_f,
        )
    )
    # sink stream exchange on the secondary side
    edges.append(
        PhysicsEdge(
            kind="bidir_advection", tail=i_sink, head=i_llhx_s,
            x_coefs=(0.0,) * n_f, sink_coef=1.0,
        )
    )
    for lab in graph.labels:
        edges.append(PhysicsEdge(kind="convection", tail=wall_idx[lab],
                                 head=fluid_idx[lab], ha=params.ha_cphx))
    edges.append(PhysicsEdge(kind="convection", tail=i_llhx_w, head=i_llhx_p,
                             ha=params.ha_llhx_primary))
    edges.append(PhysicsEdge(kind="convection", tail=i_llhx_w, head=i_llhx_s,
                             ha=params.ha_llhx_secondary))

    return PhysicsGraph(
        config=graph,
        flow_map=flow_map,
        params=params,
        nodes=tuple(nodes),
        edges=tuple(edges),
        heat_load_map={lab: wall_idx[lab] for lab in graph.labels},
        loads_w=loads,
        sink_index=i_sink,
    )


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
        leaves = set(self.physics.config.leaves)
        return tuple(self.physics.heat_load_map[lab] for lab in sorted(leaves))

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

    def initial_state(self, t_wall: float = 20.0, t_fluid: float = 20.0,
                      t_loop: float = 15.0) -> np.ndarray:
        """Initial temperatures: device walls/fluids warm, tank and LLHX at
        the loop temperature."""
        t0 = np.empty(self.n_states)
        for i, node in enumerate(self.physics.nodes[: self.n_states]):
            if node.kind == "cphx_wall":
                t0[i] = t_wall
            elif node.kind == "cphx_fluid":
                t0[i] = t_fluid
            else:
                t0[i] = t_loop
        return t0


def assemble(physics: PhysicsGraph) -> ThermalModel:
    """Build the state-equation matrices from a physics graph."""
    n = physics.n_states
    caps = np.array([node.capacitance for node in physics.nodes[:n]], dtype=float)
    if np.any(~np.isfinite(caps)) or np.any(caps <= 0.0):
        raise ModelConstructionError("every internal node needs a positive capacitance")

    adv = physics.advection_edges()
    n_adv = len(adv)
    n_f = physics.flow_map.independent_count
    cp = physics.params.cp_fluid

    a = np.zeros((n, n + 1))
    for e in physics.convection_edges():
        i, j, ha = e.tail, e.head, e.ha
        a[i, i] -= ha / caps[i]
        a[i, j] += ha / caps[i]
        a[j, j] -= ha / caps[j]
        a[j, i] += ha / caps[j]

    b1 = np.zeros((n, n_adv))
    b2 = np.zeros((n_adv, n + 1))
    z = np.zeros((n_adv, 2 + n_f))
    for k, e in enumerate(adv):
        b2[k, e.tail] = 1.0
        b2[k, e.head] = -1.0
        b1[e.head, k] = cp / caps[e.head]
        z[k, 0] = e.pump_coef
        z[k, 1 : 1 + n_f] = e.x_coefs
        z[k, -1] = e.sink_coef

    labels = physics.config.labels
    d = np.zeros((n, len(labels)))
    for col, lab in enumerate(labels):
        d[physics.heat_load_map[lab], col] = 1.0

    names = tuple(node.name for node in physics.nodes[:n])
    return ThermalModel(physics=physics, a=a, b1=b1, b2=b2, z=z, c=caps, d=d,
                        state_names=names)


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
