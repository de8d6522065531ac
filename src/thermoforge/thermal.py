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

    dT/dt = A T + B1 diag(Z w) B2 [T; T_sink] + q,

with Z the flow rows and q the heat loads over the wall capacitances.
Advection into a node enters as m_dot * cp * (T_upstream - T_node) / C_node;
convection pairs exchange hA * dT.

The equation is evaluated in one place, :meth:`ThermalModel.derivative`
(with its Jacobians in :meth:`ThermalModel.jacobian`), batched over points;
the collocation transcription calls both, and the simulator integrates the
affine form they give for fixed flows, :meth:`ThermalModel.lti_parts`.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field, fields

import numpy as np
# solve_ivp is not called here; kept while the benchmark's tracing patches it
from scipy.integrate import solve_ivp  # noqa: F401
from scipy.optimize import brentq

from .config import ROOT, ConfigGraph, FlowMap, build_flow_map, check_fields, overridden


class ModelConstructionError(ValueError):
    """Physics graph or matrix assembly is inconsistent."""


class StiffnessError(RuntimeError):
    """The integrator's step size underflowed or its series did not
    converge; try a looser tolerance."""


# Each Taylor step keeps ||J(t)|| h + ||dJ/dt|| h^2 (infinity norms) within
# the radius, so from order 2 * radius on its terms at least halve per order
# and two successive terms within the tolerance bound the rest.
_SERIES_RADIUS = 4.0
_SERIES_MIN_ORDER = 8
_SERIES_MAX_ORDER = 60


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
    """Assembled matrices of the bilinear state equation (the tables stay in ``physics``)."""

    physics: PhysicsGraph
    a: np.ndarray = field(repr=False)          # (n, n) convection dynamics
    b1: np.ndarray = field(repr=False)         # (n, n_adv) cp/C injection per edge head
    b2: np.ndarray = field(repr=False)         # (n_adv, n+1) tail-minus-head selector
    load_rate: np.ndarray = field(repr=False)  # (n,) heat load over capacitance, K/s

    @property
    def params(self) -> PhysicsParams:
        return self.physics.params

    @property
    def n_states(self) -> int:
        return self.a.shape[0]

    @property
    def n_flows(self) -> int:
        return self.physics.flow_rows.shape[1] - 2

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

    def _streams(self, temps: np.ndarray, w: np.ndarray):
        """Each stream's flow and tail-minus-head temperature at m points,
        both of shape (m, n_adv)."""
        return (w @ self.physics.flow_rows.T,
                temps @ self.b2[:, :-1].T + self.t_sink * self.b2[:, -1])

    def derivative(self, temps: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Temperature derivatives (K/s) at m points under the model's heat
        loads: ``temps`` (m, n) and flow vectors ``w`` (m, 2+N_f) give f of
        shape (m, n)."""
        edge_flows, tdiff = self._streams(temps, w)
        return temps @ self.a.T + (edge_flows * tdiff) @ self.b1.T + self.load_rate

    def jacobian(self, temps: np.ndarray, w: np.ndarray):
        """Jacobians of :meth:`derivative` at m points: d f / d T of shape
        (m, n, n) and d f / d x (independent flows) of shape (m, n, N_f)."""
        edge_flows, tdiff = self._streams(temps, w)
        j_t = self.a + self.b1 @ (edge_flows[:, :, None] * self.b2[:, :-1])
        j_x = self.b1 @ (tdiff[:, :, None] * self.physics.flow_rows[:, 1:-1])
        return j_t, j_x

    def cross_hessian(self, weights: np.ndarray) -> np.ndarray:
        """Weighted second derivative sum_i weights_i d2 f_i / dT dx for m
        weight vectors (m, n), shape (m, n, N_f).  f is bilinear, so this is
        its only nonzero second derivative, and it does not depend on the
        point."""
        return np.einsum("me,ej,el->mjl", weights @ self.b1, self.b2[:, :-1],
                         self.physics.flow_rows[:, 1:-1])

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
    a = np.zeros((n, n))
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

    walls = [physics.node_index(f"w{lab}") for lab in physics.config.labels]
    load_rate = np.zeros(n)
    load_rate[walls] = physics.loads_w / caps[walls]
    return ThermalModel(physics=physics, a=a, b1=b1, b2=b2, load_rate=load_rate)


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

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if not (times.ndim == 1 and len(times) and np.isfinite(times).all()
                and (np.diff(times) > 0).all()):
            raise ValueError("times must be a 1-D array of finite, strictly "
                             "increasing breakpoints")
        if not (values.ndim == 2 and len(values) == len(times)
                and np.isfinite(values).all()):
            raise ValueError(f"values must be finite, one row per time ({len(times)}), "
                             f"got shape {values.shape}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __call__(self, t: float) -> np.ndarray:
        t = np.clip(t, self.times[0], self.times[-1])
        return interp_columns(t, self.times, self.values)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A simulation's exact solution on [0, t_stop]: its steps, each (piece,
    start, length, order, augmented start state), whose series :meth:`at`
    sums again where it is read (keeping every step's terms would grow with
    the step count).  A run that starts at the bound takes no step."""

    t_stop: float
    event_time: float | None
    start: np.ndarray = field(repr=False)
    steps: list = field(repr=False)

    def at(self, times) -> np.ndarray:
        """The states at ``times`` in [0, t_stop], shape ``np.shape(times) + (n,)``."""
        ts = np.asarray(times, dtype=float)
        if not ((ts >= 0.0) & (ts <= self.t_stop)).all():
            raise ValueError(f"times must lie in [0, t_stop={self.t_stop:g}]")
        flat, n = ts.ravel(), len(self.start)
        # the first step starts at 0: only a run without steps has no cell
        cells = np.searchsorted([step[1] for step in self.steps], flat, side="right") - 1
        out = np.empty((len(flat), n))
        out[cells < 0] = self.start
        for idx in np.unique(cells[cells >= 0]):
            piece, t, h, order, z = self.steps[idx]
            rows = cells == idx
            coef = _series(_step_matrix(piece, t, h), z, None, order)
            out[rows] = (((flat[rows] - t) / h)[:, None] ** np.arange(order + 1) @ coef)[:, :n]
        return out.reshape(ts.shape + (n,))


def _step_matrix(piece, t: float, h: float) -> np.ndarray:
    """[h^2 D | h A0] of the step [t, t + h] of a piece (a, A, D), on which
    the augmented generator is A + (t - a) D."""
    a, base, slope = piece
    return np.concatenate([h * h * slope, h * (base + (t - a) * slope)], axis=1)


def _series(mat: np.ndarray, z: np.ndarray, scale: np.ndarray | None,
            order: int) -> np.ndarray | None:
    """Scaled Taylor coefficients d_p = h^p z^(p)(t) / p! of one step of the
    augmented system z' = (A0 + s D) z, z = [T; 1], from ``mat`` =
    [h^2 D | h A0] (each block (n, n+1)) and the step's start ``z``, by
    p d_p = h A0 d_{p-1} + h^2 D d_{p-2}, one product per order.

    With ``scale`` the order grows from ``order`` until two successive terms
    are within ``scale`` elementwise; without it exactly ``order`` terms are
    taken.  Returns the (order + 1, n + 1) coefficients, or None when the
    series does not converge within ``_SERIES_MAX_ORDER`` terms."""
    m = len(z)
    # block j of ``buf`` is d_{j-1}; block 0 stands for d_{-1} = 0, and each
    # term's augmented entry stays 0, so one window of two blocks is the
    # product's operand
    buf = np.zeros((_SERIES_MAX_ORDER + 2) * m)
    buf[m:2 * m] = z
    for p in range(1, _SERIES_MAX_ORDER + 1):
        np.divide(mat @ buf[(p - 1) * m:(p + 1) * m], p, out=buf[(p + 1) * m:(p + 2) * m - 1])
        if (p == order if scale is None
                else p >= order and (np.abs(buf[p * m:(p + 2) * m]) <= scale).all()):
            return buf[m:(p + 2) * m].reshape(p + 1, m)
    return None


def simulate(
    model: ThermalModel,
    t0_state,
    flows,
    t_end: float = 100.0,
    tol: float = 1e-8,
    t_bound: float | None = None,
) -> Trajectory:
    """Integrate the model under its heat loads by Taylor series.

    ``flows`` is a constant vector of independent flows or a
    :class:`PiecewiseLinearFlows` schedule.  For given flows the dynamics
    are affine in the temperatures, dT/dt = J T + k, and J and k are affine
    in the flows, so between two breakpoints of the schedule the augmented
    state z = [T; 1] follows z' = (A + (t - a) D) z exactly, with A the
    augmented [[J, k], [0, 0]] from :meth:`ThermalModel.lti_parts` at the
    piece start a and D its slope (constant flows are one piece, D = 0;
    the schedule holds its end values outside its breakpoints).  Each
    piece is cut into equal steps that keep ``||J|| h`` within
    ``_SERIES_RADIUS``; each step sums the solution's Taylor series, whose
    coefficients follow a two-term recursion, until two successive scaled
    terms are within ``rtol = tol`` and ``atol = tol * 1e-3``.  With
    ``t_bound`` set, integration stops at the first time any temperature
    reaches the bound and reports it as ``event_time``: a step whose end
    reaches it is searched by ``brentq`` on its polynomial.  The returned
    :class:`Trajectory` keeps the steps and evaluates their polynomials on
    demand.  Invalid inputs raise ``ValueError`` naming the argument;
    :class:`StiffnessError` is raised when a step would be shorter than the
    spacing of floats near its end, or its series does not converge.
    """
    y0 = np.array(t0_state, dtype=float)
    if y0.shape != (model.n_states,) or not np.isfinite(y0).all():
        raise ValueError(f"t0_state must be {model.n_states} finite temperatures")
    for name, value in (("t_end", t_end), ("tol", tol)):
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    if t_bound is not None and np.isnan(t_bound):
        raise ValueError("t_bound must be a number, got nan")

    if not isinstance(flows, PiecewiseLinearFlows):
        flows = PiecewiseLinearFlows(np.zeros(1),
                                     np.atleast_1d(np.asarray(flows, dtype=float))[None])
    times, values = flows.times, flows.values
    jac, k = model.lti_parts(values)
    gens = np.concatenate([jac, k[..., None]], axis=2)  # [J | k] at each breakpoint
    if t_bound is not None and np.max(y0) >= t_bound:
        return Trajectory(0.0, 0.0, y0, [])

    n = len(y0)
    breaks = times.tolist()
    ends = [0.0, *(b for b in breaks if 0.0 < b < t_end), t_end]
    # per interval between breakpoints, the generator's slope and a bound on
    # ||J(t)|| + ||J(t_i+1) - J(t_i)|| over it (a norm is convex in t)
    norms = np.abs(jac).sum(axis=2).max(axis=1)
    slopes = np.diff(gens, axis=0) / np.diff(times)[:, None, None]
    bounds = (np.maximum(norms[:-1], norms[1:])
              + np.abs(np.diff(jac, axis=0)).sum(axis=2).max(axis=1)).tolist()
    flat = np.zeros_like(gens[0])
    z = np.append(y0, 1.0)
    steps = []  # (piece, start, length, order, z at start), one per step taken
    order = _SERIES_MIN_ORDER
    event_time = None

    def failure(reason):
        return StiffnessError(f"{reason}; retry with a looser tolerance than tol={tol:g}")

    for a, b in zip(ends[:-1], ends[1:]):
        i = bisect_right(breaks, a) - 1
        if 0 <= i < len(slopes):
            piece = (a, gens[i] + (a - breaks[i]) * slopes[i], slopes[i])
            norm = bounds[i]
        else:  # the schedule holds its end values outside its breakpoints
            i = max(i, 0)
            piece, norm = (a, gens[i], flat), norms[i]
        # ||J(t)|| h + ||dJ/dt|| h^2 <= norm h <= radius on every step
        count = (b - a) * norm / _SERIES_RADIUS
        if not count < 0.1 * (b - a) / np.spacing(b):
            raise failure(f"the step size at t={a:g} is less than the spacing "
                          "between numbers")
        count = max(1, math.ceil(count))
        h = (b - a) / count
        for j in range(count):
            t = a + j * h
            scale = tol * 1e-3 + tol * np.abs(np.concatenate([z, z]))
            coef = _series(_step_matrix(piece, t, h), z, scale,
                           max(order - 1, _SERIES_MIN_ORDER))
            if coef is None:
                raise failure(f"the Taylor series at t={t:g} did not converge in "
                              f"{_SERIES_MAX_ORDER} terms")
            order = len(coef) - 1
            steps.append((piece, t, h, order, z))
            powers = np.arange(order + 1)
            z = np.ones(order + 1) @ coef
            if t_bound is not None and z[:n].max() >= t_bound:
                # at theta = 1 this is z's own product, so the ends' signs differ
                theta = brentq(lambda th: t_bound - (th ** powers @ coef)[:n].max(),
                               0.0, 1.0, xtol=4 * np.finfo(float).eps)
                event_time = t + theta * h
                break
        if event_time is not None:
            break

    return Trajectory(t_end if event_time is None else event_time, event_time, y0, steps)
