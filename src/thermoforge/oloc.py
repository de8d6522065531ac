"""Variable-final-time optimal flow control of one thermal model.

The state is [node temperatures; independent branch flows] and the control
is the rate of change of the independent flows.  Time is scaled onto the
unit interval (t = tau * t_f) with the final time a bounded decision
variable, the dynamics are enforced by trapezoidal (or Hermite-Simpson)
collocation defects, and the objective maximizes the horizon minus a small
control-smoothness penalty.  The transcribed nonlinear program is solved
with an interior-point iteration (scipy's trust-constr) using analytic
sparse gradients throughout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace

import numpy as np
from scipy import sparse
from scipy.optimize import SR1, Bounds, LinearConstraint, NonlinearConstraint, minimize

from .config import FlowMap
from .thermal import PiecewiseLinearFlows, ThermalModel, interp_columns, simulate

TRANSCRIPTION_SCHEMES = ("trapezoidal", "hermite_simpson")

STATUS_OPTIMAL = "optimal"
STATUS_FEASIBLE = "max_iterations_feasible"
STATUS_INFEASIBLE = "infeasible"
STATUS_CAPPED = "endurance unbounded at cap"


class FormulationError(ValueError):
    """The control problem cannot be built from these inputs."""


@dataclass(frozen=True)
class OlocOptions:
    """Knobs of the optimal-control solve (defaults follow the study setup)."""

    segments: int = 50
    scheme: str = "trapezoidal"
    t_max: float = 45.0            # deg C, upper bound on every temperature
    u_max: float = 0.05            # kg/s^2, valve rate limit
    tf_min: float = 1.0            # s
    tf_max: float = 10000.0        # s
    feasibility_tol: float = 1e-6
    optimality_tol: float = 1e-6
    max_iterations: int = 2000
    mesh_refinements: int = 3
    refine_rtol: float = 0.002
    t_wall_initial: float = 20.0
    t_fluid_initial: float = 20.0
    t_loop_initial: float = 15.0
    fix_initial_flows: bool = False  # else free within bounds
    lambda_weight: float | None = None  # default 0.01 / (N_f * u_max^2)
    dense_points: int = 201

    def __post_init__(self):
        if self.scheme not in TRANSCRIPTION_SCHEMES:
            raise ValueError(f"scheme must be one of {TRANSCRIPTION_SCHEMES}")
        if self.segments < 2:
            raise ValueError("segments must be at least 2")
        if not 0 < self.tf_min < self.tf_max:
            raise ValueError("need 0 < tf_min < tf_max")

    def with_overrides(self, overrides: dict | None) -> "OlocOptions":
        if not overrides:
            return self
        overrides = dict(overrides)
        if "t_f_bounds" in overrides:
            lo, hi = overrides.pop("t_f_bounds")
            overrides["tf_min"], overrides["tf_max"] = float(lo), float(hi)
        if "T_max" in overrides:
            overrides["t_max"] = float(overrides.pop("T_max"))
        known = {f.name for f in fields(self)}
        unknown = set(overrides) - known
        if unknown:
            raise ValueError(f"unknown OLOC options: {sorted(unknown)}")
        return replace(self, **overrides)

    @classmethod
    def from_json(cls, text: str) -> "OlocOptions":
        return cls().with_overrides(json.loads(text))


@dataclass(frozen=True, eq=False)
class OlocProblem:
    """A fully specified instance: model + flow decomposition + loads."""

    model: ThermalModel
    flow_map: FlowMap = field(repr=False)
    loads_w: np.ndarray = field(repr=False)
    options: OlocOptions
    lam: float

    @property
    def n_temp(self) -> int:
        return self.model.n_states

    @property
    def n_f(self) -> int:
        return self.flow_map.independent_count

    @property
    def n_x(self) -> int:
        return self.n_temp + self.n_f

    @property
    def notation(self) -> str:
        return self.model.physics.config.notation

    def initial_temperatures(self) -> np.ndarray:
        o = self.options
        return self.model.initial_state(o.t_wall_initial, o.t_fluid_initial, o.t_loop_initial)


def formulate(
    model: ThermalModel,
    flow_map: FlowMap,
    loads_w,
    options: OlocOptions | None = None,
) -> OlocProblem:
    """Build the control problem; with no splits it degenerates to a pure
    simulation (empty control vector), which is still a valid instance."""
    options = options or OlocOptions()
    if model.n_flows != flow_map.independent_count:
        raise FormulationError(
            f"model expects {model.n_flows} independent flows, flow map has "
            f"{flow_map.independent_count}"
        )
    if model.physics.config.notation != flow_map.graph.notation:
        raise FormulationError("model and flow map come from different configurations")
    labels = model.physics.config.labels
    if isinstance(loads_w, dict):
        missing = [lab for lab in labels if lab not in loads_w]
        if missing:
            raise FormulationError(f"no load for label(s) {missing}")
        loads = np.array([float(loads_w[lab]) for lab in labels])
    else:
        loads = np.asarray(loads_w, dtype=float)
        if loads.shape != (len(labels),):
            raise FormulationError(f"expected {len(labels)} loads, got {loads.shape}")
    n_f = flow_map.independent_count
    if options.lambda_weight is not None:
        lam = options.lambda_weight
    elif n_f > 0:
        lam = 0.01 / (n_f * options.u_max**2)
    else:
        lam = 0.0
    t0 = model.initial_state(options.t_wall_initial, options.t_fluid_initial,
                             options.t_loop_initial)
    if np.max(t0) >= options.t_max:
        raise FormulationError(
            f"initial temperature {np.max(t0):.3f} already violates the bound "
            f"T <= {options.t_max}"
        )
    return OlocProblem(model=model, flow_map=flow_map, loads_w=loads,
                       options=options, lam=lam)


class Transcription:
    """Direct transcription of an :class:`OlocProblem` on a uniform grid.

    Decision vector (internally scaled to order one):
    ``z = [t_f, states at the N+1 grid points, controls at the grid points]``.
    """

    def __init__(self, problem: OlocProblem, segments: int, scheme: str,
                 tf_guess: float | None = None):
        if segments < 2:
            raise ValueError("segments must be at least 2")
        self.problem = problem
        self.segments = segments
        self.scheme = scheme
        self.n_temp = problem.n_temp
        self.n_u = problem.n_f
        self.n_x = problem.n_x
        self.n_pts = segments + 1
        self.h = 1.0 / segments
        self.tf_guess = float(tf_guess) if tf_guess else 100.0

        self._pump = problem.model.params.pump_flow

        # scaling: temperatures ~ tens of degC, flows ~ pump rate,
        # controls ~ rate limit, final time ~ its initial guess
        self.s_tf = max(self.tf_guess, 10.0)
        self.sx = np.concatenate([
            np.full(self.n_temp, 10.0), np.full(self.n_u, self._pump)
        ])
        self.su = np.full(self.n_u, problem.options.u_max)
        self.n_z = 1 + self.n_pts * self.n_x + self.n_pts * self.n_u
        # trapezoid weights of the control-penalty quadrature over tau
        self._quad_w = np.full(self.n_pts, self.h)
        self._quad_w[[0, -1]] = self.h / 2.0
        # CSR pattern of the defect Jacobian: block row k of every segment
        # holds [t_f | x_k | x_k+1 | u_k | u_k+1], columns ascending
        k = np.arange(segments)[:, None]
        x0 = 1 + k * self.n_x
        u0 = 1 + self.n_pts * self.n_x + k * self.n_u
        ix, iu = np.arange(self.n_x), np.arange(self.n_u)
        cols = np.hstack([np.zeros_like(k), x0 + ix, x0 + self.n_x + ix,
                          u0 + iu, u0 + self.n_u + iu])
        self._jac_indices = np.repeat(cols, self.n_x, axis=0).ravel()
        self._jac_indptr = np.arange(self.n_defects + 1) * cols.shape[1]
        self._cache_key = None
        self._cache_val = None

    # ---- decision-vector layout -------------------------------------------

    def _x_slice(self, k: int) -> slice:
        return slice(1 + k * self.n_x, 1 + (k + 1) * self.n_x)

    def pack(self, tf: float, states: np.ndarray, controls: np.ndarray) -> np.ndarray:
        z = np.empty(self.n_z)
        z[0] = tf / self.s_tf
        z[1 : 1 + self.n_pts * self.n_x] = (states / self.sx).ravel()
        z[1 + self.n_pts * self.n_x :] = (controls / self.su).ravel() if self.n_u else []
        return z

    def unpack(self, z: np.ndarray):
        tf = z[0] * self.s_tf
        states = z[1 : 1 + self.n_pts * self.n_x].reshape(self.n_pts, self.n_x) * self.sx
        controls = z[1 + self.n_pts * self.n_x :].reshape(self.n_pts, self.n_u) * self.su
        return tf, states, controls

    # ---- dynamics on a batch of grid points --------------------------------

    def _dynamics(self, states: np.ndarray, controls: np.ndarray):
        """f(xi, u) at a batch of points plus the Jacobians d f / d xi.

        Returns (F, J) with F of shape (m, n_x) and J of shape (m, n_x, n_x).
        The control Jacobian is constant ([0; I]) and handled separately.
        """
        model, nt = self.problem.model, self.n_temp
        temps = states[:, :nt]
        w = model.flow_vector(states[:, nt:])
        f = np.concatenate([model.derivative(temps, w, self.problem.loads_w), controls],
                           axis=1)
        jac = np.zeros((len(states), self.n_x, self.n_x))
        jac[:, :nt, :nt], jac[:, :nt, nt:] = model.jacobian(temps, w)
        return f, jac

    def _eval(self, z: np.ndarray):
        """Unpacked z with the dynamics at the grid points and, for
        Hermite-Simpson, at the segment midpoints (cached for the last z)."""
        key = z.tobytes()
        if key != self._cache_key:
            tf, states, controls = self.unpack(z)
            f, jac = self._dynamics(states, controls)
            fm = jac_m = None
            if self.scheme == "hermite_simpson":
                mid_states = (0.5 * (states[:-1] + states[1:])
                              + (self.h * tf / 8.0) * (f[:-1] - f[1:]))
                mid_controls = 0.5 * (controls[:-1] + controls[1:])
                fm, jac_m = self._dynamics(mid_states, mid_controls)
            self._cache_key = key
            self._cache_val = (tf, states, controls, f, jac, fm, jac_m)
        return self._cache_val

    # ---- objective -----------------------------------------------------------

    def _penalty_quadrature(self, controls: np.ndarray) -> float:
        """Trapezoidal integral of |u|^2 over tau in [0, 1]."""
        if self.n_u == 0:
            return 0.0
        sq = (controls**2).sum(axis=1)
        return float(self._quad_w @ sq)

    def objective(self, z: np.ndarray) -> float:
        tf, _, controls = self.unpack(z)
        quad = self._penalty_quadrature(controls)
        return (-tf + self.problem.lam * tf * quad) / self.s_tf

    def objective_grad(self, z: np.ndarray) -> np.ndarray:
        tf, _, controls = self.unpack(z)
        lam = self.problem.lam
        quad = self._penalty_quadrature(controls)
        g = np.zeros(self.n_z)
        g[0] = -1.0 + lam * quad
        if self.n_u:
            du = 2.0 * lam * tf * self._quad_w[:, None] * controls  # physical gradient
            g[1 + self.n_pts * self.n_x :] = (du * self.su).ravel() / self.s_tf
        return g

    def objective_hess(self, z: np.ndarray) -> sparse.csr_matrix:
        """Exact Hessian; the objective is quadratic in u and bilinear in
        (t_f, u), everything else is linear."""
        if self.n_u == 0 or self.problem.lam == 0.0:
            return sparse.csr_matrix((self.n_z, self.n_z))
        _, _, controls = self.unpack(z)
        lam = self.problem.lam
        tfs = z[0]
        base = 1 + self.n_pts * self.n_x
        u_idx = np.arange(base, self.n_z)
        su2 = np.tile(self.su**2, self.n_pts)
        w_rep = np.repeat(self._quad_w, self.n_u)
        us = (controls / self.su).ravel()
        diag_uu = 2.0 * lam * tfs * w_rep * su2
        cross = 2.0 * lam * w_rep * su2 * us
        rows = np.concatenate([u_idx, u_idx, np.zeros(len(u_idx), dtype=int)])
        cols = np.concatenate([u_idx, np.zeros(len(u_idx), dtype=int), u_idx])
        vals = np.concatenate([diag_uu, cross, cross])
        return sparse.csr_matrix((vals, (rows, cols)), shape=(self.n_z, self.n_z))

    # ---- collocation defects ---------------------------------------------------

    @property
    def n_defects(self) -> int:
        return self.segments * self.n_x

    def defects(self, z: np.ndarray) -> np.ndarray:
        tf, states, _, f, _, fm, _ = self._eval(z)
        if self.scheme == "trapezoidal":
            d = (states[1:] - states[:-1]
                 - (self.h * tf / 2.0) * (f[:-1] + f[1:]))
        else:
            d = (states[1:] - states[:-1]
                 - (self.h * tf / 6.0) * (f[:-1] + 4.0 * fm + f[1:]))
        return (d / self.sx).ravel()

    def defects_jac(self, z: np.ndarray) -> sparse.csr_matrix:
        tf, _, _, f, jac, fm, jm = self._eval(z)
        h, s = self.h, self.segments
        eye = np.eye(self.n_x)
        bu = np.zeros((self.n_x, self.n_u))
        bu[self.n_temp :, :] = np.eye(self.n_u)
        # physical blocks of each segment's defect with respect to
        # t_f, x_k, x_k+1, u_k and u_k+1, stacked over segments
        if self.scheme == "trapezoidal":
            coef = h * tf / 2.0
            d_tf = -(h / 2.0) * (f[:-1] + f[1:])
            d_k = -eye - coef * jac[:-1]
            d_k1 = eye - coef * jac[1:]
            d_uk = d_uk1 = np.broadcast_to(-coef * bu, (s, self.n_x, self.n_u))
        else:
            c6, c8 = h * tf / 6.0, h * tf / 8.0
            dmid_dtf = (h / 8.0) * (f[:-1] - f[1:])
            d_tf = (-(h / 6.0) * (f[:-1] + 4.0 * fm + f[1:])
                    - c6 * 4.0 * (jm @ dmid_dtf[:, :, None])[:, :, 0])
            d_k = -eye - c6 * (jac[:-1] + 4.0 * jm @ (0.5 * eye + c8 * jac[:-1]))
            d_k1 = eye - c6 * (jac[1:] + 4.0 * jm @ (0.5 * eye - c8 * jac[1:]))
            jm_u = jm[:, :, self.n_temp :]  # jm @ bu
            d_uk = -c6 * (bu + 4.0 * (c8 * jm_u + 0.5 * bu))
            d_uk1 = -c6 * (bu + 4.0 * (-c8 * jm_u + 0.5 * bu))
        # scale to the decision variables and scatter into the fixed pattern
        inv_sx = 1.0 / self.sx
        data = np.concatenate([
            (d_tf * inv_sx * self.s_tf)[:, :, None],
            inv_sx[:, None] * d_k * self.sx, inv_sx[:, None] * d_k1 * self.sx,
            inv_sx[:, None] * d_uk * self.su, inv_sx[:, None] * d_uk1 * self.su,
        ], axis=2)
        out = sparse.csr_matrix((data.ravel(), self._jac_indices, self._jac_indptr),
                                shape=(self.n_defects, self.n_z), copy=True)
        # drop exact zeros (e.g. the flow rows of the dynamics blocks)
        out.eliminate_zeros()
        return out

    # ---- path constraints and bounds --------------------------------------------

    def dependent_flow_constraint(self):
        """0 <= M x_k + offset <= pump at every grid point, linear in z."""
        fm = self.problem.flow_map
        n_dep = len(fm.dependent)
        if n_dep == 0 or self.n_u == 0:
            return None
        rows, cols, vals = [], [], []
        for k in range(self.n_pts):
            x0 = self._x_slice(k).start + self.n_temp
            for i in range(n_dep):
                for j in range(self.n_u):
                    if fm.m_matrix[i, j] != 0.0:
                        rows.append(k * n_dep + i)
                        cols.append(x0 + j)
                        vals.append(fm.m_matrix[i, j] * self.sx[self.n_temp + j])
        a = sparse.csr_matrix((vals, (rows, cols)), shape=(self.n_pts * n_dep, self.n_z))
        lb = np.tile(-fm.m_offset, self.n_pts)
        ub = np.tile(self._pump - fm.m_offset, self.n_pts)
        return a, lb, ub

    def bounds(self) -> Bounds:
        o = self.problem.options
        lb = np.full(self.n_z, -np.inf)
        ub = np.full(self.n_z, np.inf)
        lb[0] = o.tf_min / self.s_tf
        ub[0] = o.tf_max / self.s_tf
        t0 = self.problem.initial_temperatures()
        for k in range(self.n_pts):
            s = self._x_slice(k)
            ub[s.start : s.start + self.n_temp] = o.t_max / self.sx[: self.n_temp]
            lb[s.start + self.n_temp : s.stop] = 0.0
            ub[s.start + self.n_temp : s.stop] = self._pump / self.sx[self.n_temp :]
        s0 = self._x_slice(0)
        lb[s0.start : s0.start + self.n_temp] = t0 / self.sx[: self.n_temp]
        ub[s0.start : s0.start + self.n_temp] = t0 / self.sx[: self.n_temp]
        if o.fix_initial_flows and self.n_u:
            eq = self.problem.flow_map.equal_split()
            lb[s0.start + self.n_temp : s0.stop] = eq / self.sx[self.n_temp :]
            ub[s0.start + self.n_temp : s0.stop] = eq / self.sx[self.n_temp :]
        if self.n_u:
            base = 1 + self.n_pts * self.n_x
            lb[base:] = -o.u_max / np.tile(self.su, self.n_pts)
            ub[base:] = o.u_max / np.tile(self.su, self.n_pts)
        return Bounds(lb, ub)

    # ---- initial guess ---------------------------------------------------------

    def initial_guess(self) -> np.ndarray:
        """Build a starting point with equal flow splits and resting controls.

        The temperatures sample a forward simulation under the equal-split
        schedule, so the defects start near zero.
        """
        o = self.problem.options
        t0 = self.problem.initial_temperatures()
        eq = self.problem.flow_map.equal_split()
        tau = np.linspace(0.0, 1.0, self.n_pts)
        traj = simulate(self.problem.model, t0, flows=eq,
                        loads_w=self.problem.loads_w, t_end=o.tf_max,
                        tol=1e-8, t_bound=o.t_max)
        if traj.event_time is not None:
            tf = max(0.998 * traj.event_time, o.tf_min)
        else:
            tf = 0.9 * o.tf_max
        temps = traj.interpolate(tau * tf)
        flows = np.tile(eq, (self.n_pts, 1))
        states = np.concatenate([temps, flows], axis=1)
        controls = np.zeros((self.n_pts, self.n_u))
        return self.pack(tf, states, controls)

    def guess_from(self, tf: float, grid_t: np.ndarray, states: np.ndarray,
                   controls: np.ndarray) -> np.ndarray:
        """Warm start by resampling a previous solution onto this grid."""
        tau_old = grid_t / grid_t[-1] if grid_t[-1] > 0 else np.linspace(0, 1, len(grid_t))
        tau_new = np.linspace(0.0, 1.0, self.n_pts)
        return self.pack(tf, interp_columns(tau_new, tau_old, states),
                         interp_columns(tau_new, tau_old, controls))


def transcribe(problem: OlocProblem, segments: int | None = None,
               scheme: str | None = None, tf_guess: float | None = None) -> Transcription:
    """Discretize the problem on a uniform grid (defaults from its options)."""
    o = problem.options
    return Transcription(problem,
                         segments=segments or o.segments,
                         scheme=scheme or o.scheme,
                         tf_guess=tf_guess)


@dataclass(frozen=True, eq=False)
class OlocSolution:
    """Optimal trajectories and the achieved thermal endurance."""

    notation: str
    t_end: float
    objective: float
    penalty_value: float
    status: str
    success: bool
    grid_t: np.ndarray = field(repr=False)
    grid_states: np.ndarray = field(repr=False)      # (n_pts, n_x) physical
    grid_controls: np.ndarray = field(repr=False)    # (n_pts, n_u)
    dependent_flows: np.ndarray = field(repr=False)  # (n_pts, n_dep)
    t: np.ndarray = field(repr=False)                # dense resample
    states: np.ndarray = field(repr=False)
    controls: np.ndarray = field(repr=False)
    state_names: tuple[str, ...] = ()
    n_temp: int = 0
    wall_arrival_spread: float = float("nan")
    constraint_violation: float = float("nan")
    iterations: int = 0
    segments: int = 0
    lam: float = 0.0

    @property
    def temperatures(self) -> np.ndarray:
        return self.states[:, : self.n_temp]

    @property
    def flows(self) -> np.ndarray:
        return self.states[:, self.n_temp :]

    def flow_schedule(self) -> PiecewiseLinearFlows:
        """Independent-flow schedule: the grid flow states, interpolated
        linearly between grid points."""
        return PiecewiseLinearFlows(self.grid_t, self.grid_states[:, self.n_temp :])

    def summary(self) -> dict:
        return {
            "config": self.notation,
            "t_end": self.t_end,
            "objective": self.objective,
            "penalty": self.penalty_value,
            "status": self.status,
            "wall_arrival_spread": self.wall_arrival_spread,
        }

    def write_trajectory_csv(self, path):
        import csv

        n_u = self.controls.shape[1]
        n_dep = self.dependent_flows.shape[1]
        dep_dense = interp_columns(self.t, self.grid_t, self.dependent_flows)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            header = (["t_s"] + [f"T_{n}" for n in self.state_names]
                      + [f"mdot_indep_{j}" for j in range(self.states.shape[1] - self.n_temp)]
                      + [f"mdot_dep_{j}" for j in range(n_dep)]
                      + [f"u_{j}" for j in range(n_u)])
            writer.writerow(header)
            for i, t in enumerate(self.t):
                row = [f"{t:.6f}"]
                row += [f"{v:.6f}" for v in self.states[i]]
                row += [f"{v:.6f}" for v in dep_dense[i]]
                row += [f"{v:.8f}" for v in self.controls[i]]
                writer.writerow(row)


def _build_solution(problem: OlocProblem, trans: Transcription, tf: float,
                    states: np.ndarray, controls: np.ndarray, status: str,
                    success: bool, violation: float, iterations: int) -> OlocSolution:
    o = problem.options
    grid_t = np.linspace(0.0, tf, trans.n_pts)
    quad = trans._penalty_quadrature(controls)
    penalty = problem.lam * tf * quad
    dep = states[:, trans.n_temp :] @ problem.flow_map.m_matrix.T + problem.flow_map.m_offset
    t_dense = np.linspace(0.0, tf, o.dense_points)
    model = problem.model
    walls = list(model.leaf_wall_indices)
    spread = float(np.max(o.t_max - states[-1, walls])) if walls else float("nan")
    return OlocSolution(
        notation=problem.notation,
        t_end=float(tf),
        objective=float(tf - penalty),
        penalty_value=float(penalty),
        status=status,
        success=success,
        grid_t=grid_t,
        grid_states=states,
        grid_controls=controls,
        dependent_flows=dep,
        t=t_dense,
        states=interp_columns(t_dense, grid_t, states),
        controls=interp_columns(t_dense, grid_t, controls),
        state_names=model.state_names,
        n_temp=trans.n_temp,
        wall_arrival_spread=spread,
        constraint_violation=float(violation),
        iterations=iterations,
        segments=trans.segments,
        lam=problem.lam,
    )


def solve(trans: Transcription, z0: np.ndarray | None = None) -> OlocSolution:
    """Solve the transcribed program; enforces the penalty acceptance rule
    (resolving once with a ten-times smaller weight if violated)."""
    problem = trans.problem
    o = problem.options
    if z0 is None:
        z0 = trans.initial_guess()

    # SR1 tracks the (indefinite) Lagrangian curvature of the defects far
    # better here than the default BFGS; exact Hessians proved unstable.
    constraints = [
        NonlinearConstraint(trans.defects, 0.0, 0.0, jac=trans.defects_jac,
                            hess=SR1()),
    ]
    dep = trans.dependent_flow_constraint()
    if dep is not None:
        a, lb, ub = dep
        constraints.append(LinearConstraint(a, lb, ub))

    def run_solver(start, maxiter):
        return minimize(
            trans.objective,
            start,
            jac=trans.objective_grad,
            hess=trans.objective_hess,
            method="trust-constr",
            bounds=trans.bounds(),
            constraints=constraints,
            options={
                "gtol": o.optimality_tol,
                "xtol": 1e-10,
                "maxiter": maxiter,
                "sparse_jacobian": True,
                # a gentle first barrier step; the default 0.1 lets the
                # interior point leave the near-feasible initial guess and
                # diverge on series-heavy configurations
                "initial_barrier_parameter": 0.01,
            },
        )

    def measure_violation(z):
        violation = float(np.max(np.abs(trans.defects(z))))
        if dep is not None:
            a, lb, ub = dep
            v = a @ z
            violation = max(violation,
                            float(np.max(np.maximum(lb - v, 0.0))),
                            float(np.max(np.maximum(v - ub, 0.0))))
        return violation

    res = run_solver(z0, o.max_iterations)
    violation = measure_violation(res.x)
    if violation > o.feasibility_tol and res.status in (1, 2):
        # converged slightly outside tolerance: polish from where it stopped
        polish = run_solver(res.x, 300)
        if measure_violation(polish.x) < violation:
            res = polish
            violation = measure_violation(res.x)

    tf, states, controls = trans.unpack(res.x)
    feasible = violation <= o.feasibility_tol
    if res.status in (1, 2) and feasible:
        status, success = STATUS_OPTIMAL, True
    elif feasible:
        status, success = STATUS_FEASIBLE, True
    else:
        status, success = STATUS_INFEASIBLE, False

    sol = _build_solution(problem, trans, tf, states, controls, status, success,
                          violation, res.niter)
    if (sol.success and problem.n_f > 0 and sol.penalty_value >= 0.01 * sol.t_end
            and problem.lam > 1e-12):
        relaxed = replace(problem, lam=problem.lam / 10.0)
        trans_relaxed = Transcription(relaxed, trans.segments, trans.scheme,
                                      tf_guess=sol.t_end)
        z1 = trans_relaxed.guess_from(sol.t_end, sol.grid_t, sol.grid_states,
                                      sol.grid_controls)
        sol2 = solve(trans_relaxed, z1)
        if sol2.success:
            return sol2
    return sol


def evaluate_endurance(model: ThermalModel, flow_map: FlowMap, loads_w,
                       options: OlocOptions | None = None) -> OlocSolution:
    """Pipeline: formulate, transcribe, solve, then refine the mesh by
    segment doubling until the endurance settles (or the round cap hits).

    If the equal-split schedule never reaches the temperature bound by the
    final-time cap, nothing can beat the cap and the capped simulation is
    returned directly with a dedicated status.
    """
    options = options or OlocOptions()
    problem = formulate(model, flow_map, loads_w, options)
    t0 = problem.initial_temperatures()
    eq = flow_map.equal_split()
    traj = simulate(model, t0, flows=eq, loads_w=problem.loads_w,
                    t_end=options.tf_max, tol=1e-8, t_bound=options.t_max)
    if traj.event_time is None:
        n_pts = options.segments + 1
        grid_t = np.linspace(0.0, options.tf_max, n_pts)
        temps = traj.interpolate(grid_t)
        states = np.concatenate([temps, np.tile(eq, (n_pts, 1))], axis=1)
        controls = np.zeros((n_pts, problem.n_f))
        trans = Transcription(problem, options.segments, options.scheme,
                              tf_guess=options.tf_max)
        return _build_solution(problem, trans, options.tf_max, states, controls,
                               STATUS_CAPPED, True, 0.0, 0)

    tf_guess = max(traj.event_time, options.tf_min * 1.5)
    segments = options.segments
    trans = transcribe(problem, segments=segments, tf_guess=tf_guess)
    sol = solve(trans)
    for _ in range(options.mesh_refinements):
        if not sol.success:
            break
        segments *= 2
        trans = transcribe(problem, segments=segments, tf_guess=sol.t_end)
        z0 = trans.guess_from(sol.t_end, sol.grid_t, sol.grid_states, sol.grid_controls)
        refined = solve(trans, z0)
        if not refined.success:
            break
        done = abs(refined.t_end - sol.t_end) <= options.refine_rtol * max(sol.t_end, 1e-9)
        sol = refined
        if done:
            break
    return sol
