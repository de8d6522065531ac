"""Variable-final-time optimal flow control of one thermal model.

The model is the whole instance: it carries its configuration's flow
decomposition and heat loads, so a problem is the model plus the solve
options.  The state is [node temperatures; independent branch flows] and
the control is the rate of change of the independent flows.  Time is
scaled onto the unit interval (t = tau * t_f) with the final time a
bounded decision variable, the dynamics are enforced by trapezoidal
collocation defects, and the objective maximizes the horizon minus a small
control-smoothness penalty.  The transcribed nonlinear program is solved
with an interior-point iteration (scipy's trust-constr) using exact sparse
first and second derivatives throughout.  The dynamics are bilinear in
temperatures and flows, so the Hessian of the multiplier-weighted defects
has, per segment, only temperature-by-flow blocks that do not depend on the
point and a final-time row; it is scattered into one sparse pattern built
per grid.

Every evaluation starts with one forward simulation under equal flow
splits.  A series-only configuration has no independent flow and hence
only one trajectory, so its endurance is that simulation's event time and
no program is transcribed; likewise when the simulation never reaches the
bound before the final-time cap.  Otherwise the simulation seeds the
initial guess of the first solve.

Collocation constrains the dynamics only at the grid points, so every
successful solve is checked a posteriori by simulation (Betts, *Practical
Methods for Optimal Control*, ch. 4): its flow schedule is re-simulated
and the time at which a temperature reaches the bound is compared with
the reported endurance.  A grid is accepted once that gap is within
``refine_rtol``; only a grid that fails the check is refined.
"""

from __future__ import annotations

import csv
import json
import numbers
from dataclasses import dataclass, field, fields, replace

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, NonlinearConstraint, minimize

from .config import FlowMap
from .thermal import (
    PiecewiseLinearFlows,
    ThermalModel,
    Trajectory,
    interp_columns,
    simulate,
)

STATUS_OPTIMAL = "optimal"
STATUS_FEASIBLE = "max_iterations_feasible"
STATUS_INFEASIBLE = "infeasible"
STATUS_CAPPED = "endurance unbounded at cap"
# a converged solution whose re-simulated schedule misses its endurance by
# more than refine_rtol on the last grid tried: still ranked, but its
# endurance carries that grid's discretization error
STATUS_UNVERIFIED = "optimal_unverified"


class FormulationError(ValueError):
    """The control problem cannot be built from these inputs."""


def integral(value) -> bool:
    """True for an integer (numpy's included), False for a bool or a float."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class OlocOptions:
    """Knobs of the optimal-control solve (defaults follow the study setup)."""

    segments: int = 50
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
        # the type first: "20" < 2 raises TypeError
        for name, least in (("segments", 2), ("max_iterations", 1),
                            ("mesh_refinements", 0), ("dense_points", 2)):
            value = getattr(self, name)
            if not integral(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be at least {least}")
        if not isinstance(self.fix_initial_flows, bool):
            raise ValueError("fix_initial_flows must be true or false, "
                             f"got {self.fix_initial_flows!r}")
        if not 0 < self.tf_min < self.tf_max:
            raise ValueError("need 0 < tf_min < tf_max")
        for name in ("u_max", "feasibility_tol", "optimality_tol", "refine_rtol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        # json parses NaN and Infinity; with t_max = nan no temperature ever
        # reaches the bound, and the configuration would rank first at the cap
        for name in ("t_max", "tf_min", "tf_max", "t_wall_initial",
                     "t_fluid_initial", "t_loop_initial"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        lam = self.lambda_weight
        if lam is not None and not (np.isfinite(lam) and lam >= 0):
            raise ValueError("lambda_weight must be None or finite and non-negative")

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
    """A fully specified instance: the thermal model, which carries its
    configuration's flow decomposition and heat loads, the options, and the
    control-penalty weight."""

    model: ThermalModel
    options: OlocOptions
    lam: float

    @property
    def flow_map(self) -> FlowMap:
        return self.model.physics.flow_map

    @property
    def loads_w(self) -> np.ndarray:
        return self.model.physics.loads_w

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

    def equal_split_trajectory(self) -> Trajectory:
        """Forward simulation under the constant equal-split flows, stopped
        where a temperature first reaches the bound (or at the time cap)."""
        o = self.options
        return simulate(self.model, self.initial_temperatures(),
                        flows=self.flow_map.equal_split(), t_end=o.tf_max,
                        tol=1e-8, t_bound=o.t_max)


def formulate(model: ThermalModel, options: OlocOptions | None = None) -> OlocProblem:
    """Build the control problem on the model's own flow map and loads; with
    no splits it degenerates to a pure simulation (empty control vector),
    which is still a valid instance."""
    options = options or OlocOptions()
    n_f = model.n_flows
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
    return OlocProblem(model=model, options=options, lam=lam)


class Transcription:
    """Trapezoidal direct transcription of an :class:`OlocProblem` on a
    uniform grid of ``segments`` intervals (default: the problem's options).

    Decision vector (internally scaled to order one):
    ``z = [t_f, states at the N+1 grid points, controls at the grid points]``.
    """

    def __init__(self, problem: OlocProblem, segments: int | None = None,
                 tf_guess: float | None = None):
        if segments is None:
            segments = problem.options.segments
        if segments < 2:
            raise ValueError("segments must be at least 2")
        self.problem = problem
        self.segments = segments
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
        # CSR pattern of the defect Hessian: every segment's block over the
        # same local variables, restricted to the entries that can be
        # nonzero.  The entries are polynomials in (z, v), so the ones that
        # are not identically zero are nonzero at a random probe point.
        rng = np.random.default_rng(0)
        probe = self._hess_blocks(rng.uniform(0.5, 1.5, self.n_z),
                                  rng.standard_normal(self.n_defects))
        self._hess_r, self._hess_c = np.nonzero(np.any(probe != 0.0, axis=0))
        keys = (cols[:, self._hess_r] * self.n_z + cols[:, self._hess_c]).ravel()
        keys, self._hess_pos = np.unique(keys, return_inverse=True)
        self._hess_indices = keys % self.n_z
        self._hess_indptr = np.searchsorted(keys, np.arange(self.n_z + 1) * self.n_z)
        local_scale = np.concatenate([[self.s_tf], self.sx, self.sx, self.su, self.su])
        self._hess_scale = local_scale[self._hess_r] * local_scale[self._hess_c]

    # ---- decision-vector layout -------------------------------------------

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
        """Unpacked z with the dynamics at the grid points (cached for the
        last z)."""
        key = z.tobytes()
        if key != self._cache_key:
            tf, states, controls = self.unpack(z)
            self._cache_key = key
            self._cache_val = (tf, states, controls, *self._dynamics(states, controls))
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
        tf, states, _, f, _ = self._eval(z)
        d = (states[1:] - states[:-1]
             - (self.h * tf / 2.0) * (f[:-1] + f[1:]))
        return (d / self.sx).ravel()

    def defects_jac(self, z: np.ndarray) -> sparse.csr_matrix:
        tf, _, _, f, jac = self._eval(z)
        h, s = self.h, self.segments
        eye = np.eye(self.n_x)
        bu = np.zeros((self.n_x, self.n_u))
        bu[self.n_temp :, :] = np.eye(self.n_u)
        # physical blocks of each segment's defect with respect to
        # t_f, x_k, x_k+1, u_k and u_k+1, stacked over segments
        coef = h * tf / 2.0
        d_tf = -(h / 2.0) * (f[:-1] + f[1:])
        d_k = -eye - coef * jac[:-1]
        d_k1 = eye - coef * jac[1:]
        d_uk = d_uk1 = np.broadcast_to(-coef * bu, (s, self.n_x, self.n_u))
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

    def _hess_blocks(self, z: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Hessian of each segment's term of v . defects over its local
        variables y = [t_f | x_k | x_k+1 | u_k | u_k+1] (physical units),
        shape (segments, len(y), len(y)).

        Each term is mu . (x_k+1 - x_k) - (h / 2) t_f phi(y) with mu = v / sx
        and phi = mu . (f_k + f_k+1), so its Hessian is
        -(h / 2) (t_f H_phi + e_tf g_phi' + g_phi e_tf').  f is bilinear, so
        H_phi holds only the constant T-by-x block of
        :meth:`ThermalModel.cross_hessian` at each of the two grid points.
        """
        tf, _, _, _, jac = self._eval(z)
        h, s, nt, nx, nu = self.h, self.segments, self.n_temp, self.n_x, self.n_u
        mu = v.reshape(s, nx) / self.sx
        xk, xk1 = slice(1, 1 + nx), slice(1 + nx, 1 + 2 * nx)
        uk, uk1 = slice(1 + 2 * nx, 1 + 2 * nx + nu), slice(1 + 2 * nx + nu, None)
        n_loc = 1 + 2 * nx + 2 * nu
        hess = np.zeros((s, n_loc, n_loc))
        grad = np.zeros((s, n_loc))
        grad[:, xk] = np.einsum("sij,si->sj", jac[:-1], mu)
        grad[:, xk1] = np.einsum("sij,si->sj", jac[1:], mu)
        grad[:, uk] = grad[:, uk1] = mu[:, nt:]
        cross = self.problem.model.cross_hessian(mu[:, :nt])
        for block in (xk, xk1):
            t0, x0 = block.start, block.start + nt
            hess[:, t0 : t0 + nt, x0 : x0 + nu] += cross
            hess[:, x0 : x0 + nu, t0 : t0 + nt] += cross.transpose(0, 2, 1)
        # in place: a second array of this size per call costs page faults
        hess *= tf
        hess[:, 0, :] += grad
        hess[:, :, 0] += grad
        hess *= -(h / 2.0)
        return hess

    def defects_hess(self, z: np.ndarray, v: np.ndarray) -> sparse.csr_matrix:
        """Exact Hessian of v . defects(z) in the scaled variables: the
        per-segment blocks of :meth:`_hess_blocks`, summed into the fixed
        pattern where neighbouring segments share a grid point."""
        entries = self._hess_blocks(z, v)[:, self._hess_r, self._hess_c] * self._hess_scale
        data = np.bincount(self._hess_pos, weights=entries.ravel(),
                           minlength=len(self._hess_indices))
        return sparse.csr_matrix((data, self._hess_indices, self._hess_indptr),
                                 shape=(self.n_z, self.n_z))

    # ---- path constraints and bounds --------------------------------------------

    def dependent_flow_constraint(self):
        """0 <= M x_k + offset <= pump at every grid point, linear in z."""
        fm = self.problem.flow_map
        n_dep = len(fm.dependent)
        if n_dep == 0 or self.n_u == 0:
            return None
        # one block per grid point over its state [T; x], placed between
        # the t_f column and the control columns
        block = np.zeros((n_dep, self.n_x))
        block[:, self.n_temp :] = fm.m_matrix * self.sx[self.n_temp :]
        n_rows = self.n_pts * n_dep
        a = sparse.hstack([
            sparse.csr_matrix((n_rows, 1)),
            sparse.kron(sparse.identity(self.n_pts), sparse.csr_matrix(block)),
            sparse.csr_matrix((n_rows, self.n_pts * self.n_u)),
        ], format="csr")
        lb = np.tile(-fm.m_offset, self.n_pts)
        ub = np.tile(self._pump - fm.m_offset, self.n_pts)
        return a, lb, ub

    def bounds(self) -> Bounds:
        o = self.problem.options
        nt = self.n_temp
        # at every grid point T <= t_max and 0 <= x <= pump
        x_lb = np.concatenate([np.full(nt, -np.inf), np.zeros(self.n_u)])
        x_ub = np.concatenate([o.t_max / self.sx[:nt], self._pump / self.sx[nt:]])
        lb = np.concatenate([[o.tf_min / self.s_tf], np.tile(x_lb, self.n_pts),
                             np.tile(-o.u_max / self.su, self.n_pts)])
        ub = np.concatenate([[o.tf_max / self.s_tf], np.tile(x_ub, self.n_pts),
                             np.tile(o.u_max / self.su, self.n_pts)])
        t0 = self.problem.initial_temperatures() / self.sx[:nt]
        lb[1 : 1 + nt] = ub[1 : 1 + nt] = t0
        if o.fix_initial_flows and self.n_u:
            eq = self.problem.flow_map.equal_split() / self.sx[nt:]
            lb[1 + nt : 1 + self.n_x] = ub[1 + nt : 1 + self.n_x] = eq
        # every iterate keeps t_f within its bounds: the exact Lagrangian
        # Hessian is indefinite, and a step along its negative curvature
        # can otherwise carry t_f below zero, where scaled time runs
        # backwards and the iteration stalls at an infeasible point
        keep_tf = np.zeros(self.n_z, dtype=bool)
        keep_tf[0] = True
        return Bounds(lb, ub, keep_feasible=keep_tf)

    # ---- initial guess ---------------------------------------------------------

    def initial_guess(self, traj: Trajectory | None = None) -> np.ndarray:
        """Build a starting point with equal flow splits and resting controls.

        The temperatures sample the problem's equal-split trajectory (pass
        one already simulated to skip the simulation), so the defects start
        near zero.
        """
        o = self.problem.options
        eq = self.problem.flow_map.equal_split()
        tau = np.linspace(0.0, 1.0, self.n_pts)
        if traj is None:
            traj = self.problem.equal_split_trajectory()
        if traj.event_time is not None:
            tf = max(0.998 * traj.event_time, o.tf_min)
        else:
            tf = 0.9 * o.tf_max
        temps = traj.interpolate(tau * tf)
        flows = np.tile(eq, (self.n_pts, 1))
        states = np.concatenate([temps, flows], axis=1)
        controls = np.zeros((self.n_pts, self.n_u))
        return self.pack(tf, states, controls)

    def guess_from(self, sol: "OlocSolution") -> np.ndarray:
        """Warm start by resampling a previous solution onto this grid."""
        grid_t = sol.grid_t
        tau_old = grid_t / grid_t[-1] if grid_t[-1] > 0 else np.linspace(0, 1, len(grid_t))
        tau_new = np.linspace(0.0, 1.0, self.n_pts)
        return self.pack(sol.t_end, interp_columns(tau_new, tau_old, sol.grid_states),
                         interp_columns(tau_new, tau_old, sol.grid_controls))


@dataclass(frozen=True, eq=False)
class OlocSolution:
    """What the solver computed: the achieved thermal endurance and the
    states and controls on its collocation grid."""

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
    state_names: tuple[str, ...] = ()
    n_temp: int = 0
    wall_arrival_spread: float = float("nan")
    constraint_violation: float = float("nan")
    # trust-constr iterations summed over every NLP run made for this
    # solution, polish, penalty relaxation and mesh rounds included
    iterations: int = 0
    segments: int = 0
    lam: float = 0.0
    # when a forward simulation of flow_schedule() reaches the temperature
    # bound, and its relative distance (verified_t_end - t_end) / t_end;
    # NaN when nothing was simulated (a failed solve, a capped endurance)
    verified_t_end: float = float("nan")
    verification_gap: float = float("nan")

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
            "verified_t_end": self.verified_t_end,
            "verification_gap": self.verification_gap,
        }

    def write_trajectory_csv(self, path, dense_points: int):
        """Write the grid trajectory, interpolated linearly at ``dense_points``
        uniform times of [0, t_end]: one row per time."""
        t_dense = np.linspace(0.0, self.t_end, dense_points)
        states = interp_columns(t_dense, self.grid_t, self.grid_states)
        dependent = interp_columns(t_dense, self.grid_t, self.dependent_flows)
        controls = interp_columns(t_dense, self.grid_t, self.grid_controls)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            header = (["t_s"] + [f"T_{n}" for n in self.state_names]
                      + [f"mdot_indep_{j}" for j in range(states.shape[1] - self.n_temp)]
                      + [f"mdot_dep_{j}" for j in range(dependent.shape[1])]
                      + [f"u_{j}" for j in range(controls.shape[1])])
            writer.writerow(header)
            for i, t in enumerate(t_dense):
                row = [f"{t:.6f}"]
                row += [f"{v:.6f}" for v in states[i]]
                row += [f"{v:.6f}" for v in dependent[i]]
                row += [f"{v:.8f}" for v in controls[i]]
                writer.writerow(row)


def _build_solution(problem: OlocProblem, tf: float, states: np.ndarray,
                    controls: np.ndarray, penalty: float, status: str,
                    success: bool, violation: float, iterations: int) -> OlocSolution:
    """Package grid states and controls on ``len(states) - 1`` uniform
    segments of [0, tf] (physical units) with the control penalty they
    incur."""
    n_temp = problem.n_temp
    dep = states[:, n_temp:] @ problem.flow_map.m_matrix.T + problem.flow_map.m_offset
    walls = list(problem.model.leaf_wall_indices)
    t_max = problem.options.t_max
    spread = float(np.max(t_max - states[-1, walls])) if walls else float("nan")
    return OlocSolution(
        notation=problem.notation,
        t_end=float(tf),
        objective=float(tf - penalty),
        penalty_value=float(penalty),
        status=status,
        success=success,
        grid_t=np.linspace(0.0, tf, len(states)),
        grid_states=states,
        grid_controls=controls,
        dependent_flows=dep,
        state_names=problem.model.state_names,
        n_temp=n_temp,
        wall_arrival_spread=spread,
        constraint_violation=float(violation),
        iterations=iterations,
        segments=len(states) - 1,
        lam=problem.lam,
    )


def solve(trans: Transcription, z0: np.ndarray | None = None) -> OlocSolution:
    """Solve the transcribed program; enforces the penalty acceptance rule
    (resolving once with a ten-times smaller weight if violated)."""
    problem = trans.problem
    o = problem.options
    if z0 is None:
        z0 = trans.initial_guess()

    # exact, sparse derivatives of every function: the defect Hessian is
    # the multiplier-weighted curvature of the bilinear dynamics
    constraints = [
        NonlinearConstraint(trans.defects, 0.0, 0.0, jac=trans.defects_jac,
                            hess=trans.defects_hess),
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
    iterations = res.niter
    violation = measure_violation(res.x)
    if violation > o.feasibility_tol and res.status in (1, 2):
        # converged slightly outside tolerance: polish from where it stopped
        polish = run_solver(res.x, 300)
        iterations += polish.niter
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

    penalty = problem.lam * tf * trans._penalty_quadrature(controls)
    sol = _build_solution(problem, tf, states, controls, penalty, status, success,
                          violation, iterations)
    if (sol.success and problem.n_f > 0 and sol.penalty_value >= 0.01 * sol.t_end
            and problem.lam > 1e-12):
        relaxed = replace(problem, lam=problem.lam / 10.0)
        trans_relaxed = Transcription(relaxed, trans.segments, tf_guess=sol.t_end)
        sol2 = solve(trans_relaxed, trans_relaxed.guess_from(sol))
        iterations += sol2.iterations
        return replace(sol2 if sol2.success else sol, iterations=iterations)
    return sol


def _verified(problem: OlocProblem, sol: OlocSolution) -> OlocSolution:
    """``sol`` with the endurance its flow schedule actually reaches: an
    independent RK45 re-simulation (tol 1e-9) over twice ``t_end``, stopped
    where a temperature reaches ``t_max``.  Without that event the verified
    endurance is NaN and the gap infinite."""
    traj = simulate(problem.model, problem.initial_temperatures(),
                    flows=sol.flow_schedule(), t_end=2.0 * sol.t_end, tol=1e-9,
                    t_bound=problem.options.t_max)
    if traj.event_time is None:
        return replace(sol, verified_t_end=float("nan"), verification_gap=float("inf"))
    event = float(traj.event_time)
    return replace(sol, verified_t_end=event,
                   verification_gap=(event - sol.t_end) / sol.t_end)


def evaluate_endurance(model: ThermalModel,
                       options: OlocOptions | None = None) -> OlocSolution:
    """Pipeline: formulate on the model's own flow map and loads, simulate
    the equal-split schedule, transcribe, solve, and verify the solution by
    re-simulating its flow schedule.

    A grid is accepted when the re-simulated schedule reaches the
    temperature bound within ``refine_rtol`` (relative) of the reported
    endurance.  Only when that check fails is the mesh refined: the
    segments are doubled and the solve warm-started from the last solution,
    at most ``mesh_refinements`` times.  A converged solution that is still
    outside the tolerance when the rounds run out, or whose refined round
    fails, is returned from the last successful grid with
    ``STATUS_UNVERIFIED`` in place of ``STATUS_OPTIMAL``; it stays ranked,
    with its gap in ``verification_gap``.  A solution stopped at the
    iteration limit keeps ``STATUS_FEASIBLE``.

    When there is nothing to optimise, the equal-split simulation itself is
    the answer and no NLP runs: if it never reaches the temperature bound by
    the final-time cap, nothing can beat the cap (status
    ``STATUS_CAPPED``, no verified endurance); if the configuration is
    series-only (no independent flow), its one trajectory reaches the bound
    at the simulated event time (``STATUS_OPTIMAL``, or
    ``STATUS_INFEASIBLE`` below ``tf_min``), which is that schedule's own
    re-simulation, so the gap is 0.  Either way the grid states sample that
    trajectory on ``options.segments`` segments and ``iterations`` is 0.
    """
    options = options or OlocOptions()
    problem = formulate(model, options)
    traj = problem.equal_split_trajectory()
    if traj.event_time is None or problem.n_f == 0:
        if traj.event_time is None:
            tf, status, success = options.tf_max, STATUS_CAPPED, True
        elif traj.event_time < options.tf_min:
            tf, status, success = traj.event_time, STATUS_INFEASIBLE, False
        else:
            tf, status, success = traj.event_time, STATUS_OPTIMAL, True
        n_pts = options.segments + 1
        temps = traj.interpolate(np.linspace(0.0, tf, n_pts))
        flows = np.tile(problem.flow_map.equal_split(), (n_pts, 1))
        states = np.concatenate([temps, flows], axis=1)
        controls = np.zeros((n_pts, problem.n_f))
        sol = _build_solution(problem, tf, states, controls, 0.0, status, success,
                              0.0, 0)
        if traj.event_time is None:
            return sol
        return replace(sol, verified_t_end=sol.t_end, verification_gap=0.0)

    def accepted(sol):
        return abs(sol.verification_gap) <= options.refine_rtol

    tf_guess = max(traj.event_time, options.tf_min * 1.5)
    segments = options.segments
    trans = Transcription(problem, segments, tf_guess=tf_guess)
    sol = solve(trans, trans.initial_guess(traj))
    iterations = sol.iterations
    if sol.success:
        sol = _verified(problem, sol)
    for _ in range(options.mesh_refinements):
        if not sol.success or accepted(sol):
            break
        segments *= 2
        trans = Transcription(problem, segments, tf_guess=sol.t_end)
        refined = solve(trans, trans.guess_from(sol))
        iterations += refined.iterations
        if not refined.success:
            break
        sol = _verified(problem, refined)
    if sol.status == STATUS_OPTIMAL and not accepted(sol):
        sol = replace(sol, status=STATUS_UNVERIFIED)
    return replace(sol, iterations=iterations)
