"""Variable-final-time optimal flow control of one thermal model.

The model is the whole instance: it carries its configuration's flow
decomposition and heat loads, so a :class:`Transcription` takes only the
model and the solve options.  The state is [node temperatures; independent
branch flows] and the control is the rate of change of the independent
flows.  Time is scaled onto the unit interval (t = tau * t_f) with the final
time a bounded decision variable, the dynamics are enforced by trapezoidal
collocation defects, and the objective maximizes the horizon minus a small
control-smoothness penalty.  The transcribed nonlinear program is solved
by one run of an interior-point iteration (scipy's trust-constr), judged by
that run's own status and constraint violation, using exact sparse first
and second derivatives throughout, and with no variable bounds: the
initial state is pinned by equality rows and every limit is a one-sided
row, the forms trust-constr takes without conversion.  The decision vector
is laid out grid point by grid point, so the defect Jacobian is one block
per segment.
The dynamics are bilinear in temperatures and flows, so the Hessian of the
multiplier-weighted defects is a final-time border plus, per grid point, one
temperature-by-flow block that does not depend on the point.

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

import json
from dataclasses import dataclass, field, fields, replace

import numpy as np
from scipy import sparse
from scipy.optimize import LinearConstraint, NonlinearConstraint, minimize

from .config import integral, real
from .thermal import PiecewiseLinearFlows, ThermalModel, Trajectory, interp_columns, simulate

STATUS_OPTIMAL = "optimal"
STATUS_FEASIBLE = "max_iterations_feasible"
STATUS_INFEASIBLE = "infeasible"
STATUS_CAPPED = "endurance unbounded at cap"
# a converged solution whose re-simulated schedule misses its endurance by
# more than refine_rtol on the last grid tried: still ranked, but its
# endurance carries that grid's discretization error
STATUS_UNVERIFIED = "optimal_unverified"


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
        positive = ("u_max", "feasibility_tol", "optimality_tol", "refine_rtol")
        finite = ("t_max", "tf_min", "tf_max", "t_wall_initial", "t_fluid_initial",
                  "t_loop_initial")
        for name in positive + finite:
            value = getattr(self, name)
            if not real(value):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not 0 < self.tf_min < self.tf_max:
            raise ValueError("need 0 < tf_min < tf_max")
        for name in positive:
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        # json parses NaN and Infinity; with t_max = nan no temperature ever
        # reaches the bound, and the configuration would rank first at the cap
        for name in finite:
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        # every model has wall, fluid and loop nodes, so this is the hottest
        # initial temperature of any model
        hottest = max(self.t_wall_initial, self.t_fluid_initial, self.t_loop_initial)
        if hottest >= self.t_max:
            raise ValueError(f"initial temperature {hottest} already violates the "
                             f"bound T <= t_max = {self.t_max}")

    def initial_state(self, model: ThermalModel) -> np.ndarray:
        """The model's initial temperatures under these options."""
        return model.initial_state(self.t_wall_initial, self.t_fluid_initial,
                                   self.t_loop_initial)

    def with_overrides(self, overrides: dict | None) -> "OlocOptions":
        if not overrides:
            return self
        overrides = dict(overrides)
        # aliases are not cast, so their values are type-checked like the fields
        for alias, names in (("T_max", ("t_max",)), ("t_f_bounds", ("tf_min", "tf_max"))):
            if alias in overrides:
                values = overrides.pop(alias)
                values = [values] if alias == "T_max" else values
                if not isinstance(values, (list, tuple)) or len(values) != len(names):
                    raise ValueError(f"{alias} must be a two-element list, got {values!r}")
                if not overrides.keys().isdisjoint(names):
                    raise ValueError(f"{alias} sets {' and '.join(names)}: give one or the other")
                overrides.update(zip(names, values))
        known = {f.name for f in fields(self)}
        unknown = set(overrides) - known
        if unknown:
            raise ValueError(f"unknown OLOC options: {sorted(unknown)}")
        return replace(self, **overrides)

    @classmethod
    def from_json(cls, text: str) -> "OlocOptions":
        return cls().with_overrides(json.loads(text))


def _equal_split_trajectory(model: ThermalModel, options: OlocOptions) -> Trajectory:
    """Forward simulation under the constant equal-split flows, stopped
    where a temperature first reaches the bound (or at the time cap)."""
    return simulate(model, options.initial_state(model),
                    flows=model.physics.flow_map.equal_split(), t_end=options.tf_max,
                    tol=1e-8, t_bound=options.t_max)


class Transcription:
    """Trapezoidal direct transcription of the control problem on a model,
    under ``options`` (default :class:`OlocOptions`), on a uniform grid of
    ``segments`` intervals (default: ``options.segments``).

    Decision vector (internally scaled to order one), in stage order:
    ``z = [t_f, y_0, ..., y_N]`` with ``y_k = [T_k; x_k; u_k]`` the state and
    control at grid point k.  Every derivative is then built from blocks of
    one segment or one grid point: segment k's defects depend on
    ``[t_f | y_k | y_k+1]``, one contiguous range of columns, and the defect
    Hessian is a t_f border plus one T-by-x block per grid point.
    """

    def __init__(self, model: ThermalModel, options: OlocOptions | None = None,
                 segments: int | None = None, tf_guess: float | None = None):
        options = options or OlocOptions()
        if segments is None:
            segments = options.segments
        if segments < 2:
            raise ValueError("segments must be at least 2")
        self.model = model
        self.options = options
        self.segments = segments
        self.n_temp = nt = model.n_states
        self.n_u = nu = model.n_flows
        # |u| <= u_max and unit-sum trapezoid weights keep the penalty <= 1% of t_f
        self.lam = 0.01 / (nu * options.u_max**2) if nu else 0.0
        self.n_x = nx = nt + nu
        self.n_y = ny = nx + nu
        self.n_pts = segments + 1
        self.h = 1.0 / segments
        self.tf_guess = float(tf_guess) if tf_guess else 100.0

        self._pump = model.params.pump_flow

        # scaling: temperatures ~ tens of degC, flows ~ pump rate,
        # controls ~ rate limit, final time ~ its initial guess
        self.s_tf = max(self.tf_guess, 10.0)
        self.sx = np.concatenate([np.full(nt, 10.0), np.full(nu, self._pump)])
        self.su = np.full(nu, options.u_max)
        self.sy = np.concatenate([self.sx, self.su])
        self.n_z = 1 + self.n_pts * ny
        # trapezoid weights of the control-penalty quadrature over tau
        self._quad_w = np.full(self.n_pts, self.h)
        self._quad_w[[0, -1]] = self.h / 2.0
        # columns of the controls in z, grid point by grid point
        pts = np.arange(self.n_pts)[:, None]
        self._u_cols = (1 + pts * ny + nx + np.arange(nu)).ravel()
        # CSR pattern of the defect Jacobian: segment k's rows hold
        # [t_f | y_k | y_k+1], columns ascending
        k = np.arange(segments)[:, None]
        cols = np.hstack([np.zeros_like(k), 1 + k * ny + np.arange(2 * ny)])
        self._jac_indices = np.repeat(cols, nx, axis=0).ravel()
        self._jac_indptr = np.arange(self.n_defects + 1) * cols.shape[1]
        self._cache_key = None
        self._cache_val = None
        # CSR pattern of the defect Hessian: the t_f row over every y, then
        # each grid point's rows [t_f | its T-by-x block].  The block's
        # pattern is the model's cross term, linear in its weights, so one
        # call with random weights finds it.  take[r, c] is where entry
        # (r, c) of a point's rows sits in that point's values
        # [border | T-by-x block], -1 outside the pattern.
        rng = np.random.default_rng(0)
        cross = self.model.cross_hessian(rng.standard_normal((1, nt)))[0] != 0.0
        take = np.full((ny, 1 + ny), -1)
        take[:, 0] = np.arange(ny)
        take[:nt, 1 + nt : 1 + nx] = np.where(cross, ny + np.arange(nt * nu).reshape(nt, nu), -1)
        take[nt:nx, 1 : 1 + nt] = take[:nt, 1 + nt : 1 + nx].T
        r, c = np.nonzero(take >= 0)
        self._hess_take = take[r, c]
        self._hess_indices = np.concatenate([np.arange(1, self.n_z),
                                             np.where(c == 0, 0, pts * ny + c).ravel()])
        row_nnz = np.tile(np.bincount(r, minlength=ny), self.n_pts)
        self._hess_indptr = np.cumsum(np.concatenate([[0, self.n_z - 1], row_nnz]))

    # ---- decision-vector layout -------------------------------------------

    def pack(self, tf: float, states: np.ndarray, controls: np.ndarray) -> np.ndarray:
        return np.concatenate([[tf / self.s_tf],
                               (np.hstack([states, controls]) / self.sy).ravel()])

    def unpack(self, z: np.ndarray):
        y = z[1:].reshape(self.n_pts, self.n_y) * self.sy
        return z[0] * self.s_tf, y[:, : self.n_x], y[:, self.n_x :]

    # ---- dynamics on a batch of grid points --------------------------------

    def _dynamics(self, states: np.ndarray, controls: np.ndarray):
        """f(x, u) at a batch of points plus the Jacobians d f / d y.

        Returns (F, J) with F of shape (m, n_x) and J of shape (m, n_x, n_y),
        whose control block is the constant [0; I].
        """
        model, nt, nx = self.model, self.n_temp, self.n_x
        temps = states[:, :nt]
        w = model.flow_vector(states[:, nt:])
        f = np.concatenate([model.derivative(temps, w), controls], axis=1)
        jac = np.zeros((len(states), nx, self.n_y))
        jac[:, :nt, :nt], jac[:, :nt, nt:nx] = model.jacobian(temps, w)
        jac[:, nt:, nx:] = np.eye(self.n_u)
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
        sq = (controls**2).sum(axis=1)
        return float(self._quad_w @ sq)

    def objective(self, z: np.ndarray) -> float:
        tf, _, controls = self.unpack(z)
        quad = self._penalty_quadrature(controls)
        return (-tf + self.lam * tf * quad) / self.s_tf

    def objective_grad(self, z: np.ndarray) -> np.ndarray:
        tf, _, controls = self.unpack(z)
        quad = self._penalty_quadrature(controls)
        g = np.zeros(self.n_z)
        g[0] = -1.0 + self.lam * quad
        du = 2.0 * self.lam * tf * self._quad_w[:, None] * controls  # physical gradient
        g[self._u_cols] = (du * self.su).ravel() / self.s_tf
        return g

    def objective_hess(self, z: np.ndarray) -> sparse.csr_matrix:
        """Exact Hessian; the objective is quadratic in u and bilinear in
        (t_f, u), everything else is linear."""
        _, _, controls = self.unpack(z)
        tfs = z[0]
        u_idx = self._u_cols
        su2 = np.tile(self.su**2, self.n_pts)
        w_rep = np.repeat(self._quad_w, self.n_u)
        us = (controls / self.su).ravel()
        diag_uu = 2.0 * self.lam * tfs * w_rep * su2
        cross = 2.0 * self.lam * w_rep * su2 * us
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
        h = self.h
        dx_dy = np.eye(self.n_x, self.n_y)
        # physical blocks of each segment's defect with respect to t_f, y_k
        # and y_k+1, stacked over segments
        coef = h * tf / 2.0
        d_tf = -(h / 2.0) * (f[:-1] + f[1:])
        d_k = -dx_dy - coef * jac[:-1]
        d_k1 = dx_dy - coef * jac[1:]
        # scale to the decision variables and scatter into the fixed pattern
        inv_sx = 1.0 / self.sx
        data = np.concatenate([
            (d_tf * inv_sx * self.s_tf)[:, :, None],
            inv_sx[:, None] * d_k * self.sy, inv_sx[:, None] * d_k1 * self.sy,
        ], axis=2)
        out = sparse.csr_matrix((data.ravel(), self._jac_indices, self._jac_indptr),
                                shape=(self.n_defects, self.n_z), copy=True)
        # drop exact zeros (e.g. the flow rows of the dynamics blocks)
        out.eliminate_zeros()
        return out

    def defects_hess(self, z: np.ndarray, v: np.ndarray) -> sparse.csr_matrix:
        """Exact Hessian of v . defects(z) in the scaled variables.

        Segment k's term is mu_k . (x_k+1 - x_k) - (h / 2) t_f mu_k . (f_k +
        f_k+1) with mu_k = v_k / sx.  At each of its grid points it has
        t_f-by-y entries -(h / 2) mu_k' df/dy and, f being bilinear, one
        other block: -(h / 2) t_f times the constant T-by-x cross term of
        :meth:`ThermalModel.cross_hessian` at mu_k.  A grid point sums the
        entries of its two adjacent segments.
        """
        tf, _, _, _, jac = self._eval(z)
        nt, ny = self.n_temp, self.n_y
        mu = v.reshape(self.segments, self.n_x) / self.sx
        cross = tf * self.model.cross_hessian(mu[:, :nt]).reshape(self.segments, -1)
        scale = np.concatenate([self.s_tf * self.sy,
                                np.outer(self.sx[:nt], self.sx[nt:]).ravel()])
        vals = np.zeros((self.n_pts, ny + cross.shape[1]))
        # entries of each segment's two points, summed: summing the two
        # multipliers first rounds differently and moved solver paths
        for pts in (slice(None, -1), slice(1, None)):
            border = np.einsum("kij,ki->kj", jac[pts], mu)
            vals[pts] += np.concatenate([border, cross], axis=1) * -(self.h / 2.0) * scale
        data = np.concatenate([vals[:, :ny].ravel(), vals[:, self._hess_take].ravel()])
        return sparse.csr_matrix((data, self._hess_indices, self._hess_indptr),
                                 shape=(self.n_z, self.n_z))

    # ---- linear constraints ----------------------------------------------------

    def linear_constraints(self) -> tuple[LinearConstraint, LinearConstraint]:
        """Every linear constraint of the program, built once per grid in
        the two forms trust-constr takes without conversion.

        Equality rows pin the initial temperatures (and, under
        ``fix_initial_flows``, the initial flows); as ``lb == ub`` bounds,
        widened by scipy to a 2-ulp interval, each would be two inequality
        rows the interior point spends many iterations on.  One-sided rows
        ``A z <= b`` hold tf_min <= t_f <= tf_max and, at every grid point,
        T <= t_max, 0 <= x <= pump, |u| <= u_max and 0 <= M x + offset <=
        pump for the dependent flows.
        """
        o = self.options
        nt, nx, ny = self.n_temp, self.n_x, self.n_y
        fm = self.model.physics.flow_map
        # the pinned values lead y_0, so they are the columns after t_f
        pinned = o.initial_state(self.model) / self.sx[:nt]
        if o.fix_initial_flows:
            pinned = np.concatenate([pinned, fm.equal_split() / self.sx[nt:]])
        a_eq = sparse.eye(len(pinned), self.n_z, k=1, format="csr")

        # one block per grid point over its y, after the t_f column
        eye = np.eye(ny)
        dep = np.zeros((len(fm.dependent), ny))
        dep[:, nt:nx] = fm.m_matrix * self.sx[nt:]
        block = np.vstack([eye[:nx], -eye[nt:nx], eye[nx:], -eye[nx:], dep, -dep])
        limit = np.concatenate([o.t_max / self.sx[:nt], self._pump / self.sx[nt:],
                                np.zeros(self.n_u), np.tile(o.u_max / self.su, 2),
                                self._pump - fm.m_offset, fm.m_offset])
        a = sparse.hstack([
            sparse.csr_matrix((self.n_pts * len(block), 1)),
            sparse.kron(sparse.identity(self.n_pts), sparse.csr_matrix(block)),
        ], format="csr")
        # grid point 0's rows that read only pinned values are constant;
        # kept, they let the 17-device solve stop 0.4% short of its endurance
        keep = np.ones(a.shape[0], dtype=bool)
        keep[: len(block)] = np.any(block[:, len(pinned):] != 0.0, axis=1)
        tf_rows = sparse.csr_matrix(([1.0, -1.0], ([0, 1], [0, 0])), shape=(2, self.n_z))
        a = sparse.vstack([tf_rows, a[keep]], format="csr")
        b = np.concatenate([[o.tf_max / self.s_tf, -o.tf_min / self.s_tf],
                            np.tile(limit, self.n_pts)[keep]])
        # every iterate keeps t_f within its limits: the exact Lagrangian
        # Hessian is indefinite, and a step along its negative curvature
        # can otherwise carry t_f below zero, where scaled time runs
        # backwards and the iteration stalls at an infeasible point
        keep_tf = np.arange(len(b)) < 2
        return (LinearConstraint(a_eq, pinned, pinned),
                LinearConstraint(a, -np.inf, b, keep_feasible=keep_tf))

    # ---- initial guess ---------------------------------------------------------

    def initial_guess(self, traj: Trajectory | None = None) -> np.ndarray:
        """Build a starting point with equal flow splits and resting controls.

        The temperatures sample the model's equal-split trajectory (pass
        one already simulated to skip the simulation), so the defects start
        near zero.
        """
        o = self.options
        eq = self.model.physics.flow_map.equal_split()
        tau = np.linspace(0.0, 1.0, self.n_pts)
        if traj is None:
            traj = _equal_split_trajectory(self.model, o)
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
    # solution, mesh rounds included
    iterations: int = 0
    segments: int = 0
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
        header = (["t_s"] + [f"T_{n}" for n in self.state_names]
                  + [f"mdot_indep_{j}" for j in range(states.shape[1] - self.n_temp)]
                  + [f"mdot_dep_{j}" for j in range(dependent.shape[1])]
                  + [f"u_{j}" for j in range(controls.shape[1])])
        rows = np.column_stack([t_dense, states, dependent, controls])
        fmt = ["%.6f"] * (rows.shape[1] - controls.shape[1]) + ["%.8f"] * controls.shape[1]
        with open(path, "w", newline="") as fh:
            np.savetxt(fh, rows, fmt=fmt, delimiter=",", newline="\r\n",
                       header=",".join(header), comments="")


def _build_solution(model: ThermalModel, options: OlocOptions, tf: float,
                    states: np.ndarray, controls: np.ndarray, penalty: float,
                    status: str, success: bool, violation: float,
                    iterations: int) -> OlocSolution:
    """Package grid states and controls on ``len(states) - 1`` uniform
    segments of [0, tf] (physical units) with the control penalty they
    incur."""
    n_temp = model.n_states
    fm = model.physics.flow_map
    dep = states[:, n_temp:] @ fm.m_matrix.T + fm.m_offset
    walls = list(model.leaf_wall_indices)
    spread = float(np.max(options.t_max - states[-1, walls])) if walls else float("nan")
    return OlocSolution(
        notation=model.physics.config.notation,
        t_end=float(tf),
        objective=float(tf - penalty),
        penalty_value=float(penalty),
        status=status,
        success=success,
        grid_t=np.linspace(0.0, tf, len(states)),
        grid_states=states,
        grid_controls=controls,
        dependent_flows=dep,
        state_names=model.state_names,
        n_temp=n_temp,
        wall_arrival_spread=spread,
        constraint_violation=float(violation),
        iterations=iterations,
        segments=len(states) - 1,
    )


def solve(trans: Transcription, z0: np.ndarray | None = None) -> OlocSolution:
    """Solve the transcribed program on its one grid: one trust-constr run,
    judged by its own status and constraint violation.

    The violation is trust-constr's ``constr_violation``, the largest
    ``max(lb - c, c - ub)`` over the defects and both linear blocks at the
    returned point.  A converged stop (status 1 or 2) within
    ``feasibility_tol`` is optimal, any other stop within it is feasible,
    and a stop outside it is infeasible: a recorded failure, not a cue for
    a second run."""
    o = trans.options
    if z0 is None:
        z0 = trans.initial_guess()

    # exact, sparse derivatives of every function: the defect Hessian is
    # the multiplier-weighted curvature of the bilinear dynamics
    res = minimize(
        trans.objective,
        z0,
        jac=trans.objective_grad,
        hess=trans.objective_hess,
        method="trust-constr",
        constraints=[
            NonlinearConstraint(trans.defects, 0.0, 0.0, jac=trans.defects_jac,
                                hess=trans.defects_hess),
            *trans.linear_constraints(),
        ],
        options={
            "gtol": o.optimality_tol,
            "xtol": 1e-10,
            "maxiter": o.max_iterations,
            "sparse_jacobian": True,
            # a gentle first barrier step; the default 0.1 lets the
            # interior point leave the near-feasible initial guess and
            # diverge on series-heavy configurations
            "initial_barrier_parameter": 0.01,
        },
    )
    tf, states, controls = trans.unpack(res.x)
    feasible = res.constr_violation <= o.feasibility_tol
    if res.status in (1, 2) and feasible:
        status, success = STATUS_OPTIMAL, True
    elif feasible:
        status, success = STATUS_FEASIBLE, True
    else:
        status, success = STATUS_INFEASIBLE, False

    penalty = trans.lam * tf * trans._penalty_quadrature(controls)
    return _build_solution(trans.model, o, tf, states, controls, penalty, status,
                           success, res.constr_violation, res.niter)


def _verified(model: ThermalModel, options: OlocOptions,
              sol: OlocSolution) -> OlocSolution:
    """``sol`` with the endurance its flow schedule actually reaches: an
    independent RK45 re-simulation (tol 1e-9) over twice ``t_end``, stopped
    where a temperature reaches ``t_max``.  Without that event the verified
    endurance is NaN and the gap infinite."""
    traj = simulate(model, options.initial_state(model), flows=sol.flow_schedule(),
                    t_end=2.0 * sol.t_end, tol=1e-9, t_bound=options.t_max)
    if traj.event_time is None:
        return replace(sol, verified_t_end=float("nan"), verification_gap=float("inf"))
    event = float(traj.event_time)
    return replace(sol, verified_t_end=event,
                   verification_gap=(event - sol.t_end) / sol.t_end)


def evaluate_endurance(model: ThermalModel,
                       options: OlocOptions | None = None) -> OlocSolution:
    """Pipeline: simulate the model's equal-split schedule, transcribe,
    solve, and verify the solution by re-simulating its flow schedule.

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
    traj = _equal_split_trajectory(model, options)
    if traj.event_time is None or model.n_flows == 0:
        if traj.event_time is None:
            tf, status, success = options.tf_max, STATUS_CAPPED, True
        elif traj.event_time < options.tf_min:
            tf, status, success = traj.event_time, STATUS_INFEASIBLE, False
        else:
            tf, status, success = traj.event_time, STATUS_OPTIMAL, True
        n_pts = options.segments + 1
        temps = traj.interpolate(np.linspace(0.0, tf, n_pts))
        flows = np.tile(model.physics.flow_map.equal_split(), (n_pts, 1))
        states = np.concatenate([temps, flows], axis=1)
        controls = np.zeros((n_pts, model.n_flows))
        sol = _build_solution(model, options, tf, states, controls, 0.0, status,
                              success, 0.0, 0)
        if traj.event_time is None:
            return sol
        return replace(sol, verified_t_end=sol.t_end, verification_gap=0.0)

    def accepted(sol):
        return abs(sol.verification_gap) <= options.refine_rtol

    tf_guess = max(traj.event_time, options.tf_min * 1.5)
    segments = options.segments
    trans = Transcription(model, options, segments, tf_guess=tf_guess)
    sol = solve(trans, trans.initial_guess(traj))
    iterations = sol.iterations
    if sol.success:
        sol = _verified(model, options, sol)
    for _ in range(options.mesh_refinements):
        if not sol.success or accepted(sol):
            break
        segments *= 2
        trans = Transcription(model, options, segments, tf_guess=sol.t_end)
        refined = solve(trans, trans.guess_from(sol))
        iterations += refined.iterations
        if not refined.success:
            break
        sol = _verified(model, options, refined)
    if sol.status == STATUS_OPTIMAL and not accepted(sol):
        sol = replace(sol, status=STATUS_UNVERIFIED)
    return replace(sol, iterations=iterations)
