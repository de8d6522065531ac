"""Variable-final-time optimal flow control of one thermal model.

The model is the whole instance: it carries its configuration's flow
decomposition and heat loads, so a :class:`Transcription` takes only the
model and the solve options.  The state is [node temperatures; independent
branch flows] and the control is the rate of change of the independent
flows.  Time is scaled onto the unit interval (t = tau * t_f) with the final
time a decision variable, the dynamics are enforced by trapezoidal
collocation defects, and the objective maximizes the horizon minus a small
control-smoothness penalty.  The transcribed nonlinear program is solved
by one run of an interior-point iteration (scipy's trust-constr), judged by
that run's own status and constraint violation, using exact sparse first
and second derivatives throughout, and with no variable bounds: the
initial temperatures are pinned by equality rows and every limit is a
one-sided row, the forms trust-constr takes without conversion.  The
decision vector is laid out grid point by grid point, each point with its
own copy of the final time tied to its neighbours' by one linear defect row
per segment, so every function and derivative is stage-local: the defect
Jacobian is one block per segment over its two grid points, and both
Hessians are one block per grid point.  The dynamics are bilinear in
temperatures and flows, so a point's block of the multiplier-weighted
defect Hessian is a final-time border plus one temperature-by-flow block.

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
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse
from scipy.optimize import LinearConstraint, NonlinearConstraint, minimize

from .config import check_fields, overridden
from .thermal import PiecewiseLinearFlows, ThermalModel, Trajectory, interp_columns, simulate

STATUS_OPTIMAL = "optimal"
STATUS_FEASIBLE = "max_iterations_feasible"
STATUS_INFEASIBLE = "infeasible"
STATUS_CAPPED = "endurance unbounded at cap"
# a converged solution whose re-simulated schedule misses its endurance by
# more than refine_rtol on the last grid tried: still ranked, but its
# endurance carries that grid's discretization error
STATUS_UNVERIFIED = "optimal_unverified"
# rows of a trajectory CSV, which is resampled in memory before it is written
MAX_DENSE_POINTS = 10**6


@dataclass(frozen=True)
class OlocOptions:
    """Knobs of the optimal-control solve (defaults follow the study setup);
    ``feasibility_tol`` is also trust-constr's ``gtol``."""

    segments: int = 50
    t_max: float = 45.0            # deg C, upper bound on every temperature
    u_max: float = 0.05            # kg/s^2, valve rate limit
    tf_min: float = 1.0            # s
    tf_max: float = 10000.0        # s
    feasibility_tol: float = 1e-6
    max_iterations: int = 2000
    mesh_refinements: int = 3
    refine_rtol: float = 0.002
    t_wall_initial: float = 20.0
    t_fluid_initial: float = 20.0
    t_loop_initial: float = 15.0
    dense_points: int = 201

    def __post_init__(self):
        # the kinds first: "20" < 2 raises TypeError
        check_fields(self)
        for name, least in (("segments", 2), ("max_iterations", 1),
                            ("mesh_refinements", 0), ("dense_points", 2)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}")
        if self.dense_points > MAX_DENSE_POINTS:
            raise ValueError(f"dense_points must be at most {MAX_DENSE_POINTS}")
        if not 0 < self.tf_min < self.tf_max:
            raise ValueError("need 0 < tf_min < tf_max")
        for name in ("u_max", "feasibility_tol", "refine_rtol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
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

    @classmethod
    def from_json(cls, text: str) -> "OlocOptions":
        return overridden(cls(), json.loads(text), "OLOC options")


def _equal_split_trajectory(model: ThermalModel, options: OlocOptions) -> Trajectory:
    """Forward simulation under the constant equal-split flows, stopped
    where a temperature first reaches the bound (or at the time cap)."""
    return simulate(model, options.initial_state(model),
                    flows=model.physics.flow_map.equal_split, t_end=options.tf_max,
                    tol=1e-8, t_bound=options.t_max)


def _tf_guess(traj: Trajectory, options: OlocOptions) -> float:
    """Final-time guess of a first solve: the equal-split endurance, or the
    initial guess's time near the cap when the bound is never reached."""
    if traj.event_time is None:
        return 0.9 * options.tf_max
    return max(traj.event_time, options.tf_min * 1.5)


def _block_pattern(take: np.ndarray, count: int, stride: int):
    """CSR pattern of ``count`` blocks of ``len(take)`` rows each, block k
    starting at column ``k * stride``: ``take[r, c]`` is where entry (r, c)
    of a block sits in that block's values, -1 outside the pattern.
    Returns the value index, column index and row pointer arrays."""
    r, c = np.nonzero(take >= 0)
    indices = (np.arange(count)[:, None] * stride + c).ravel()
    row_nnz = np.tile(np.bincount(r, minlength=len(take)), count)
    return take[r, c], indices, np.concatenate([[0], np.cumsum(row_nnz)])


class Transcription:
    """Trapezoidal direct transcription of the control problem on a model,
    under ``options`` (default :class:`OlocOptions`), on a uniform grid of
    ``segments`` intervals (default: ``options.segments``).  The final
    time is scaled by ``tf_guess``; when it is omitted, the model's
    equal-split simulation sets it, as in :func:`evaluate_endurance`.

    Decision vector (internally scaled to order one), in stage order:
    ``z = [y_0, ..., y_N]`` with ``y_k = [t_k; T_k; x_k; u_k]``, the state
    and control at grid point k led by that point's own copy t_k of the
    final time.  The copies obey dt/dtau = 0, so each segment's first
    defect row is ``t_k+1 - t_k`` and a feasible point has one final time;
    ``z[0]`` is the copy that carries the final-time bounds.  Every
    function and derivative is then local: segment k's defects depend on
    ``[y_k | y_k+1]`` only, and both Hessians are one block per grid point.
    """

    def __init__(self, model: ThermalModel, options: OlocOptions | None = None,
                 segments: int | None = None, tf_guess: float | None = None):
        options = options or OlocOptions()
        self._equal_split = None
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
        self.n_y = ny = 1 + nx + nu
        self.n_pts = segments + 1
        self.h = 1.0 / segments
        if tf_guess is None:
            tf_guess = _tf_guess(self._equal_split_run(), options)
        self.tf_guess = float(tf_guess)

        self._pump = model.params.pump_flow

        # scaling: final time ~ its initial guess, temperatures ~ tens of
        # degC, flows ~ pump rate, controls ~ rate limit
        self.s_tf = max(self.tf_guess, 10.0)
        self.sx = np.concatenate([np.full(nt, 10.0), np.full(nu, self._pump)])
        self.su = np.full(nu, options.u_max)
        self.sy = np.concatenate([[self.s_tf], self.sx, self.su])
        self.n_z = self.n_pts * ny
        # trapezoid weights of the objective's quadrature over tau
        self._quad_w = np.full(self.n_pts, self.h)
        self._quad_w[[0, -1]] = self.h / 2.0
        self._cache_key = None
        self._cache_val = None
        self._cache_jac = None

        # the patterns of d f / d[T, x, u] and of the cross term are fixed
        # by the model; one evaluation at random values finds both
        rng = np.random.default_rng(0)
        temps = rng.uniform(10.0, 40.0, (1, nt))
        flows = model.flow_vector(rng.uniform(0.0, self._pump, (1, nu)))
        dyn = self._dynamics_jac(temps, flows)[0] != 0.0
        cross = model.cross_hessian(rng.standard_normal((1, nt)))[0] != 0.0

        # CSR pattern of the defect Jacobian: segment k's rows are the tie
        # of its two final-time copies, then n_x state rows, over [y_k |
        # y_k+1]; a state row holds d f / d y (t_k's column included) and
        # the unit entry of x_k+1 - x_k.  Its values are the dense block's.
        half = np.zeros((1 + nx, ny), dtype=bool)
        half[:, 0] = True
        half[1:, 1:] = dyn | np.eye(nx, ny - 1, dtype=bool)
        block = np.hstack([half, half])
        self._jac_pattern = _block_pattern(
            np.where(block, np.arange(block.size).reshape(block.shape), -1), segments, ny)

        # CSR patterns of both Hessians, one block over y_k per grid point.
        # Defects: values [t_k-by-[T, x, u] border | T-by-x cross block]
        take = np.full((ny, ny), -1)
        take[0, 1:] = take[1:, 0] = np.arange(ny - 1)
        take[1 : 1 + nt, 1 + nt : 1 + nx] = np.where(
            cross, ny - 1 + np.arange(nt * nu).reshape(nt, nu), -1)
        take[1 + nt : 1 + nx, 1 : 1 + nt] = take[1 : 1 + nt, 1 + nt : 1 + nx].T
        self._defects_hess_pattern = _block_pattern(take, self.n_pts, ny)
        # objective: values [t_k-by-u_k | u_k diagonal]
        take = np.full((ny, ny), -1)
        u = 1 + nx + np.arange(nu)
        take[0, u] = take[u, 0] = np.arange(nu)
        take[u, u] = nu + np.arange(nu)
        self._objective_hess_pattern = _block_pattern(take, self.n_pts, ny)

    def _matrix(self, pattern, values: np.ndarray, n_rows: int) -> sparse.csr_matrix:
        """The matrix of a :func:`_block_pattern`, one row of ``values`` per
        block."""
        take, indices, indptr = pattern
        return sparse.csr_matrix((values[:, take].ravel(), indices, indptr),
                                 shape=(n_rows, self.n_z))

    # ---- decision-vector layout -------------------------------------------

    def pack(self, tf, states: np.ndarray, controls: np.ndarray) -> np.ndarray:
        """z from the final time (one value, or one copy per grid point) and
        the grid states and controls, in physical units."""
        y = np.column_stack([np.broadcast_to(tf, self.n_pts), states, controls])
        return (y / self.sy).ravel()

    def unpack(self, z: np.ndarray):
        """The final-time copies, states and controls at the grid points."""
        y = z.reshape(self.n_pts, self.n_y) * self.sy
        return y[:, 0], y[:, 1 : 1 + self.n_x], y[:, 1 + self.n_x :]

    # ---- dynamics at the grid points ----------------------------------------

    def _dynamics_jac(self, temps: np.ndarray, w: np.ndarray) -> np.ndarray:
        """d f / d[T, x, u] at a batch of m points, shape (m, n_x, n_y - 1);
        its control block is the constant [0; I]."""
        nt, nx = self.n_temp, self.n_x
        jac = np.zeros((len(temps), nx, self.n_y - 1))
        jac[:, :nt, :nt], jac[:, :nt, nt:nx] = self.model.jacobian(temps, w)
        jac[:, nt:, nx:] = np.eye(self.n_u)
        return jac

    def _eval(self, z: np.ndarray):
        """Unpacked z with the flow vectors and f(x, u) at the grid points,
        cached for the last z."""
        key = z.tobytes()
        if key != self._cache_key:
            tf, states, controls = self.unpack(z)
            w = self.model.flow_vector(states[:, self.n_temp :])
            f = np.concatenate([self.model.derivative(states[:, : self.n_temp], w),
                                controls], axis=1)
            self._cache_key = key
            self._cache_val = (tf, states, w, f)
            self._cache_jac = None
        return self._cache_val

    def _jac(self, z: np.ndarray) -> np.ndarray:
        """d f / d[T, x, u] at the grid points, computed only when a
        derivative asks for it and cached with :meth:`_eval`."""
        _, states, w, _ = self._eval(z)
        if self._cache_jac is None:
            self._cache_jac = self._dynamics_jac(states[:, : self.n_temp], w)
        return self._cache_jac

    # ---- objective -----------------------------------------------------------

    def _penalty_quadrature(self, controls: np.ndarray) -> float:
        """Trapezoidal integral of |u|^2 over tau in [0, 1]."""
        sq = (controls**2).sum(axis=1)
        return float(self._quad_w @ sq)

    def objective(self, z: np.ndarray) -> float:
        """sum_k w_k t_k (-1 + lam |u_k|^2): the endurance, negated, plus the
        control penalty, once the final-time copies agree."""
        tf, _, controls = self.unpack(z)
        sq = (controls**2).sum(axis=1)
        return float(self._quad_w @ (tf * (-1.0 + self.lam * sq))) / self.s_tf

    def objective_grad(self, z: np.ndarray) -> np.ndarray:
        tf, _, controls = self.unpack(z)
        g = np.zeros((self.n_pts, self.n_y))
        g[:, 0] = self._quad_w * (-1.0 + self.lam * (controls**2).sum(axis=1))
        g[:, 1 + self.n_x :] = ((2.0 * self.lam / self.s_tf) * (self._quad_w * tf)[:, None]
                                * controls * self.su)
        return g.ravel()

    def objective_hess(self, z: np.ndarray) -> sparse.csr_matrix:
        """Exact Hessian: at each grid point the objective is quadratic in
        u_k and bilinear in (t_k, u_k), and has no other curvature."""
        y = z.reshape(self.n_pts, self.n_y)
        coef = 2.0 * self.lam * self._quad_w[:, None] * self.su**2
        values = np.concatenate([coef * y[:, 1 + self.n_x :], coef * y[:, :1]], axis=1)
        return self._matrix(self._objective_hess_pattern, values, self.n_z)

    # ---- collocation defects ---------------------------------------------------

    @property
    def n_defects(self) -> int:
        return self.segments * (1 + self.n_x)

    def defects(self, z: np.ndarray) -> np.ndarray:
        """Per segment, ``t_k+1 - t_k`` and ``x_k+1 - x_k - (h / 2) (t_k f_k
        + t_k+1 f_k+1)``, scaled."""
        tf, states, _, f = self._eval(z)
        tf_f = tf[:, None] * f
        d = np.empty((self.segments, 1 + self.n_x))
        d[:, 0] = np.diff(tf) / self.s_tf
        d[:, 1:] = (states[1:] - states[:-1]
                    - (self.h / 2.0) * (tf_f[:-1] + tf_f[1:])) / self.sx
        return d.ravel()

    def defects_jac(self, z: np.ndarray) -> sparse.csr_matrix:
        tf, _, _, f = self._eval(z)
        jac = self._jac(z)
        nx, ny = self.n_x, self.n_y
        hh = self.h / 2.0
        inv_sx = (1.0 / self.sx)[:, None]
        # scaled d(t_k f_k) / d y_k at every grid point, (n_pts, n_x, n_y)
        g = np.empty((self.n_pts, nx, ny))
        g[:, :, 0] = f * self.s_tf
        g[:, :, 1:] = tf[:, None, None] * jac * self.sy[1:]
        g *= -hh * inv_sx
        step = np.eye(nx, ny, k=1)
        blocks = np.zeros((self.segments, 1 + nx, 2 * ny))
        blocks[:, 0, 0], blocks[:, 0, ny] = -1.0, 1.0
        blocks[:, 1:, :ny] = g[:-1] - step
        blocks[:, 1:, ny:] = g[1:] + step
        return self._matrix(self._jac_pattern, blocks.reshape(self.segments, -1),
                            self.n_defects)

    def defects_hess(self, z: np.ndarray, v: np.ndarray) -> sparse.csr_matrix:
        """Exact Hessian of v . defects(z) in the scaled variables.

        The ties are linear.  Segment k's state rows contribute mu_k .
        (x_k+1 - x_k) - (h / 2) mu_k . (t_k f_k + t_k+1 f_k+1) with mu_k = v_k
        / sx, so grid point k's only curvature is that of -(h / 2) t_k m_k .
        f_k, m_k the sum of the multipliers of its two adjacent segments:
        t_k-by-y_k entries -(h / 2) m_k' df/dy and, f being bilinear, one
        T-by-x block, -(h / 2) t_k times the constant cross term of
        :meth:`ThermalModel.cross_hessian` at m_k.
        """
        tf = self._eval(z)[0]
        jac = self._jac(z)
        nt = self.n_temp
        mu = v.reshape(self.segments, 1 + self.n_x)[:, 1:] / self.sx
        m = np.zeros((self.n_pts, self.n_x))
        m[:-1] += mu
        m[1:] += mu
        border = np.einsum("kij,ki->kj", jac, m) * (self.s_tf * self.sy[1:])
        cross = (tf[:, None] * self.model.cross_hessian(m[:, :nt]).reshape(self.n_pts, -1)
                 * np.outer(self.sx[:nt], self.sx[nt:]).ravel())
        values = -(self.h / 2.0) * np.concatenate([border, cross], axis=1)
        return self._matrix(self._defects_hess_pattern, values, self.n_z)

    # ---- linear constraints ----------------------------------------------------

    def linear_constraints(self) -> tuple[LinearConstraint, LinearConstraint]:
        """Every linear constraint of the program but the final-time ties,
        built once per grid in the two forms trust-constr takes without
        conversion (the ties are the first defect row of each segment).

        Equality rows pin the initial temperatures; as ``lb == ub`` bounds,
        widened by scipy to a 2-ulp interval, each would be two inequality
        rows the interior point spends many iterations on.  One-sided rows
        ``A z <= b`` hold tf_min <= t_0 <= tf_max and, at every grid point,
        T <= t_max, 0 <= x <= pump, |u| <= u_max and 0 <= M x + offset <=
        pump for the dependent flows.
        """
        o = self.options
        nt, nx, ny = self.n_temp, self.n_x, self.n_y
        fm = self.model.physics.flow_map
        # the pinned values follow t_0 in y_0
        pinned = o.initial_state(self.model) / self.sx[:nt]
        a_eq = sparse.eye(nt, self.n_z, k=1, format="csr")

        # one block per grid point over its y; none reads the time copy
        eye = np.eye(ny)
        dep = np.zeros((len(fm.dependent), ny))
        dep[:, 1 + nt : 1 + nx] = fm.m_matrix * self.sx[nt:]
        block = np.vstack([eye[1 : 1 + nx], -eye[1 + nt : 1 + nx], eye[1 + nx :],
                           -eye[1 + nx :], dep, -dep])
        limit = np.concatenate([o.t_max / self.sx[:nt], self._pump / self.sx[nt:],
                                np.zeros(self.n_u), np.tile(o.u_max / self.su, 2),
                                self._pump - fm.m_offset, fm.m_offset])
        a = sparse.kron(sparse.identity(self.n_pts), sparse.csr_matrix(block), format="csr")
        # grid point 0's rows that read only pinned values are constant;
        # kept, they let the 17-device solve stop 0.4% short of its endurance
        keep = np.ones(a.shape[0], dtype=bool)
        keep[: len(block)] = np.any(block[:, 1 + nt :] != 0.0, axis=1)
        t0_rows = sparse.csr_matrix(([1.0, -1.0], ([0, 1], [0, 0])), shape=(2, self.n_z))
        a = sparse.vstack([t0_rows, a[keep]], format="csr")
        b = np.concatenate([[o.tf_max / self.s_tf, -o.tf_min / self.s_tf],
                            np.tile(limit, self.n_pts)[keep]])
        # every iterate keeps t_0 within its limits: the exact Lagrangian
        # Hessian is indefinite, and a step along its negative curvature
        # can otherwise carry the final time below zero, where scaled time
        # runs backwards and the iteration stalls at an infeasible point
        keep_t0 = np.arange(len(b)) < 2
        return (LinearConstraint(a_eq, pinned, pinned),
                LinearConstraint(a, -np.inf, b, keep_feasible=keep_t0))

    # ---- initial guess ---------------------------------------------------------

    def _equal_split_run(self) -> Trajectory:
        """The model's equal-split simulation, run at most once per grid."""
        if self._equal_split is None:
            self._equal_split = _equal_split_trajectory(self.model, self.options)
        return self._equal_split

    def initial_guess(self, traj: Trajectory | None = None) -> np.ndarray:
        """Build a starting point with equal flow splits and resting controls.

        The temperatures sample the model's equal-split trajectory (pass
        one already simulated to skip the simulation; without one, the
        simulation that set an omitted ``tf_guess`` is reused), so the
        defects start near zero.
        """
        o = self.options
        eq = self.model.physics.flow_map.equal_split
        tau = np.linspace(0.0, 1.0, self.n_pts)
        if traj is None:
            traj = self._equal_split_run()
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
            # a status-1 stop needs the constraint violation below gtol
            # too, so gtol is the feasibility tolerance
            "gtol": o.feasibility_tol,
            "xtol": 1e-10,
            "maxiter": o.max_iterations,
            "sparse_jacobian": True,
            # a gentle first barrier step; the default 0.1 lets the
            # interior point leave the near-feasible initial guess and
            # diverge on series-heavy configurations
            "initial_barrier_parameter": 0.01,
        },
    )
    tfs, states, controls = trans.unpack(res.x)
    # the copies are tied to within the feasibility tolerance; the first
    # is the one the final-time bounds hold
    tf = tfs[0]
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
        flows = np.tile(model.physics.flow_map.equal_split, (n_pts, 1))
        states = np.concatenate([temps, flows], axis=1)
        controls = np.zeros((n_pts, model.n_flows))
        sol = _build_solution(model, options, tf, states, controls, 0.0, status,
                              success, 0.0, 0)
        if traj.event_time is None:
            return sol
        return replace(sol, verified_t_end=sol.t_end, verification_gap=0.0)

    def accepted(sol):
        return abs(sol.verification_gap) <= options.refine_rtol

    segments = options.segments
    trans = Transcription(model, options, segments, tf_guess=_tf_guess(traj, options))
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
