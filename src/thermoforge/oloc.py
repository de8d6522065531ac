"""Variable-final-time optimal flow control of one thermal model.

The model is the whole instance: it carries its configuration's flow
decomposition and heat loads, so a :class:`Transcription` takes only the
model and the solve options.  The state is [node temperatures; independent
branch flows] and the control is the rate of change of the independent
flows.  Time is scaled onto the unit interval (t = tau * t_f) with the final
time a decision variable, the dynamics are enforced by trapezoidal
collocation defects, and the objective maximizes the horizon minus a small
control-smoothness penalty.  The transcribed nonlinear program is solved
by one run of a sparse primal-dual interior-point method
(:func:`_interior_point`, after IPOPT), judged by that run's own status
and constraint violation, using exact first and second derivatives
throughout, and with no variable bounds: the initial temperatures are
pinned by equality rows and every limit is a one-sided row, whose slack
the method keeps positive.  The decision vector is laid out grid point by
grid point, each point with its own copy of the final time tied to its
neighbours' by one linear defect row per segment, so every function and
derivative is stage-local.  The constraints reach the method as one
:class:`StageConstraints` record: the layout, each derivative as dense
stage blocks, and the one-sided rows' nonzeros.  The dynamics are
bilinear in temperatures and flows, so a point's block of the
multiplier-weighted defect Hessian is a final-time border plus one
temperature-by-flow block.

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
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import lapack
from scipy.optimize import OptimizeResult, minimize

from .config import check_fields, finite, integral, overridden
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
    ``feasibility_tol`` bounds both the constraint violation and the scaled
    KKT error at which the interior point stops."""

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


# ---- interior point ------------------------------------------------------------

# first barrier parameter: small, because every solve starts near a feasible
# point and the objective is of order one.  On three members of the
# 17-device population, starting from 1e-2 ends 1.1e-5 to 2.5e-5 (relative)
# lower, and starting from 1e-5 takes fewer iterations but ends one member
# in a local optimum 5.8e-4 lower
_MU0 = 1e-6
_SLACK_FLOOR = 1e-8     # least initial slack of a one-sided row
_KAPPA_EPS = 10.0       # a barrier problem is solved once its error is <= this * mu
_KAPPA_SIGMA = 1e10     # how far a multiplier may stray from mu / s
_S_MAX = 100.0          # multiplier size above which the KKT error is scaled down
_ARMIJO = 1e-4
_ALPHA_MIN = 1e-12      # a step this short is a stall
_SOC_MAX = 4            # second-order corrections of a rejected full step
_Y0_MAX = 1e3           # least-squares multipliers larger than this start at 0
_SINGULAR = ("The KKT matrix is singular, or no shift of its Hessian gives it "
             "the inertia of a minimum.")


def _shaped(what: str, value, shape: tuple) -> np.ndarray:
    """A derivative as a float array of ``shape``, or a ValueError naming it."""
    value = np.asarray(value, dtype=float)
    if value.shape != shape:
        raise ValueError(f"{what} has shape {value.shape}, expected {shape}")
    return value


@dataclass(frozen=True, eq=False)
class StageConstraints:
    """What :func:`_interior_point` takes as its constraints: rows over
    ``stages`` equal stages ``z = [y_0, ..., y_N-1]`` of ``n_y`` entries
    (see :class:`_StageKKT`), the equality rows held at zero."""

    stages: int
    n_y: int
    n_c: int                # equality rows per segment
    n_0: int                # equality rows over y_0
    defects: Callable       # z -> the segments' rows, segment by segment
    defects_jac: Callable   # z -> (stages - 1, n_c, 2 n_y), over [y_k | y_k+1]
    defects_hess: Callable  # (z, v) -> (stages, n_y, n_y), of v . defects
    pins: Callable          # z -> the n_0 rows over y_0
    pins_jac: Callable      # z -> (n_0, n_y)
    pins_hess: Callable     # (z, v) -> (n_y, n_y), of v . pins
    # the one-sided rows A z <= limits: A's nonzeros in row order and, in
    # a row, in column order; a row reads one stage only
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    limits: np.ndarray


class _StageKKT:
    """The condensed KKT matrix ``[[W + dw I, J'], [J, 0]]`` of a problem
    laid out in equal stages ``z = [y_0, ..., y_N-1]``, factored by a
    backward Riccati recursion (Rao, Wright & Rawlings, *J. Optim. Theory
    Appl.* 99, 1998).

    W (the Lagrangian's Hessian plus the slack terms) is one n_y-by-n_y
    block per stage.  J is given as blocks too: n_c rows per segment k,
    ``[C_k | E_k F_k]`` over ``[y_k | y_k+1]``, in segment order, then the
    stage-0 rows' block over y_0.  The first n_c entries of y_k+1 are taken
    as its state s_k+1 and the others as its control u_k+1, so segment k
    reads ``C_k y_k + E_k s_k+1 + F_k u_k+1`` with E_k square.  With E_k
    inverted, s_k+1 is an affine function of y_k and u_k+1.  The sweep then
    eliminates the stages from the last back: eliminating u_k+1 leaves an
    n_u-by-n_u Schur block, and what is left at the end is the stage-0 KKT
    matrix over y_0 and the stage-0 rows.  That one is reduced once more,
    onto the null space of the stage-0 rows, by a QR factorization of their
    block.  The whole matrix then has exactly ``len(J)`` negative
    eigenvalues and none zero (the inertia the interior point asks for)
    exactly when every one of those Schur blocks, the reduced stage-0 block
    included, has a Cholesky factor; with one stage, that reduced block is
    the whole problem's reduced Hessian.

    :meth:`set_jacobian` takes an iterate's Jacobian blocks (which the
    shift dw does not touch), :meth:`factor` sweeps once per shift, and the
    solve it returns runs one backward and one forward pass per right-hand
    side.  Equality rows and multipliers are in the order of the blocks:
    the segments' rows, then the stage-0 rows.
    """

    def __init__(self, stages: int, n_y: int):
        self.stages, self.n_y = stages, n_y
        self._block_0 = None

    def set_jacobian(self, segments: np.ndarray, block_0: np.ndarray) -> bool:
        """Take an iterate's equality Jacobian: the segment blocks, shape
        (stages - 1, n_c, 2 n_y), and the stage-0 rows' block, (n_0, n_y).
        Invert every segment's state block E_k, and factor the stage-0
        block unless it is unchanged.  False when either is singular.

        Each E_k is inverted by LAPACK's getrf and getri: numpy's stacked
        ``inv`` solves every block against the identity, which made the
        17-device solve's 20 blocks of 41 x 41 take 1.7 times as long."""
        ny, n_seg = self.n_y, self.stages - 1
        n_c, n_0 = segments.shape[1], len(block_0)
        self.segments, self.block_0 = segments, block_0
        if n_0 > ny:
            return False
        # the stage-0 rows (the pins of a transcription) are often constant
        if not np.array_equal(block_0, self._block_0):
            q, r = np.linalg.qr(block_0.T, mode="complete")
            r = r[:n_0]
            diagonal = np.abs(np.diagonal(r))
            if diagonal.min(initial=np.inf) <= ny * np.finfo(float).eps * diagonal.max(initial=0.0):
                return False
            self._block_0, self._q_range, self._q_null = block_0, q[:, :n_0], q[:, n_0:]
            self._r_inv = np.linalg.inv(r)
        e_inv = np.empty((n_seg, n_c, n_c))
        for k in range(n_seg):
            lu, pivots, info = lapack.dgetrf(segments[k, :, ny : ny + n_c])
            if info:
                return False
            e_inv[k] = lapack.dgetri(lu, pivots)[0]
        # y_k+1 = T_k [y_k; u_k+1] + [E_k^-1 b_k; 0] on segment k's rows
        t = np.zeros((n_seg, ny, 2 * ny - n_c))
        t[:, :n_c] = -e_inv @ np.concatenate([segments[:, :, :ny], segments[:, :, ny + n_c :]],
                                             axis=2)
        t[:, n_c:, ny:] = np.eye(ny - n_c)
        self._e_inv, self._t = e_inv, t
        return True

    def transpose_product(self, y: np.ndarray) -> np.ndarray:
        """J' y for the blocks of the last :meth:`set_jacobian`, added in
        row order (a multiplier of degenerate active rows is not unique, and
        one of a three-device solve's moved by 2e-3 when J' y was summed in
        another order): each stage's rows over the segment before it, then,
        that partial sum leading with weight 1, those over the one after it."""
        segments, ny = self.segments, self.n_y
        n_seg, n_c, _ = segments.shape
        y_seg = y[: n_seg * n_c].reshape(n_seg, n_c)
        by_stage = np.zeros((self.stages, ny))
        by_stage[1:] = np.einsum("kcj,kc->kj", segments[:, :, ny:], y_seg)
        lead = np.concatenate([by_stage[:-1, None], segments[:, :, :ny]], axis=1)
        by_stage[:-1] = np.einsum("kcj,kc->kj", lead, np.column_stack([np.ones(n_seg), y_seg]))
        by_stage[0] += y[n_seg * n_c :] @ self.block_0
        return by_stage.ravel()

    def factor(self, hessian: np.ndarray, dw: float):
        """The solve function of the matrix whose Hessian blocks are
        ``hessian`` (stages, n_y, n_y) shifted by ``dw``, or None when its
        inertia is wrong.  The solve takes ``[r_z; r_eq]`` and returns
        ``[dz; dy]``, the equality rows in the order of the blocks."""
        ny, n_seg = self.n_y, self.stages - 1
        t, e_inv = self._t, self._e_inv
        n_c = e_inv.shape[1]
        n_u = ny - n_c
        h = hessian + dw * np.eye(ny)
        # the value function of stages k.. is 1/2 y' p[k] y + (linear) in y_k
        p = np.empty_like(h)
        p[-1] = h[-1]
        gain = np.empty((n_seg, n_u, ny))
        schur = np.empty((n_seg, n_u, n_u))
        for k in range(n_seg - 1, -1, -1):
            # [[M'PM, M'PN], [N'PM, N'PN]]; u_k+1 = -S^-1 (X y_k + ...)
            q = t[k].T @ (p[k + 1] @ t[k])
            chol, info = lapack.dpotrf(q[ny:, ny:], lower=1)
            if info:
                return None
            if n_u:
                gain[k] = lapack.dpotrs(chol, q[ny:, :ny], lower=1)[0]
            p[k] = h[k] + q[:ny, :ny] - q[ny:, :ny].T @ gain[k]
            schur[k] = q[ny:, ny:]
        q_null = self._q_null
        reduced = q_null.T @ p[0] @ q_null
        if not np.isfinite(p[0]).all() or lapack.dpotrf(reduced, lower=1)[1]:
            return None
        reduced_inv = np.linalg.inv(reduced)
        # closed loop y_k+1 = A_k y_k + (offsets), and N_k S_k^-1 N_k'
        closed = t[:, :, :ny] - t[:, :, ny:] @ gain
        closed_t = closed.transpose(0, 2, 1).copy()
        coupling = t[:, :, ny:] @ np.linalg.solve(schur, t[:, :, ny:].transpose(0, 2, 1))
        q_range, r_inv, stages = self._q_range, self._r_inv, self.stages
        n, cut = stages * ny, stages * ny + n_seg * n_c

        def solve(rhs: np.ndarray) -> np.ndarray:
            e = np.zeros((n_seg, ny))
            e[:, :n_c] = (e_inv @ rhs[n:cut].reshape(n_seg, n_c, 1))[:, :, 0]
            pe = (p[1:] @ e[:, :, None])[:, :, 0]
            # backward: lin[k], the value function's linear term, and its
            # gradient q[k] = P_k+1 e_k + lin[k + 1] at the offset
            lin = -rhs[:n].reshape(stages, ny)
            q = np.empty((n_seg, ny))
            for k in range(n_seg - 1, -1, -1):
                q[k] = pe[k] + lin[k + 1]
                lin[k] += closed_t[k] @ q[k]
            # stage 0: y_0 = Q_range a + Q_null w with R' a = b_0, w the
            # minimizer on that affine set; then forward
            y = np.empty((stages, ny))
            fixed = q_range @ (r_inv.T @ rhs[cut:])
            y[0] = fixed - q_null @ (reduced_inv @ (q_null.T @ (p[0] @ fixed + lin[0])))
            drift = e - (coupling @ q[:, :, None])[:, :, 0]
            for k in range(n_seg):
                y[k + 1] = closed[k] @ y[k] + drift[k]
            # each multiplier balances the value function's gradient in the
            # state it fixes; the stage-0 rows' balance the rest at y_0
            grad = (p[1:] @ y[1:, :, None])[:, :, 0] + lin[1:]
            step = np.empty(len(rhs))
            step[:n] = y.ravel()
            step[n:cut] = -(e_inv.transpose(0, 2, 1) @ grad[:, :n_c, None]).ravel()
            step[cut:] = -r_inv @ (q_range.T @ (p[0] @ y[0] + lin[0]))
            return step

        return solve


def _step_to_boundary(v: np.ndarray, dv: np.ndarray, tau: float) -> float:
    """Largest step in (0, 1] that keeps v + step dv >= (1 - tau) v."""
    shrink = dv < 0.0
    if not shrink.any():
        return 1.0
    return float(min(1.0, np.min(-tau * v[shrink] / dv[shrink])))


def _one_sided(con: StageConstraints, n: int):
    """A z, A' lam and the stage blocks of A' diag(sigma) A for the
    one-sided rows of ``con`` over n variables, each summed over the
    nonzeros in their order, which gives a CSR matrix's products bit for
    bit.  Entries out of row order or range, or a row that reads two
    stages, are a ValueError."""
    ny, rows, cols, values, n_in = con.n_y, con.rows, con.cols, con.values, len(con.limits)
    row_nnz = np.bincount(rows, minlength=n_in)
    if len(row_nnz) > n_in or np.any(np.diff(rows) < 0) or np.any((cols < 0) | (cols >= n)):
        raise ValueError(f"one-sided entries must be in row order, in {n_in} rows "
                         f"over {n} variables")
    first = np.cumsum(row_nnz) - row_nnz
    stage = cols // ny
    outside = np.flatnonzero(stage != stage[first[rows]])
    if len(outside):
        j = outside[0]
        raise ValueError(f"one-sided row entry ({rows[j]}, {cols[j]}) is in stage "
                         f"{stage[j]}, outside stage {stage[first[rows[j]]]}")
    # a' diag(sigma) a, summed over the pairs (p, q) of entries of each row
    # r; its entry (i, j) sits at i * n_y + j % n_y of the stage blocks
    pair_r = np.repeat(np.arange(n_in), row_nnz**2)
    local = np.arange(len(pair_r)) - np.repeat(np.cumsum(row_nnz**2) - row_nnz**2, row_nnz**2)
    pair_p = first[pair_r] + local // row_nnz[pair_r]
    pair_q = first[pair_r] + local % row_nnz[pair_r]
    pair_values = values[pair_p] * values[pair_q]
    pair_slots = cols[pair_p] * ny + cols[pair_q] % ny
    return (lambda z: np.bincount(rows, weights=values * z[cols], minlength=n_in),
            lambda lam: np.bincount(cols, weights=values * lam[rows], minlength=n),
            lambda sigma: np.bincount(pair_slots, weights=pair_values * sigma[pair_r],
                                      minlength=n * ny).reshape(-1, ny, ny))


def _interior_point(fun, x0, args=(), jac=None, hess=None, hessp=None, constraints=None,
                    bounds=None, callback=None, maxiter=3000, tol=1e-6):
    """A sparse primal-dual barrier method (after IPOPT: Wächter & Biegler,
    *Math. Program.* 106, 2006), called by :func:`scipy.optimize.minimize`
    as a custom ``method``, which hands its ``constraints``, one
    :class:`StageConstraints`, through as given.  ``maxiter`` and ``tol``
    are its options; scipy's ``bounds``, ``hessp`` and ``callback`` must be
    None.  The record declares the layout of x, and every derivative is
    exact and in stage blocks, ``hess`` of the objective one (n_y, n_y)
    block per stage; a layout that does not tile x, a derivative of another
    shape, or a one-sided row outside its stage is a ValueError naming it.

    Each one-sided row ``a x <= b`` gets a slack s > 0 with a multiplier
    lam > 0.  The equality multipliers start at their least-squares
    estimate.  The barrier parameter mu falls monotonically (Fiacco and
    McCormick) each time the barrier problem is solved to within 10 mu, and
    a fraction-to-boundary rule keeps s and lam positive.  Eliminating the
    slacks and their multipliers leaves one symmetric system per iteration,
    the condensed KKT matrix ``[[W + A' S^-1 Lam A + dw I, J'], [J, 0]]``
    (W the Hessian of the Lagrangian, J the Jacobian of every equality
    row), factored stage by stage by a Riccati recursion that also tells
    its inertia: dw is raised until the matrix has exactly ``len(J)``
    negative eigenvalues and no zero one.  Steps are backtracked under a
    filter on the infeasibility and the barrier objective, a full step that
    raised the infeasibility first getting up to four second-order
    corrections.  There is no feasibility restoration phase: a step the
    filter never accepts ends the run.

    Status 1 once the scaled KKT error at mu = 0 and the constraint
    violation are both within ``tol``; 0 after ``maxiter`` iterations; 2
    when the line search finds no acceptable step, and also, with a message
    of its own, when the KKT matrix is singular (a segment's state block or
    the stage-0 rows' block) or no shift up to 1e40 gives it that inertia.
    The multipliers ``v`` are those of the segment rows, the stage-0 rows
    and the one-sided rows, in that order.
    """
    if bounds is not None:
        raise ValueError("pass variable bounds as one-sided rows")
    for name, value in (("hessp", hessp), ("callback", callback)):
        if value is not None:
            raise ValueError(f"{name} is not supported")
    x, con = np.array(x0, dtype=float), constraints
    n, stages, ny, n_c, n_0 = len(x), con.stages, con.n_y, con.n_c, con.n_0
    if stages * ny != n or not 0 <= n_c <= ny:
        raise ValueError(f"{stages} stages of {ny} entries with {n_c} rows per segment "
                         f"do not tile {n} variables")
    kkt = _StageKKT(stages, ny)
    m_seg = (stages - 1) * n_c
    m_eq = m_seg + n_0
    a_in, a_in_t, a_sigma_a = _one_sided(con, n)
    b_in, n_in = con.limits, len(con.limits)

    nfev = njev = 0

    def objective(z):
        nonlocal nfev
        nfev += 1
        return float(fun(z, *args))

    def gradient(z):
        nonlocal njev
        njev += 1
        return np.asarray(jac(z, *args), dtype=float)

    def equalities(z):
        return np.concatenate([_shaped("defect value", con.defects(z), (m_seg,)),
                               _shaped("stage-0 value", con.pins(z), (n_0,))])

    def set_jacobian(z):
        """Hand the equality rows' Jacobian blocks to the KKT matrix."""
        return kkt.set_jacobian(
            _shaped("defect Jacobian", con.defects_jac(z), (stages - 1, n_c, 2 * ny)),
            _shaped("stage-0 Jacobian", con.pins_jac(z), (n_0, ny)))

    def hessian(z, y):
        """The Lagrangian's Hessian blocks at (z, y)."""
        blocks = (_shaped("objective Hessian", hess(z, *args), (stages, ny, ny))
                  + _shaped("defect Hessian", con.defects_hess(z, y[:m_seg]), (stages, ny, ny)))
        blocks[0] += _shaped("stage-0 Hessian", con.pins_hess(z, y[m_seg:]), (ny, ny))
        return blocks

    mu, mu_min = _MU0, tol / 10.0
    s = np.maximum(b_in - a_in(x), _SLACK_FLOOR)
    lam = mu / s
    f, c, g = objective(x), equalities(x), gradient(x)
    invertible = set_jacobian(x)
    # least-squares multipliers: y minimizing |g + J' y + a' lam|, from the
    # same recursion with W = I
    y = np.zeros(m_eq)
    solve = kkt.factor(np.broadcast_to(np.eye(ny), (stages, ny, ny)),
                       0.0) if invertible else None
    if solve is not None:
        y = solve(np.concatenate([-(g + a_in_t(lam)), np.zeros(m_eq)]))[n:]
    if not np.abs(y).max(initial=0.0) <= _Y0_MAX:
        y = np.zeros(m_eq)
    theta0 = np.abs(c).sum() + np.abs(a_in(x) + s - b_in).sum()
    theta_max, theta_min = 1e4 * max(1.0, theta0), 1e-4 * max(1.0, theta0)
    filter_mu = None
    dw_last = 0.0
    nit, status, message = 0, 0, None
    while True:
        r_d = g + kkt.transpose_product(y) + a_in_t(lam)
        r_p = a_in(x) + s - b_in
        violation = max(np.abs(c).max(initial=0.0), (a_in(x) - b_in).max(initial=0.0))
        s_d = max(_S_MAX, (np.abs(y).sum() + lam.sum()) / max(m_eq + n_in, 1)) / _S_MAX
        s_c = max(_S_MAX, lam.sum() / max(n_in, 1)) / _S_MAX

        def kkt_error(mu):
            return max(np.abs(r_d).max(initial=0.0) / s_d, np.abs(c).max(initial=0.0),
                       np.abs(r_p).max(initial=0.0),
                       np.abs(s * lam - mu).max(initial=0.0) / s_c)

        optimality = kkt_error(0.0)
        if optimality <= tol and violation <= tol:
            status = 1
            break
        if nit >= maxiter:
            break
        while mu > mu_min and kkt_error(mu) <= _KAPPA_EPS * mu:
            mu = max(mu_min, min(0.2 * mu, mu**1.5))

        # the condensed KKT matrix, its Hessian blocks shifted by dw until
        # its inertia is right
        sigma = lam / s
        w = hessian(x, y) + a_sigma_a(sigma)
        dw, solve = 0.0, None
        while invertible and dw <= 1e40:
            solve = kkt.factor(w, dw)
            if solve is not None:
                break
            if dw == 0.0:
                dw = 1e-4 if dw_last == 0.0 else max(1e-20, dw_last / 3.0)
            else:
                dw *= 100.0 if dw_last == 0.0 else 8.0
        if solve is None:
            status, message = 2, _SINGULAR
            break
        if dw > 0.0:
            dw_last = dw

        rhs = np.concatenate([-(r_d + a_in_t(sigma * r_p + mu / s - lam)), -c])
        step = solve(rhs)
        dx, dy = step[:n], step[n:]
        ds = -r_p - a_in(dx)
        tau = max(0.99, 1.0 - mu)

        # filter line search on the infeasibility theta and the barrier
        # objective phi (Wächter & Biegler, sections 2.3-2.4)
        theta = np.abs(c).sum() + np.abs(r_p).sum()
        phi = f - mu * np.log(s).sum()
        slope = g @ dx - mu * np.sum(ds / s)
        if mu != filter_mu:
            filter_mu, filter_ = mu, [(theta_max, -np.inf)]

        def switching(alpha):
            return slope < 0.0 and alpha * (-slope) ** 2.3 > theta**1.1

        def attempt(dx, ds, alpha, alpha_test):
            """The trial point and whether it grows the filter, if the
            filter and the current iterate accept it; its equality residual
            either way.  ``alpha_test`` is the step the tests assume."""
            x_try, s_try = x + alpha * dx, s + alpha * ds
            f_try, c_try = objective(x_try), equalities(x_try)
            theta_try = np.abs(c_try).sum() + (1.0 - alpha) * np.abs(r_p).sum()
            phi_try = f_try - mu * np.log(s_try).sum()
            if (not np.isfinite(phi_try)
                    or any(theta_try >= t and phi_try >= p for t, p in filter_)):
                return None, c_try
            armijo = phi_try <= phi + _ARMIJO * alpha_test * slope
            if theta <= theta_min and switching(alpha_test):
                ok = armijo
            else:
                ok = theta_try <= (1.0 - 1e-5) * theta or phi_try <= phi - 1e-8 * theta
            grows = not (armijo and switching(alpha_test))
            return ((x_try, s_try, f_try, c_try, grows) if ok else None), c_try

        alpha_max = alpha = _step_to_boundary(s, ds, tau)
        while alpha >= _ALPHA_MIN:
            accepted, c_try = attempt(dx, ds, alpha, alpha)
            if accepted is not None:
                break
            # second-order corrections of a full step that raised the
            # infeasibility (Maratos): the same factorization, the equality
            # residual corrected for the curvature the step met
            theta_soc = np.abs(c_try).sum()
            c_soc = alpha * c + c_try
            for _ in range(_SOC_MAX if alpha == alpha_max and theta_soc >= theta else 0):
                step = solve(np.concatenate([rhs[:n], -c_soc]))
                ds_soc = -r_p - a_in(step[:n])
                alpha_soc = _step_to_boundary(s, ds_soc, tau)
                accepted, c_try = attempt(step[:n], ds_soc, alpha_soc, alpha_max)
                if accepted is not None:
                    dy, ds, alpha = step[n:], ds_soc, alpha_soc
                    break
                if np.abs(c_try).sum() > 0.99 * theta_soc:
                    break
                theta_soc = np.abs(c_try).sum()
                c_soc = alpha_soc * c_soc + c_try
            if accepted is not None:
                break
            alpha /= 2.0
        if accepted is None:
            status = 2
            break
        dlam = mu / s - lam - sigma * ds
        lam = lam + _step_to_boundary(lam, dlam, tau) * dlam
        x, s, f, c, grows = accepted
        if grows:
            filter_.append(((1.0 - 1e-5) * theta, phi - 1e-8 * theta))
        y = y + alpha * dy
        lam = np.clip(lam, mu / (_KAPPA_SIGMA * s), _KAPPA_SIGMA * mu / s)
        g = gradient(x)
        invertible = set_jacobian(x)
        nit += 1

    messages = {0: "The iteration limit is reached.",
                1: "The KKT error and the constraint violation are within tol.",
                2: "The line search found no acceptable step."}
    return OptimizeResult(x=x, fun=f, status=status, success=status == 1,
                          message=message or messages[status], nit=nit, nfev=nfev,
                          njev=njev, cg_niter=0, constr_violation=violation,
                          optimality=optimality, barrier_parameter=mu,
                          v=[y[:m_seg], y[m_seg:], lam])


def _equal_split_trajectory(model: ThermalModel, options: OlocOptions) -> Trajectory:
    """Forward simulation under the constant equal-split flows, stopped
    where a temperature first reaches the bound (or at the time cap)."""
    return simulate(model, options.initial_state(model),
                    flows=model.physics.flow_map.equal_split, t_end=options.tf_max,
                    tol=1e-8, t_bound=options.t_max)


class Transcription:
    """Trapezoidal direct transcription of the control problem on a model,
    under ``options`` (default :class:`OlocOptions`), on a uniform grid of
    ``segments`` intervals (default: ``options.segments``).  The final
    time is scaled by ``tf_guess``; when it is omitted, the model's
    equal-split simulation sets it, as in :func:`evaluate_endurance`.
    :meth:`constraints` gives the program's constraints as the interior
    point takes them.

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
        if not integral(segments):
            raise ValueError(f"segments must be an integer, not {segments!r}")
        if segments < 2:
            raise ValueError("segments must be at least 2")
        if tf_guess is not None and not (finite(tf_guess) and tf_guess > 0):
            raise ValueError(f"tf_guess must be a finite positive number, not {tf_guess!r}")
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
            # the equal-split endurance, or near the cap if the bound is never met
            event = self._equal_split_run().event_time
            tf_guess = 0.9 * options.tf_max if event is None else max(event, options.tf_min * 1.5)
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

    def objective_hess(self, z: np.ndarray) -> np.ndarray:
        """Exact Hessian, one block per grid point, shape (n_pts, n_y, n_y):
        at each grid point the objective is quadratic in u_k and bilinear in
        (t_k, u_k), and has no other curvature."""
        y = z.reshape(self.n_pts, self.n_y)
        coef = 2.0 * self.lam * self._quad_w[:, None] * self.su**2
        u = 1 + self.n_x + np.arange(self.n_u)
        hess = np.zeros((self.n_pts, self.n_y, self.n_y))
        hess[:, 0, u] = hess[:, u, 0] = coef * y[:, u]
        hess[:, u, u] = coef * y[:, :1]
        return hess

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

    def defects_jac(self, z: np.ndarray) -> np.ndarray:
        """Exact Jacobian, one block of segment k's rows over ``[y_k |
        y_k+1]`` per segment, shape (segments, 1 + n_x, 2 n_y)."""
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
        return blocks

    def defects_hess(self, z: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Exact Hessian of v . defects(z) in the scaled variables, one
        block per grid point, shape (n_pts, n_y, n_y).

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
        nt, nx = self.n_temp, self.n_x
        mu = v.reshape(self.segments, 1 + nx)[:, 1:] / self.sx
        m = np.zeros((self.n_pts, nx))
        m[:-1] += mu
        m[1:] += mu
        hh = -self.h / 2.0
        hess = np.zeros((self.n_pts, self.n_y, self.n_y))
        hess[:, 0, 1:] = hess[:, 1:, 0] = hh * (np.einsum("kij,ki->kj", jac, m)
                                                * (self.s_tf * self.sy[1:]))
        hess[:, 1 : 1 + nt, 1 + nt : 1 + nx] = hh * (
            tf[:, None, None] * self.model.cross_hessian(m[:, :nt])
            * np.outer(self.sx[:nt], self.sx[nt:]))
        hess[:, 1 + nt : 1 + nx, 1 : 1 + nt] = hess[:, 1 : 1 + nt, 1 + nt : 1 + nx].transpose(0, 2, 1)
        return hess

    # ---- constraints ------------------------------------------------------------

    def constraints(self) -> StageConstraints:
        """Every constraint of the program, built once per grid: the
        defects (whose first row per segment ties the final-time copies),
        stage-0 rows pinning the initial temperatures (as two one-sided
        rows, a pin would squeeze a pair of slacks to zero), and one-sided
        rows ``A z <= b`` for tf_min <= t_0 <= tf_max and, at every grid
        point, T <= t_max, 0 <= x <= pump, |u| <= u_max and 0 <= M x +
        offset <= pump for the dependent flows.  Each keeps a positive slack
        in every iterate, so a step along the exact Hessian's negative
        curvature cannot carry the final time below zero, where scaled time
        runs backwards."""
        o = self.options
        nt, nx, ny, n_pts = self.n_temp, self.n_x, self.n_y, self.n_pts
        fm = self.model.physics.flow_map
        # the pinned values follow t_0 in y_0
        pinned = o.initial_state(self.model) / self.sx[:nt]
        pin_block = np.eye(nt, ny, k=1)

        # one block per grid point over its y; none reads the time copy
        eye = np.eye(ny)
        dep = np.zeros((len(fm.dependent), ny))
        dep[:, 1 + nt : 1 + nx] = fm.m_matrix * self.sx[nt:]
        block = np.vstack([eye[1 : 1 + nx], -eye[1 + nt : 1 + nx], eye[1 + nx :],
                           -eye[1 + nx :], dep, -dep])
        limit = np.concatenate([o.t_max / self.sx[:nt], self._pump / self.sx[nt:],
                                np.zeros(self.n_u), np.tile(o.u_max / self.su, 2),
                                self._pump - fm.m_offset, fm.m_offset])
        # grid point 0's rows that read only pinned values are constant;
        # kept, they let the 17-device solve stop 0.4% short of its endurance
        keep = np.ones((n_pts, len(block)), dtype=bool)
        keep[0] = np.any(block[:, 1 + nt :] != 0.0, axis=1)
        # the kept rows' nonzeros in row order, after the two t_0 rows
        point, r, c = np.nonzero(keep[:, :, None] & (block != 0.0))
        return StageConstraints(
            stages=n_pts, n_y=ny, n_c=1 + nx, n_0=nt,
            defects=self.defects, defects_jac=self.defects_jac, defects_hess=self.defects_hess,
            pins=lambda z: z[1 : 1 + nt] - pinned, pins_jac=lambda z: pin_block,
            pins_hess=lambda z, v: np.zeros((ny, ny)),
            rows=np.concatenate([[0, 1], 1 + np.cumsum(keep)[point * len(block) + r]]),
            cols=np.concatenate([[0, 0], point * ny + c]),
            values=np.concatenate([[1.0, -1.0], block[r, c]]),
            limits=np.concatenate([[o.tf_max / self.s_tf, -o.tf_min / self.s_tf],
                                   np.broadcast_to(limit, keep.shape)[keep]]))

    # ---- initial guess ---------------------------------------------------------

    def _equal_split_run(self) -> Trajectory:
        """The model's equal-split simulation, run at most once per grid."""
        if self._equal_split is None:
            self._equal_split = _equal_split_trajectory(self.model, self.options)
        return self._equal_split

    def _equal_split_grid(self, tf: float):
        """Grid states and resting controls at the grid's times on [0, tf]:
        the equal-split trajectory sampled exactly (holding its last state
        past its stop) and the equal-split flows."""
        traj = self._equal_split_run()
        temps = traj.at(np.minimum(np.linspace(0.0, tf, self.n_pts), traj.t_stop))
        flows = np.tile(self.model.physics.flow_map.equal_split, (self.n_pts, 1))
        return np.concatenate([temps, flows], axis=1), np.zeros((self.n_pts, self.n_u))

    def initial_guess(self) -> np.ndarray:
        """Build a starting point with equal flow splits and resting controls.

        The temperatures sample the model's equal-split trajectory (the
        simulation that set an omitted ``tf_guess`` is reused), so the
        defects start near zero.
        """
        o = self.options
        event = self._equal_split_run().event_time
        tf = 0.9 * o.tf_max if event is None else max(0.998 * event, o.tf_min)
        return self.pack(tf, *self._equal_split_grid(tf))

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
    # interior-point iterations summed over every NLP run made for this
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
        line = ",".join(["%.6f"] * (rows.shape[1] - controls.shape[1])
                        + ["%.8f"] * controls.shape[1]) + "\r\n"
        # one format call for the whole array writes what np.savetxt's row
        # loop writes, byte for byte
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            fh.write(line * len(rows) % tuple(rows.ravel().tolist()))


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
        state_names=model.physics.names,
        n_temp=n_temp,
        wall_arrival_spread=spread,
        constraint_violation=float(violation),
        iterations=iterations,
        segments=len(states) - 1,
    )


def solve(trans: Transcription, z0: np.ndarray | None = None) -> OlocSolution:
    """Solve the transcribed program on its one grid: one interior-point
    run on its :meth:`~Transcription.constraints`, called through
    :func:`scipy.optimize.minimize` (one call per run, which the benchmark
    counts), and judged by the run's own status and constraint violation.

    The violation is the run's ``constr_violation``, the largest
    ``|c|`` of an equality row or ``a z - b`` of a one-sided row at the
    returned point.  A converged or stalled stop (status 1 or 2) within
    ``feasibility_tol`` is optimal, an iteration-limit stop within it is
    feasible, and a stop outside it is infeasible: a recorded failure, not
    a cue for a second run."""
    o = trans.options
    if z0 is None:
        z0 = trans.initial_guess()

    res = minimize(
        trans.objective,
        z0,
        jac=trans.objective_grad,
        hess=trans.objective_hess,
        method=_interior_point,
        constraints=trans.constraints(),
        options={"tol": o.feasibility_tol, "maxiter": o.max_iterations},
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
                           success, res.constr_violation, res.nit)


def _verified(model: ThermalModel, options: OlocOptions,
              sol: OlocSolution) -> OlocSolution:
    """``sol`` with the endurance its flow schedule actually reaches: an
    independent Taylor-series re-simulation (tol 1e-9) over twice ``t_end``,
    stopped where a temperature reaches ``t_max``.  Without that event the
    verified endurance is NaN and the gap infinite."""
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
    trans = Transcription(model, options)
    traj = trans._equal_split_run()
    if traj.event_time is None or model.n_flows == 0:
        if traj.event_time is None:
            tf, status, success = options.tf_max, STATUS_CAPPED, True
        elif traj.event_time < options.tf_min:
            tf, status, success = traj.event_time, STATUS_INFEASIBLE, False
        else:
            tf, status, success = traj.event_time, STATUS_OPTIMAL, True
        states, controls = trans._equal_split_grid(tf)
        sol = _build_solution(model, options, tf, states, controls, 0.0, status,
                              success, 0.0, 0)
        if traj.event_time is None:
            return sol
        return replace(sol, verified_t_end=sol.t_end, verification_gap=0.0)

    def accepted(sol):
        return abs(sol.verification_gap) <= options.refine_rtol

    segments = options.segments
    sol = solve(trans)
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
