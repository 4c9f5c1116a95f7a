"""Rothe time stepping of the penalized system on the Q1 grid.

Each step solves the nonlinear discrete equilibrium for the nodal
displacement with the stress given by the pointwise backward-Euler
update of the strain increment, using Newton iterations with the
consistent tangent and a backtracking line search.  Energy diagnostics
mirroring the a-priori estimates (penalty energy, dissipation sums,
suprema of the backward-difference rates) are accumulated during the
run so that mu-sweeps do not have to keep full field histories.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import constitutive, tensors
from .constitutive import (ConstitutiveState, MaterialParams, local_update,
                           consistent_tangent, yield_excess)
from .fem import CG_RTOL, Grid

NEWTON_MAX_ITER = 50
NEWTON_RTOL = 1e-10
# cap of the inexact-Newton forcing term: a plastic tangent is solved to
# eta = max(CG_RTOL, min(FORCING_MAX, |r| / scale)) relative accuracy
# (Dembo, Eisenstat & Steihaug 1982; Eisenstat & Walker 1996)
FORCING_MAX = 1e-2


class GlobalSolverError(RuntimeError):
    """Newton failed at some time step; carries diagnostics."""

    def __init__(self, message, step_index=None, iterations=None, residual=None):
        super().__init__(message)
        self.step_index = step_index
        self.iterations = iterations
        self.residual = residual


# every failure of the solvers inside run(): LinAlgError comes from a
# singular elastic factorization or a CG solve that did not converge
SOLVER_ERRORS = (GlobalSolverError, constitutive.LocalSolverError,
                 np.linalg.LinAlgError)


@dataclass
class EnergyReport:
    """Discrete energy diagnostics and the Newton record of a trajectory.

    Arrays indexed by time level (length N+1) or by step (length N).
    newton_iters and residual_rel (the final |r| / scale) are recorded
    by run() only; a report recomputed from a history leaves them empty.
    """

    times: np.ndarray
    e_pen: np.ndarray
    overshoot_linf: np.ndarray
    overshoot_l2: np.ndarray
    sigdot_l2: np.ndarray
    xidot_l2: np.ndarray
    udot_h1: np.ndarray
    dissipation_cum: np.ndarray
    newton_iters: np.ndarray
    residual_rel: np.ndarray

    @property
    def sup_sigdot(self) -> float:
        return float(self.sigdot_l2.max()) if self.sigdot_l2.size else 0.0

    @property
    def sup_xidot(self) -> float:
        return float(self.xidot_l2.max()) if self.xidot_l2.size else 0.0

    @property
    def sup_udot_h1(self) -> float:
        return float(self.udot_h1.max()) if self.udot_h1.size else 0.0

    @property
    def dissipation_total(self) -> float:
        return float(self.dissipation_cum[-1]) if self.dissipation_cum.size else 0.0

    def uniform_bound_lhs(self) -> float:
        """E_pen(T) + dissipation, the mu-uniform quantity of the estimates."""
        return float(self.e_pen[-1]) + self.dissipation_total


@dataclass
class FieldHistory:
    """Full space-time record of a run on the Rothe grid."""

    times: np.ndarray
    u: np.ndarray                       # (N+1, nnodes, d)
    sigma: np.ndarray                   # (N+1, ncells, nqp, m)
    xi: np.ndarray                      # (N+1, ncells, nqp[, m])
    ep: np.ndarray
    grid: Grid = field(repr=False)
    params: MaterialParams = field(repr=False)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def state_at(self, k: int) -> ConstitutiveState:
        return ConstitutiveState(self.sigma[k], self.xi[k], self.ep[k])

    def on_cells(self, arr: np.ndarray, region=None) -> np.ndarray:
        """arr's levels on a box of cells, (Nt, *box, ...), as a view.

        region holds one cell slice per grid axis; None gives arr as is.
        """
        if region is None:
            return arr
        shaped = arr.reshape(arr.shape[:1] + self.grid.cell_counts
                             + arr.shape[2:])
        return shaped[(slice(None),) + tuple(region)]

    def _rate(self, arr: np.ndarray, region=None) -> np.ndarray:
        """Backward-difference rate on region, built in one fresh array."""
        arr = self.on_cells(arr, region)
        out = arr[1:] - arr[:-1]
        out /= self.dt
        return out

    def sigma_dot(self, region=None) -> np.ndarray:
        return self._rate(self.sigma, region)

    def xi_dot(self, region=None) -> np.ndarray:
        return self._rate(self.xi, region)

    def u_dot(self) -> np.ndarray:
        return self._rate(self.u)

    def grad_u_dot(self, region=None) -> np.ndarray:
        """(N, ncells, nqp, d, d) gradients of the backward-difference rates.

        Given a region (see on_cells), the gradients of its cells only,
        as (N, *box, nqp, d, d).  Each level forms its own u rate.
        """
        grid = self.grid
        cells, box = None, (grid.ncells,)
        if region is not None:
            cells = np.arange(grid.ncells).reshape(grid.cell_counts)[
                tuple(region)]
            box = cells.shape
            cells = cells.ravel()
        out = np.empty((len(self.times) - 1,) + box
                       + (grid.nqp, grid.d, grid.d))
        rows = out.reshape(out.shape[0], -1, grid.nqp, grid.d, grid.d)
        for k in range(out.shape[0]):
            ud = self.u[k + 1] - self.u[k]
            ud /= self.dt
            rows[k] = grid.gradient(ud, cells)
        return out


def initial_stress(grid: Grid, data, t: float = 0.0) -> np.ndarray:
    """sigma0(t) at the quadrature points, (ncells, nqp, m).

    Only set-up reads it (a step reads sigma0 on the Neumann face), so
    it is evaluated on a writeable copy of the points, which the data
    generator's profile memo does not keep.
    """
    sigma0 = data.sigma0(t, np.array(grid.qp_points))
    return sigma0.reshape(grid.ncells, grid.nqp, grid.m)


def initial_state(grid: Grid, params: MaterialParams, data, sigma0=None):
    """Initial nodal displacement and quadrature-point state at t = 0.

    sigma0 is initial_stress(grid, data), if already evaluated.
    """
    u0 = data.u0(0.0, grid.nodes)
    if sigma0 is None:
        sigma0 = initial_stress(grid, data)
    strain = grid.sym_gradient(u0)
    ep0 = strain - params.elastic.apply(sigma0)
    if params.model == constitutive.KINEMATIC:
        xi0 = np.zeros_like(sigma0)
    else:
        xi0 = np.zeros(sigma0.shape[:-1])
    return u0, ConstitutiveState(sigma=sigma0, xi=xi0, ep=ep0)


def initial_ep_trace_defect(grid: Grid, params: MaterialParams, data,
                            sigma0=None) -> float:
    _, state = initial_state(grid, params, data, sigma0)
    return float(np.abs(tensors.tr(state.ep)).max())


class _Stepper:
    """Shared machinery for one Rothe step, around one elastic factorization.

    The elastic stiffness is constant: its LU factors give the exact
    solve of an elastic Newton step and precondition CG on the plastic
    tangents.
    """

    def __init__(self, grid: Grid, params: MaterialParams, data):
        self.grid = grid
        self.params = params
        self.data = data
        a_inv = np.linalg.inv(params.elastic.matrix)
        D = np.broadcast_to(a_inv, (grid.ncells, grid.nqp, grid.m, grid.m))
        K = grid.assemble_tangent(np.ascontiguousarray(D))
        self._factor = grid.factorize(K)
        self._elastic_solve = grid.make_solver(None, self._factor)

    def step(self, u_n, state_n, t_n, dt, step_index=0):
        grid, params, data = self.grid, self.params, self.data
        t1 = t_n + dt
        u = u_n.copy()
        u[grid.dirichlet_nodes] = data.u0(t1, grid.dirichlet_points)
        strain_n = grid.sym_gradient(u_n)
        load = grid.load_vector(body_fn=data.body_force,
                                sigma0_fn=data.sigma0, t=t1)
        free = grid.free_dofs

        def residual_of(u_try):
            deps = grid.sym_gradient(u_try) - strain_n
            upd = local_update(state_n, deps, dt, params)
            r = grid.internal_force(upd.sigma) - load
            r[grid.dirichlet_dofs] = 0.0
            return r, deps, upd

        r, deps, upd = residual_of(u)
        fint_scale = np.linalg.norm((r + load)[free])
        scale = max(np.linalg.norm(load[free]), fint_scale, 1e-12)
        rnorm = np.linalg.norm(r[free])

        iters = 0
        while rnorm > NEWTON_RTOL * scale and iters < NEWTON_MAX_ITER:
            elastic_step = float(yield_excess(upd, params).max()) \
                <= constitutive.KINK_GUARD
            solve = self._elastic_solve
            if not elastic_step:
                # D gives the exact Jacobian K, so |K du + r| <= eta |r|
                # with eta < 1 makes du a descent direction for |r|^2
                D = consistent_tangent(state_n, deps, dt, params, updated=upd)
                eta = max(CG_RTOL, min(FORCING_MAX, rnorm / scale))
                solve = grid.make_solver(D, self._factor, rtol=eta)
            du = solve(-r).reshape(grid.nnodes, grid.d)
            del solve           # free this tangent before the next is built
            alpha = 1.0
            while True:
                r_try, deps_try, upd_try = residual_of(u + alpha * du)
                rn_try = np.linalg.norm(r_try[free])
                if rn_try <= rnorm * (1.0 - 1e-4 * alpha) \
                        or rn_try <= NEWTON_RTOL * scale or alpha < 1e-3:
                    break
                alpha *= 0.5
            u = u + alpha * du
            r, deps, upd = r_try, deps_try, upd_try
            rnorm = rn_try
            iters += 1

        if not (np.isfinite(rnorm) and np.isfinite(scale)):
            raise GlobalSolverError(
                f"non-finite residual at step {step_index} (t={t1:g}) "
                f"after {iters} Newton iterations; check the data",
                step_index=step_index, iterations=iters, residual=rnorm)
        if rnorm > NEWTON_RTOL * scale:
            raise GlobalSolverError(
                f"Newton stalled at step {step_index} (t={t1:g}): "
                f"residual {rnorm:.3e} vs scale {scale:.3e}; "
                "consider a smaller dt or a larger mu",
                step_index=step_index, iterations=iters, residual=rnorm)
        return u, upd, iters, rnorm / scale


def _accumulate_energy(acc, grid, params, state, state_prev=None, u=None,
                       u_prev=None, dt=None):
    excess = yield_excess(state, params)
    overshoot_sq = grid.integrate_qp(excess**2)
    acc["e_pen"].append(overshoot_sq / params.mu)
    acc["overshoot_linf"].append(float(excess.max()) if excess.size else 0.0)
    acc["overshoot_l2"].append(np.sqrt(overshoot_sq))
    if state_prev is None:
        return
    sigdot = (state.sigma - state_prev.sigma) / dt
    xidot = (state.xi - state_prev.xi) / dt
    acc["sigdot_l2"].append(np.sqrt(grid.integrate_qp(
        tensors.inner(sigdot, sigdot))))
    if params.model == constitutive.KINEMATIC:
        xidot_sq = tensors.inner(xidot, xidot)
    else:
        xidot_sq = xidot**2
    acc["xidot_l2"].append(np.sqrt(grid.integrate_qp(xidot_sq)))
    udot = (u - u_prev) / dt
    grad = grid.gradient(udot)
    vals = grid.shape_values
    udot_qp = np.einsum("qa,cai->cqi", vals, udot[grid.cell_nodes],
                        optimize=True)
    # (grad**2).sum over two axes groups its terms by grad's memory
    # layout, which no fixed order of slices repeats bit for bit
    h1 = grid.integrate_qp(tensors.inner(udot_qp, udot_qp)
                           + (grad**2).sum(axis=(-1, -2)))
    acc["udot_h1"].append(np.sqrt(h1))
    prev = acc["dissipation_cum"][-1] if acc["dissipation_cum"] else 0.0
    acc["dissipation_cum"].append(
        prev + dt * (acc["sigdot_l2"][-1] ** 2 + acc["xidot_l2"][-1] ** 2))


def _new_accumulator() -> dict:
    """Empty per-level/per-step lists, one per EnergyReport array but times."""
    return {f.name: [] for f in fields(EnergyReport) if f.name != "times"}


def _energy_report(acc, times) -> EnergyReport:
    return EnergyReport(times=np.asarray(times),
                        **{k: np.asarray(v) for k, v in acc.items()})


def run(grid: Grid, params: MaterialParams, data, T: float, N: int,
        keep_history: bool = True):
    """Execute N backward-Euler steps; returns (history | None, EnergyReport).

    keep_history=False drops the per-step fields (sweeps only need the
    streamed diagnostics); the report carries the Newton record either way.
    """
    dt = T / N
    times = np.linspace(0.0, T, N + 1)
    stepper = _Stepper(grid, params, data)
    u, state = initial_state(grid, params, data)

    acc = _new_accumulator()
    _accumulate_energy(acc, grid, params, state)

    history = None
    if keep_history:
        m = grid.m
        shp = (N + 1, grid.ncells, grid.nqp)
        history = FieldHistory(
            times=times, u=np.empty((N + 1, grid.nnodes, grid.d)),
            sigma=np.empty(shp + (m,)),
            xi=np.empty(shp + ((m,) if params.model == constitutive.KINEMATIC
                               else ())),
            ep=np.empty(shp + (m,)), grid=grid, params=params)
        history.u[0] = u
        history.sigma[0] = state.sigma
        history.xi[0] = state.xi
        history.ep[0] = state.ep

    for k in range(N):
        u_new, state_new, iters, rel = stepper.step(
            u, state, times[k], dt, step_index=k)
        _accumulate_energy(acc, grid, params, state_new, state, u_new, u, dt)
        acc["newton_iters"].append(iters)
        acc["residual_rel"].append(rel)
        if keep_history:
            history.u[k + 1] = u_new
            history.sigma[k + 1] = state_new.sigma
            history.xi[k + 1] = state_new.xi
            history.ep[k + 1] = state_new.ep
        u, state = u_new, state_new

    return history, _energy_report(acc, times)


def energy_diagnostics(history: FieldHistory) -> EnergyReport:
    """Recompute the streamed diagnostics from a stored history."""
    grid, params = history.grid, history.params
    acc = _new_accumulator()
    _accumulate_energy(acc, grid, params, history.state_at(0))
    dt = history.dt
    for k in range(1, len(history.times)):
        _accumulate_energy(acc, grid, params, history.state_at(k),
                           history.state_at(k - 1), history.u[k],
                           history.u[k - 1], dt)
    return _energy_report(acc, history.times)


@dataclass
class SafetyReport:
    passed: bool
    margin: float
    kappa: float


def safety_load_check(grid: Grid, params: MaterialParams, data,
                      sigma0=None) -> SafetyReport:
    """Strict feasibility of the safety load, checked once at t = 0.

    The translated hardening data xi0(t) = sigma0(t) - sigma0(0)
    (kinematic) resp. |dev sigma0(t)| - |dev sigma0(0)| (isotropic) makes
    the feasibility gap |dev sigma0(t) - dev xi0(t)| resp.
    |dev sigma0(t)| - xi0(t) equal |dev sigma0(0)| at every t, so
    margin = kappa - sup_x |dev sigma0(0, x)| > 0 covers the whole run.
    sigma0 is initial_stress(grid, data), if already evaluated.
    """
    if sigma0 is None:
        sigma0 = initial_stress(grid, data)
    dev0 = tensors.norm(tensors.dev(sigma0))
    margin = params.kappa - float(dev0.max())
    return SafetyReport(passed=margin > 0.0, margin=margin, kappa=params.kappa)


def weak_divergence_defect(grid: Grid, params: MaterialParams, data,
                           t: float = 0.0, sigma0=None) -> float:
    """Relative free-dof residual of sigma0 against f: checks div sigma0.

    sigma0 is initial_stress(grid, data, t), if already evaluated.
    """
    if sigma0 is None:
        sigma0 = initial_stress(grid, data, t)
    free = grid.free_dofs
    fint = grid.internal_force(sigma0)[free]
    load = grid.load_vector(body_fn=data.body_force, sigma0_fn=data.sigma0,
                            t=t)[free]
    scale = max(np.linalg.norm(load), np.linalg.norm(fint), 1e-12)
    return float(np.linalg.norm(fint - load) / scale)
