"""Dense equality-constrained least-squares QP with box bounds, solved by a
primal active-set method.

Problem form::

    minimize    || A x - b ||^2  +  eps * || x ||^2
    subject to  C x = d
                lb <= x <= ub

The Tikhonov term keeps the Hessian positive definite, so the active-set
iteration terminates finitely. Everything is deterministic: fixed tie-breaking
(lowest index first), no randomized pivoting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleBoundsError, SolverError

_STEP_TOL = 1e-12


@dataclass
class QPResult:
    x: np.ndarray
    iterations: int
    active_lower: list[int] = field(default_factory=list)
    active_upper: list[int] = field(default_factory=list)

    @property
    def saturated(self) -> list[int]:
        return sorted(set(self.active_lower) | set(self.active_upper))


def _null_space(C: np.ndarray, rcond: float = 1e-12) -> np.ndarray:
    u, s, vt = np.linalg.svd(C, full_matrices=True)
    rank = int(np.sum(s > rcond * (s[0] if s.size else 1.0)))
    return vt[rank:].T


def solve_ls_qp(
    A: np.ndarray,
    b: np.ndarray,
    eps: float,
    lb: np.ndarray,
    ub: np.ndarray,
    C: np.ndarray | None = None,
    d: np.ndarray | None = None,
    x0: np.ndarray | None = None,
    max_iterations: int = 200,
    tolerance: float = 1e-10,
) -> QPResult:
    """Minimize the problem in the module docstring. A bound leaves the
    working set only when its multiplier has the wrong sign by more than
    ``tolerance``."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float)
    n = A.shape[1]
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    if np.any(lb > ub):
        bad = np.nonzero(lb > ub)[0].tolist()
        raise InfeasibleBoundsError(f"velocity bounds are empty at coordinates {bad}")
    if C is None:
        C = np.zeros((0, n))
        d = np.zeros(0)
    else:
        C = np.atleast_2d(np.asarray(C, dtype=float))
        d = np.asarray(d, dtype=float)

    P = A.T @ A
    P.flat[:: n + 1] += eps
    g0 = -A.T @ b

    if x0 is None:
        if C.shape[0]:
            x = np.linalg.lstsq(C, d, rcond=None)[0]
        else:
            x = np.zeros(n)
        x = np.clip(x, lb, ub)
        if C.shape[0] and not np.allclose(C @ x - d, 0.0, atol=1e-9):
            raise InfeasibleBoundsError(
                "no feasible start: equality constraints conflict with bounds"
            )
    else:
        x = np.array(x0, dtype=float)

    active_lo = np.zeros(n, dtype=bool)
    active_up = np.zeros(n, dtype=bool)

    for iteration in range(1, max_iterations + 1):
        grad = P @ x + g0
        free = np.flatnonzero(~(active_lo | active_up))
        # a slice while every coordinate is free: views instead of gathers
        f = slice(None) if free.size == n else free

        # Newton step to the optimum of the current working set, restricted to
        # the free coordinates and the null space of the equality constraints
        p = np.zeros(n)
        if free.size:
            Pf = P[f][:, f]
            if C.shape[0]:
                Z = _null_space(C[:, f])
                if Z.shape[1]:
                    p[f] = Z @ np.linalg.solve(Z.T @ Pf @ Z, -Z.T @ grad[f])
            else:
                p[f] = np.linalg.solve(Pf, -grad[f])

        at_ws_optimum = np.max(np.abs(p)) <= _STEP_TOL * (1.0 + np.max(np.abs(x)))
        if not at_ws_optimum:
            # ratio test over the coordinates moving towards a bound (p is
            # zero off the free set); argmin keeps the lowest index among
            # equal ratios
            up = p > _STEP_TOL
            lo = p < -_STEP_TOL
            ratio = np.full(n, np.inf)
            ratio[up] = (ub[up] - x[up]) / p[up]
            ratio[lo] = (lb[lo] - x[lo]) / p[lo]
            idx = int(np.argmin(ratio))
            alpha = min(ratio[idx], 1.0)
            x = x + max(alpha, 0.0) * p
            if ratio[idx] < 1.0:
                x[idx] = ub[idx] if up[idx] else lb[idx]  # land exactly on the bound
                (active_up if up[idx] else active_lo)[idx] = True
                continue
        # x is the working-set optimum (a full Newton step on a quadratic
        # lands on it); with no bound in the working set it is the solution
        if free.size == n:
            return QPResult(x=x, iterations=iteration)
        grad = P @ x + g0

        # multipliers: nu for equalities from free-coordinate stationarity,
        # bound multipliers from the residual gradient
        if C.shape[0] and free.size:
            nu = np.linalg.lstsq(C[:, f].T, -grad[f], rcond=None)[0]
        elif C.shape[0]:
            nu = np.linalg.lstsq(C.T, -grad, rcond=None)[0]
        else:
            nu = np.zeros(0)
        resid = grad + (C.T @ nu if C.shape[0] else 0.0)
        release = None
        worst = tolerance
        for i in np.flatnonzero(active_lo):
            # at a lower bound, a negative residual means the objective
            # improves by moving into the interior
            if resid[i] < -worst:
                release, worst = (active_lo, i), -resid[i]
        for i in np.flatnonzero(active_up):
            if resid[i] > worst:
                release, worst = (active_up, i), resid[i]
        if release is None:
            return QPResult(
                x=x,
                iterations=iteration,
                active_lower=np.flatnonzero(active_lo).tolist(),
                active_upper=np.flatnonzero(active_up).tolist(),
            )
        working, idx = release
        working[idx] = False

    raise SolverError(f"active-set QP did not converge in {max_iterations} iterations")
