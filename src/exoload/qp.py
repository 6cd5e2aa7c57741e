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
    if C.shape[0] == 0:
        return np.eye(C.shape[1])
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

    P = A.T @ A + eps * np.eye(n)
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

    active_lo: set[int] = set()
    active_up: set[int] = set()

    for iteration in range(1, max_iterations + 1):
        grad = P @ x + g0
        free = [i for i in range(n) if i not in active_lo and i not in active_up]

        # Newton step to the optimum of the current working set, restricted to
        # the free coordinates and the null space of the equality constraints
        p = np.zeros(n)
        if free:
            Cf = C[:, free] if C.shape[0] else np.zeros((0, len(free)))
            Z = _null_space(Cf)
            if Z.shape[1]:
                Pf = P[np.ix_(free, free)]
                y = np.linalg.solve(Z.T @ Pf @ Z, -Z.T @ grad[free])
                p[free] = Z @ y

        at_ws_optimum = np.max(np.abs(p)) <= _STEP_TOL * (1.0 + np.max(np.abs(x)))
        if not at_ws_optimum:
            alpha = 1.0
            blocker: tuple[str, int] | None = None
            for i in free:
                if p[i] > _STEP_TOL:
                    a = (ub[i] - x[i]) / p[i]
                    if a < alpha:
                        alpha, blocker = a, ("up", i)
                elif p[i] < -_STEP_TOL:
                    a = (lb[i] - x[i]) / p[i]
                    if a < alpha:
                        alpha, blocker = a, ("lo", i)
            x = x + max(alpha, 0.0) * p
            if blocker is not None:
                kind, idx = blocker
                x[idx] = ub[idx] if kind == "up" else lb[idx]  # land exactly on the bound
                (active_up if kind == "up" else active_lo).add(idx)
                continue
            # full Newton step on a quadratic lands on the working-set optimum
            grad = P @ x + g0

        # multipliers: nu for equalities from free-coordinate stationarity,
        # bound multipliers from the residual gradient
        if C.shape[0] and free:
            nu = np.linalg.lstsq(C[:, free].T, -grad[free], rcond=None)[0]
        elif C.shape[0]:
            nu = np.linalg.lstsq(C.T, -grad, rcond=None)[0]
        else:
            nu = np.zeros(0)
        resid = grad + (C.T @ nu if C.shape[0] else 0.0)
        release = None
        worst = tolerance
        for i in sorted(active_lo):
            # at a lower bound, a negative residual means the objective
            # improves by moving into the interior
            if resid[i] < -worst:
                release, worst = ("lo", i), -resid[i]
        for i in sorted(active_up):
            if resid[i] > worst:
                release, worst = ("up", i), resid[i]
        if release is None:
            return QPResult(
                x=x,
                iterations=iteration,
                active_lower=sorted(active_lo),
                active_upper=sorted(active_up),
            )
        kind, idx = release
        (active_lo if kind == "lo" else active_up).discard(idx)

    raise SolverError(f"active-set QP did not converge in {max_iterations} iterations")
