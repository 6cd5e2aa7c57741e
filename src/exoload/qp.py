"""Dense equality-constrained least-squares QP with box bounds, solved by a
primal active-set method.

Problem form::

    minimize    || A x - b ||^2  +  eps * || x ||^2
    subject to  C x = C x0
                lb <= x <= ub

The equality rows hold ``C x`` at its value at the start ``x0``, which
must lie within the bounds.

The Tikhonov term keeps the Hessian positive definite, so the active-set
iteration terminates finitely. Everything is deterministic: fixed tie-breaking
(lowest index first), no randomized pivoting.

``solve_hierarchy`` solves two strictly prioritized levels of that form from
one QR factorization of the level-1 Jacobian, and runs the active set only
when a bound binds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError

_STEP_TOL = 1e-12
_MAX_ITERATIONS = 200
# a bound leaves the working set when its multiplier has the wrong sign by more than this
_RELEASE_TOL = 1e-10
# the level-1 rows count as independent when the smallest diagonal entry of
# their triangular factor exceeds this share of the largest
_RANK_RATIO = 1e-6
# singular values of the equality rows at or below this share of the largest
# count as zero in their null space
_RANK_RCOND = 1e-12


@dataclass
class QPResult:
    """A QP solution, its active-set iterations and the sorted coordinates
    at a bound at it."""

    x: np.ndarray
    iterations: int
    saturated: list[int]


def _null_space(C: np.ndarray) -> np.ndarray:
    u, s, vt = np.linalg.svd(C, full_matrices=True)
    rank = int(np.sum(s > _RANK_RCOND * (s[0] if s.size else 1.0)))
    return vt[rank:].T


def solve_ls_qp(
    A: np.ndarray,
    b: np.ndarray,
    eps: float,
    lb: np.ndarray,
    ub: np.ndarray,
    C: np.ndarray | None = None,
    x0: np.ndarray | None = None,
) -> QPResult:
    """Minimize the problem in the module docstring. Without equality rows
    the start defaults to zero clipped to the bounds; with ``C`` it is
    ``x0``, which is then required. A missing start, or a lower bound above
    its upper bound, is a ``ValueError``. A bound leaves the working set
    only when its multiplier has the wrong sign by more than
    ``_RELEASE_TOL``, and ``_MAX_ITERATIONS`` iterations without
    convergence raise ``SolverError``."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float)
    n = A.shape[1]
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    if np.any(lb > ub):
        raise ValueError(f"bounds are empty at coordinates {np.flatnonzero(lb > ub).tolist()}")
    if C is None:
        C = np.zeros((0, n))
    elif x0 is None:
        raise ValueError("equality rows C need a start x0")
    else:
        C = np.atleast_2d(np.asarray(C, dtype=float))

    P = A.T @ A
    # a matrix product is C-contiguous, so reshape gives a view of its diagonal
    P.reshape(-1)[:: n + 1] += eps
    g0 = -A.T @ b
    x = np.clip(np.zeros(n), lb, ub) if x0 is None else np.array(x0, dtype=float)

    active_lo = np.zeros(n, dtype=bool)
    active_up = np.zeros(n, dtype=bool)

    for iteration in range(1, _MAX_ITERATIONS + 1):
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
            return QPResult(x, iteration, [])
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
        worst = _RELEASE_TOL
        for i in np.flatnonzero(active_lo):
            # at a lower bound, a negative residual means the objective
            # improves by moving into the interior
            if resid[i] < -worst:
                release, worst = (active_lo, i), -resid[i]
        for i in np.flatnonzero(active_up):
            if resid[i] > worst:
                release, worst = (active_up, i), resid[i]
        if release is None:
            return QPResult(x, iteration, np.flatnonzero(active_lo | active_up).tolist())
        working, idx = release
        working[idx] = False

    raise SolverError(f"active-set QP did not converge in {_MAX_ITERATIONS} iterations")


def solve_hierarchy(
    J1: np.ndarray,
    v1: np.ndarray,
    J2: np.ndarray,
    v2: np.ndarray,
    eps: float,
    lb: np.ndarray,
    ub: np.ndarray,
) -> QPResult:
    """Two strictly prioritized levels within ``lb <= x <= ub``: level 1
    minimizes ``||J1 x - v1||^2 + eps ||x||^2``, and level 2 minimizes
    ``||J2 x - v2||^2 + eps ||x||^2`` while ``J1 x`` stays at level 1's
    optimum. ``J2`` may have no rows.

    With ``J1^T = Q R`` and ``R1`` the top square block of ``R``, level 1 is
    ``x1 = Q[:, :m1] solve(R1 R1^T + eps I, R1 v1)`` and level 2 moves in
    the null space ``Z = Q[:, m1:]``, with ``B = J2 Z``:
    ``x = x1 + Z solve(B^T B + eps I, B^T (v2 - J2 x1))``. The Tikhonov
    term needs no cross term because ``x1`` is orthogonal to ``Z``. That is
    each level's first active-set iteration with every bound free, so such a
    solution reports one iteration per level and no active bound. When the
    level-1 rows are not clearly independent, or ``x1`` or ``x`` leaves the
    bounds, both levels go through ``solve_ls_qp`` from scratch instead,
    and the result reports the iterations of both calls and the union of
    their saturated coordinates."""
    m1, n = J1.shape
    two_levels = J2.shape[0] > 0
    if 0 < m1 <= n:
        Q, R = np.linalg.qr(J1.T, mode="complete")
        R1 = R[:m1]
        diag = np.abs(np.diagonal(R1))
        if diag.min() > _RANK_RATIO * diag.max():
            H = R1 @ R1.T
            H.reshape(-1)[:: m1 + 1] += eps
            x = Q[:, :m1] @ np.linalg.solve(H, R1 @ v1)
            iterations = 1
            if two_levels and (lb <= x).all() and (x <= ub).all():
                Z = Q[:, m1:]
                if Z.shape[1]:
                    B = J2 @ Z
                    G = B.T @ B
                    G.reshape(-1)[:: Z.shape[1] + 1] += eps
                    x = x + Z @ np.linalg.solve(G, B.T @ (v2 - J2 @ x))
                iterations = 2
            if (lb <= x).all() and (x <= ub).all():
                return QPResult(x, iterations, [])

    r1 = solve_ls_qp(J1, v1, eps, lb, ub)
    if not two_levels:
        return r1
    r2 = solve_ls_qp(J2, v2, eps, lb, ub, C=J1, x0=r1.x)
    return QPResult(r2.x, r1.iterations + r2.iterations, sorted(set(r1.saturated) | set(r2.saturated)))
