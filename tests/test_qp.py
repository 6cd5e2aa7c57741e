import numpy as np
import pytest
from scipy.optimize import lsq_linear

from helpers import reference_two_level_step

from exoload import qp, retarget
from exoload.qp import solve_hierarchy, solve_ls_qp


def objective(A, b, eps, x):
    return float(np.sum((A @ x - b) ** 2) + eps * np.sum(x**2))


def test_interior_solution_matches_closed_form():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(6, 4))
    b = rng.normal(size=6)
    eps = 1e-6
    r = solve_ls_qp(A, b, eps, -np.full(4, 10.0), np.full(4, 10.0))
    x_ref = np.linalg.solve(A.T @ A + eps * np.eye(4), A.T @ b)
    assert np.max(np.abs(r.x - x_ref)) < 1e-12
    assert r.saturated == []


def test_bounded_solutions_match_scipy():
    rng = np.random.default_rng(5)
    for _ in range(100):
        m, n = rng.integers(2, 12), rng.integers(2, 10)
        A = rng.normal(size=(m, n))
        b = 3 * rng.normal(size=m)
        lb = -rng.uniform(0.05, 2.0, n)
        ub = rng.uniform(0.05, 2.0, n)
        r = solve_ls_qp(A, b, 1e-6, lb, ub)
        assert np.all(r.x >= lb - 1e-12) and np.all(r.x <= ub + 1e-12)
        ref = lsq_linear(
            np.vstack([A, 1e-3 * np.eye(n)]),
            np.concatenate([b, np.zeros(n)]),
            bounds=(lb, ub),
            tol=1e-15,
            max_iter=500,
        )
        assert objective(A, b, 1e-6, r.x) <= objective(A, b, 1e-6, ref.x) + 1e-9


def test_equality_constraints_hold_exactly():
    rng = np.random.default_rng(9)
    A = rng.normal(size=(8, 6))
    b = rng.normal(size=8)
    C = rng.normal(size=(2, 6))
    x_feasible = np.clip(rng.normal(size=6) * 0.1, -1, 1)
    d = C @ x_feasible
    r = solve_ls_qp(A, b, 1e-6, -np.full(6, 5.0), np.full(6, 5.0), C=C, x0=x_feasible)
    assert np.max(np.abs(C @ r.x - d)) < 1e-10
    # reduced gradient vanishes in the constraint null space
    P = A.T @ A + 1e-6 * np.eye(6)
    grad = P @ r.x - A.T @ b
    _, _, vt = np.linalg.svd(C)
    Z = vt[2:].T
    assert np.max(np.abs(Z.T @ grad)) < 1e-9


def test_rank_deficient_equalities_are_tolerated():
    rng = np.random.default_rng(11)
    A = rng.normal(size=(5, 4))
    b = rng.normal(size=5)
    C = rng.normal(size=(2, 4))
    C = np.vstack([C, C[0]])  # duplicated row
    r = solve_ls_qp(A, b, 1e-6, -np.full(4, 10.0), np.full(4, 10.0), C=C, x0=np.zeros(4))
    assert np.max(np.abs(C @ r.x)) < 1e-10


def test_equality_rows_need_a_start():
    with pytest.raises(ValueError, match="x0"):
        solve_ls_qp(np.eye(2), np.ones(2), 1e-6, -np.ones(2), np.ones(2), C=np.ones((1, 2)))


def test_infeasible_bounds_raise():
    """A lower bound above its upper bound is an argument error naming the
    coordinate."""
    with pytest.raises(ValueError, match=r"coordinates \[0\]"):
        solve_ls_qp(np.eye(2), np.ones(2), 1e-6, np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def test_saturated_coordinates_reported():
    A = np.eye(3)
    b = np.array([5.0, -5.0, 0.1])
    r = solve_ls_qp(A, b, 1e-9, -np.ones(3), np.ones(3))
    assert r.saturated == [0, 1]
    assert np.allclose(r.x, [1.0, -1.0, 0.1], atol=1e-9)
    assert r.x[0] == 1.0 and r.x[1] == -1.0  # lands exactly on the bounds


def test_deterministic_bit_identical():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(10, 7))
    b = rng.normal(size=10)
    lb, ub = -np.full(7, 0.3), np.full(7, 0.3)
    r1 = solve_ls_qp(A, b, 1e-6, lb, ub)
    r2 = solve_ls_qp(A.copy(), b.copy(), 1e-6, lb.copy(), ub.copy())
    assert np.array_equal(r1.x, r2.x)
    assert r1.iterations == r2.iterations


def test_tolerance_sets_when_a_bound_is_released(monkeypatch):
    # coordinate 2 reaches its lower bound on the way to the optimum, then
    # wants back into the interior with a multiplier of about 0.05-0.1
    A = np.array([[1.1, 0.3, -0.5], [-1.3, -1.9, 0.0], [-0.8, -0.9, -0.2]])
    b = np.array([-0.2, -6.8, 2.8])
    lb, ub = -np.ones(3), np.ones(3)
    default = solve_ls_qp(A, b, 1e-6, lb, ub)
    monkeypatch.setattr(qp, "_RELEASE_TOL", 0.1)
    loose = solve_ls_qp(A, b, 1e-6, lb, ub)
    assert default.saturated == [1] and default.x[1] == 1.0
    assert loose.saturated == [1, 2] and loose.x[1] == 1.0
    assert loose.x[2] == -1.0 < default.x[2]
    assert objective(A, b, 1e-6, default.x) < objective(A, b, 1e-6, loose.x)


def fixed_problem(name):
    if name == "tie":
        # coordinates 0 and 1 reach their upper bounds at the same step
        # length: the lower index enters the working set first
        return dict(A=np.eye(3), b=np.array([3.0, 3.0, 0.5]), eps=1e-6, lb=-np.ones(3), ub=np.ones(3))
    seed = int(name[len("seed"):])
    rng = np.random.default_rng(seed)
    n, m = 12, 9
    A = rng.normal(size=(m, n))
    b = 4.0 * rng.normal(size=m)
    problem = dict(A=A, b=b, eps=1e-6, lb=-0.3 * np.ones(n), ub=0.3 * np.ones(n))
    if seed >= 102:
        C = rng.normal(size=(2, n))
        x0 = np.clip(0.1 * rng.normal(size=n), -0.3, 0.3)
        problem.update(C=C, x0=x0)
    return problem


@pytest.mark.parametrize(
    "name, iterations, active_lower, active_upper",
    [
        ("tie", 3, [], [0, 1]),
        ("seed100", 12, [3, 5, 10], [0, 1, 2, 4, 6, 8, 9, 11]),
        ("seed101", 19, [4, 9, 10], [2, 5, 6, 7, 8]),
        ("seed102", 14, [3, 6, 8, 10], [1, 5, 7, 9, 11]),
        ("seed103", 12, [1, 3, 5, 8, 9], [2, 6, 7, 10]),
    ],
)
def test_fixed_problems_keep_iterations_and_active_sets(name, iterations, active_lower, active_upper):
    """Iteration counts and working sets of the list-based active-set loop
    this solver replaced, on bounded problems with and without equality
    constraints: each coordinate of the working set sits exactly on the
    bound of its side."""
    problem = fixed_problem(name)
    r = solve_ls_qp(**problem)
    assert r.iterations == iterations
    assert r.saturated == sorted(active_lower + active_upper)
    assert all(type(i) is int for i in r.saturated)
    assert np.array_equal(r.x[active_lower], problem["lb"][active_lower])
    assert np.array_equal(r.x[active_upper], problem["ub"][active_upper])


@pytest.fixture
def wide(monkeypatch):
    """A velocity bound far outside every solution below, so no bound binds."""
    monkeypatch.setattr(retarget, "VELOCITY_BOUND", 100.0)


def hierarchy(J1, v1, J2, v2):
    """``solve_hierarchy`` with the retargeter's regularization and bounds,
    as it calls it."""
    bound = np.full(J1.shape[1], retarget.VELOCITY_BOUND)
    return solve_hierarchy(J1, v1, J2, v2, retarget.EPSILON, -bound, bound)


def assert_matches_oracle(got, want, tol):
    assert np.max(np.abs(got.x - want.x)) <= tol
    assert got.iterations == want.iterations
    assert got.saturated == want.saturated


def test_hierarchy_matches_two_call_oracle_on_random_problems(active_set_calls, wide):
    """Well-conditioned two-level problems, and level-1-only ones, solved
    without the active set: the oracle's velocities within 1e-9, one
    iteration per level and no active bound."""
    rng = np.random.default_rng(21)
    for k in range(60):
        n = int(rng.integers(4, 20))
        m1 = int(rng.integers(1, n // 2 + 1))
        m2 = 0 if k % 5 == 0 else int(rng.integers(n, 2 * n))
        J1, J2 = rng.normal(size=(m1, n)), rng.normal(size=(m2, n))
        v1, v2 = rng.normal(size=m1), rng.normal(size=m2)
        got = hierarchy(J1, v1, J2, v2)
        want = reference_two_level_step(J1, v1, J2, v2)
        assert_matches_oracle(got, want, 1e-9)
        assert want.iterations == (1 if m2 == 0 else 2) and want.saturated == []
    assert active_set_calls == []


@pytest.mark.parametrize("name", ["tie", "seed100", "seed101", "seed102", "seed103"])
def test_hierarchy_matches_two_call_oracle_on_fixed_problems(name, active_set_calls, wide):
    """The fixed problems above with wide bounds: level 1 is the problem's
    equality rows, or else its first two least-squares rows, and level 2
    the least-squares rows that level 1 does not hold. Level 2 has fewer
    rows than free directions, so only ``eps`` regularizes it: its reduced
    normal matrix has a condition number of 2e7 to 4e7, and either path
    lies up to about 3e-8 from the exact solution of the 12-coordinate
    problems, so the two agree to 1e-8 rather than 1e-9."""
    p = fixed_problem(name)
    A, b = p["A"], p["b"]
    J1, v1, J2, v2 = (p["C"], p["C"] @ p["x0"], A, b) if "C" in p else (A[:2], b[:2], A[2:], b[2:])
    got = hierarchy(J1, v1, J2, v2)
    assert_matches_oracle(got, reference_two_level_step(J1, v1, J2, v2), 1e-8)
    assert active_set_calls == []


def test_rank_deficient_level_one_runs_the_active_set_bit_identically(active_set_calls):
    """Duplicated level-1 rows fail the rank test, so both levels go through
    the oracle's two active-set calls and give its bits."""
    rng = np.random.default_rng(23)
    J1 = rng.normal(size=(4, 12))
    J1 = np.vstack([J1, J1[1]])
    J2, v2 = rng.normal(size=(9, 12)), rng.normal(size=9)
    v1 = np.append(rng.normal(size=4), 0.0)
    v1[4] = v1[1]
    got = hierarchy(J1, v1, J2, v2)
    want = reference_two_level_step(J1, v1, J2, v2)
    assert active_set_calls == [False, True]
    assert np.array_equal(got.x, want.x)
    assert_matches_oracle(got, want, 0.0)


def test_binding_bound_runs_the_active_set_bit_identically(active_set_calls, monkeypatch):
    """An interior optimum outside a 0.05 bound: the oracle's bits, its
    iterations and its active bounds."""
    rng = np.random.default_rng(25)
    J1, J2 = rng.normal(size=(3, 10)), rng.normal(size=(8, 10))
    v1, v2 = rng.normal(size=3), rng.normal(size=8)
    monkeypatch.setattr(retarget, "VELOCITY_BOUND", 0.05)
    got = hierarchy(J1, v1, J2, v2)
    want = reference_two_level_step(J1, v1, J2, v2)
    assert active_set_calls == [False, True]
    assert want.saturated and want.iterations > 2
    assert np.array_equal(got.x, want.x)
    assert_matches_oracle(got, want, 0.0)
