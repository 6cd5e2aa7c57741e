import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import exoload.qp  # noqa: E402
from helpers import default_model  # noqa: E402


@pytest.fixture(scope="session")
def model():
    return default_model()


@pytest.fixture(scope="session")
def small_model():
    return default_model(1.60, 55.0)


@pytest.fixture
def active_set_calls(monkeypatch):
    """Records each ``solve_ls_qp`` call that ``qp.solve_hierarchy`` makes:
    ``False`` for level 1, ``True`` for level 2 (the call with equality
    rows)."""
    solve_ls_qp = exoload.qp.solve_ls_qp
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("C") is not None)
        return solve_ls_qp(*args, **kwargs)

    monkeypatch.setattr(exoload.qp, "solve_ls_qp", counted)
    return calls
