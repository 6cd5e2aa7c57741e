"""Peak memory of the lumbar-load path on long captures: the growth of the
peak resident set between two capture lengths, each run in a fresh
interpreter, stays within a fixed cost per frame.

The child reads its peak from ``VmHWM`` in ``/proc/self/status``, which
starts afresh at ``execve``. ``ru_maxrss`` would not do: it keeps the
high-water mark of a parent that starts the child with ``vfork``, so under a
large pytest process both readings equal the parent's peak."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
KB_PER_FRAME = 16.0

RUN = """
import sys

from helpers import default_model, moving_base_trajectory

from exoload.dynamics import net_lumbar_series
from exoload.skeleton import KinematicState

model = default_model()
trajectory = moving_base_trajectory(model, int(sys.argv[1]) / 240.0)
net_lumbar_series(KinematicState(model, trajectory), 1.0 / 240.0)
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


def peak_rss_kb(frames: int) -> int:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    done = subprocess.run(
        [sys.executable, "-c", RUN, str(frames)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    return int(done.stdout)


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from Linux's /proc")
def test_lumbar_series_peak_memory_grows_by_a_bounded_amount_per_frame():
    short, long = 1200, 4800
    growth = (peak_rss_kb(long) - peak_rss_kb(short)) / (long - short)
    assert growth <= KB_PER_FRAME, f"peak RSS grows by {growth:.2f} KB per frame"
