"""Set-up of one session in a fresh interpreter: import the CLI, load the
session config and build the session model, with no analysis.

Usage: python3 bench/setup_probe.py CONFIG
Prints one JSON object: import_s, build_model_ms.
"""

import json
import sys
from time import perf_counter

start = perf_counter()
import exoload.cli  # noqa: E402,F401  (the import is what is timed)

imported = perf_counter()
from exoload.pipeline import build_session_model, load_config  # noqa: E402

config = load_config(sys.argv[1])
loaded = perf_counter()
build_session_model(config)
built = perf_counter()
print(
    json.dumps(
        {
            "import_s": imported - start,
            "build_model_ms": 1e3 * (built - loaded),
        }
    )
)
