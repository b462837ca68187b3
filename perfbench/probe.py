"""Print the benchmark environment as JSON after a cold import of the CLI.

    python -X importtime perfbench/probe.py

Standard output is one JSON object (interpreter, library versions, numba
presence, `_kernels.NUMBA_ENABLED`, core count, worker setting); standard
error carries the ``-X importtime`` table for the import below.  Needs
``src`` on PYTHONPATH.
"""

import importlib.util
import json
import os
import platform

import collapse_lab.cli  # noqa: F401  (the import being timed)
import numpy
import scipy
from collapse_lab import _kernels

print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "numba_installed": importlib.util.find_spec("numba") is not None,
    "numba_enabled": getattr(_kernels, "NUMBA_ENABLED", None),
    "nproc": os.cpu_count(),
    "cpus_usable": len(os.sched_getaffinity(0)),
    "COLLAPSE_LAB_MAX_WORKERS": os.environ.get("COLLAPSE_LAB_MAX_WORKERS"),
    "machine": platform.machine(),
}))
