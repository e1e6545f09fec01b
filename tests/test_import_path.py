"""What a fresh process pays to import the package.

scipy.stats costs about half a second of import, so it may not load at
start-up; scipy.linalg is not used at all, since a fit names its
collinear terms with numpy's QR.  Each check runs in its own
interpreter, because this one has long since imported both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import logitpath

SRC = str(Path(logitpath.__file__).resolve().parent.parent)

LEAN = ("scipy.stats", "scipy.linalg")


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter that finds this logitpath; the
    code prints one JSON document, returned here."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(proc.stdout)


def test_cli_and_simulation_import_neither_scipy_stats_nor_linalg():
    loaded = run_fresh(
        "import json, sys\n"
        "import logitpath.cli\n"
        "import logitpath.simulation\n"
        f"print(json.dumps([m for m in {LEAN!r} if m in sys.modules]))\n")
    assert loaded == []


def test_a_collinear_design_still_names_its_terms():
    # numpy names the terms; scipy.linalg never loads
    loaded, message = run_fresh(
        "import json, sys\n"
        "import numpy as np\n"
        "from logitpath.fitting import FitError, _check_rank\n"
        "x = np.array([0.0, 1.0, 0.0, 1.0])\n"
        "X = np.column_stack([np.ones(4), x, x])\n"
        "try:\n"
        "    _check_rank(X, np.ones(4), ['1', 'X', 'C'])\n"
        "    message = None\n"
        "except FitError as e:\n"
        "    message = str(e)\n"
        "print(json.dumps(['scipy.linalg' in sys.modules, message]))\n")
    assert not loaded
    assert message.endswith("collinear terms: ['C']")
