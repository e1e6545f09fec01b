"""What a fresh process pays to import the package, and that it runs
without scipy.

scipy is a test dependency only: the logistic primitives are numpy's and
the normal quantile and tail the standard library's, so neither the CLI
nor the study loads any scipy module (scipy.special alone was about 0.3 s
of a 0.5 s import), and a fit names its collinear terms with numpy's QR.
Each check runs in its own interpreter, because this one has long since
imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import logitpath

SRC = str(Path(logitpath.__file__).resolve().parent.parent)

DATA = Path(logitpath.__file__).resolve().parent / "data"

# put first on sys.meta_path, refuses to import any scipy module
REFUSE_SCIPY = (
    "import importlib.abc, sys\n"
    "class RefuseScipy(importlib.abc.MetaPathFinder):\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name.partition('.')[0] == 'scipy':\n"
    "            raise ImportError(f'{name} is refused')\n"
    "sys.meta_path.insert(0, RefuseScipy())\n")


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


def test_cli_and_simulation_import_no_scipy():
    loaded = run_fresh(
        "import json, sys\n"
        "import logitpath.cli\n"
        "import logitpath.simulation\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.partition('.')[0] == 'scipy')))\n")
    assert loaded == []


def test_the_cli_fits_decomposes_and_simulates_without_scipy(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "seed": 5, "replications": 20, "treatment": ["binary", "continuous"],
        "beta_x": [0.9], "n": [200]}))
    fitted = str(tmp_path / "fit.json")
    runs = [["fit", "--data", str(DATA / "example_counts.json"),
             "--model", str(DATA / "example_model.json"), "--out", fitted],
            ["decompose", "--fitted", fitted, "--contrast", "2,1", "--by", "C"],
            ["simulate", "--config", str(grid)]]
    results = run_fresh(
        REFUSE_SCIPY
        + "import json\n"
        "from click.testing import CliRunner\n"
        "from logitpath.cli import main\n"
        f"runs = {runs!r}\n"
        "done = [CliRunner().invoke(main, r) for r in runs]\n"
        "print(json.dumps([[r.exit_code, r.output, repr(r.exception)]\n"
        "                  for r in done]))\n")
    for (code, output, exception), run in zip(results, runs):
        assert code == 0, (run[0], output, exception)
    assert "TPE" in results[1][1]   # the probability scale too
    assert results[2][1].count("rsd avg=") == 2


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


def test_a_fit_never_loads_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call (numpy 2.4), about
    # 1.3 MB and 10-16 ms of a fresh process; checking a column's values
    # needs neither
    fitted = str(tmp_path / "fit.json")
    code, loaded = run_fresh(
        "import json, sys\n"
        "from click.testing import CliRunner\n"
        "from logitpath.cli import main\n"
        f"run = CliRunner().invoke(main, ['fit', '--data', "
        f"{str(DATA / 'example_counts.json')!r}, '--model', "
        f"{str(DATA / 'example_model.json')!r}, '--out', {fitted!r}])\n"
        "print(json.dumps([run.exit_code, 'numpy.ma' in sys.modules]))\n")
    assert code == 0 and not loaded
