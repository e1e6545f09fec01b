"""The three benchmark workloads.

Each workload makes its inputs from the run seed with numpy alone
(`generate`), then prepares a logitpath session (`setup`, the part that
`setup_s` measures), then yields closed-loop rounds of operations.  An
operation times only the call into logitpath and checks its output
afterwards with `oracle`, which shares no code with the package.

logitpath is imported lazily, inside `setup`, so that a set-up child
process can time its own import.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXAMPLE_MODEL = SRC / "logitpath" / "data" / "example_model.json"
EXCLUSION_LIMIT = 0.05
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    """The environment of every child: the working tree first on the
    path, everything else (BLAS and OpenMP thread settings included)
    left as found."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def cli_module_origin() -> str:
    """Where `python -m logitpath.cli`, started as the CLI children are,
    finds logitpath (located without importing it)."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import importlib.util as u; print(u.find_spec('logitpath').origin)"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=True)
    return proc.stdout.strip()


def _expit(t):
    return 1.0 / (1.0 + np.exp(-t))


def _term_values(label: str, cols: dict, n: int) -> np.ndarray:
    v = np.ones(n)
    if label != "1":
        for factor in label.split(":"):
            v = v * cols[factor]
    return v


def chain_doc(k: int, treatment: str = "binary") -> dict:
    """Model document of a k-mediator hierarchy: binary outcome Y,
    mediators W1 (innermost) .. Wk, treatment X, binary covariate C.
    X and C enter every equation; each mediator and Y take every
    mediator outward of them."""
    meds = [f"W{j}" for j in range(1, k + 1)]
    variables = [{"name": "Y", "role": "outcome", "kind": "binary"}]
    variables += [{"name": m, "role": "mediator", "kind": "binary",
                   "index": j} for j, m in enumerate(meds, 1)]
    variables += [{"name": "X", "role": "treatment", "kind": treatment},
                  {"name": "C", "role": "covariate", "kind": "binary"}]
    equations = {"Y": ["1", "X", "C"] + meds}
    for j in range(1, k + 1):
        equations[f"W{j}"] = ["1", "X", "C"] + meds[j:]
    return {"variables": variables, "equations": equations}


def draw_coefficients(doc: dict, rng: np.random.Generator) -> dict:
    return {resp: {label: float(rng.normal(-0.3, 0.3) if label == "1"
                                else rng.normal(0.0, 0.7))
                   for label in labels}
            for resp, labels in doc["equations"].items()}


def draw_records(doc: dict, coefs: dict, x: np.ndarray,
                 rng: np.random.Generator) -> dict:
    """Records of a chain system, drawn outermost mediator first."""
    n = len(x)
    cols = {"X": x, "C": (rng.random(n) < 0.5).astype(float)}
    meds = sorted((v for v in doc["variables"] if v["role"] == "mediator"),
                  key=lambda v: -v["index"])
    for resp in [m["name"] for m in meds] + ["Y"]:
        eta = sum(c * _term_values(label, cols, n)
                  for label, c in coefs[resp].items())
        cols[resp] = (rng.random(n) < _expit(eta)).astype(float)
    return cols


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


# -- cli_records ------------------------------------------------------------

class CliRecords:
    """`logitpath fit` then `decompose` on a CSV of individual records."""

    name = "cli_records"
    kinds = {"primary": "decompose", "secondary": "fit"}
    work_kinds = ("fit", "decompose")
    work_unit = "records"
    N_RECORDS = 150_000
    DECOMPOSE_ARGS = ["--contrast", "2,1", "--contrast", "3,1", "--by", "C",
                      "--scale", "both", "--format", "json"]
    REQUESTS = 8       # 2 scales x 2 levels of C x 2 contrasts
    setup_needs_inputs = False

    def __init__(self, seed: int, workdir: Path, inprocess: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.inprocess = inprocess
        self.csv = workdir / "records.csv"
        self.fit_json = workdir / "fit.json"
        self.dec_json = workdir / "decompose.json"

    def generate(self):
        """Seeded records of the bundled example model: 3-level X, binary
        C, one mediator W, with X:W and C:W in the outcome equation.
        Signs are fixed and magnitudes drawn, so every seed fits in a
        similar number of Newton steps."""
        rng = np.random.default_rng([self.seed, 1])
        n = self.N_RECORDS
        u = lambda lo, hi: float(rng.uniform(lo, hi))
        x = rng.integers(1, 4, n)
        c = (rng.random(n) < 0.5).astype(int)
        x2, x3 = (x == 2).astype(float), (x == 3).astype(float)
        eta_w = u(-0.8, -0.3) + u(0.3, 0.8) * x2 + u(0.8, 1.3) * x3
        w = (rng.random(n) < _expit(eta_w)).astype(int)
        eta_y = (u(-1.2, -0.8) + u(0.3, 0.7) * x2 + u(0.7, 1.1) * x3
                 + u(0.2, 0.6) * c + u(0.8, 1.2) * w + u(-0.3, 0.3) * x2 * w
                 + u(-0.3, 0.3) * x3 * w + u(-0.3, 0.3) * c * w)
        y = (rng.random(n) < _expit(eta_y)).astype(int)
        self.workdir.mkdir(parents=True, exist_ok=True)
        lines = ["Y,W,X,C"] + [f"{a},{b},{d},{e}" for a, b, d, e in
                               zip(y.tolist(), w.tolist(), x.tolist(), c.tolist())]
        self.csv.write_text("\n".join(lines) + "\n")

    def setup(self):
        import logitpath.cli  # noqa: F401  (what every CLI process pays)

    def _run_cli(self, args):
        """Exit status of one CLI call: a fresh process, or in-process
        through `logitpath.cli.main` so that trace wrappers see it."""
        if not self.inprocess:
            proc = subprocess.run(
                [sys.executable, "-m", "logitpath.cli", *args],
                env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
            return proc.returncode, proc.stderr[-500:]
        import click
        from logitpath import cli
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main.main(args=list(args), prog_name="logitpath",
                              standalone_mode=False)
        except SystemExit as e:
            return (e.code or 0), "exit"
        except click.ClickException as e:
            return 2, e.format_message()
        return 0, ""

    def op_fit(self):
        self.fit_json.unlink(missing_ok=True)
        secs, (code, err) = _timed(lambda: self._run_cli(
            ["fit", "--model", str(EXAMPLE_MODEL), "--data", str(self.csv),
             "--out", str(self.fit_json)]))
        if code != 0:
            return secs, 0, [f"fit exited {code}: {err}"]
        artifact = json.loads(self.fit_json.read_text())
        problems = [f"fit: equation {resp} did not converge"
                    for resp, d in artifact["diagnostics"].items()
                    if not d["converged"]]
        return secs, self.N_RECORDS, problems

    def op_decompose(self):
        self.dec_json.unlink(missing_ok=True)
        secs, (code, err) = _timed(lambda: self._run_cli(
            ["decompose", "--fitted", str(self.fit_json), *self.DECOMPOSE_ARGS,
             "--out", str(self.dec_json)]))
        if code != 0:
            return secs, 0, [f"decompose exited {code}: {err}"]
        artifact = json.loads(self.fit_json.read_text())
        records = json.loads(self.dec_json.read_text())
        return secs, 0, oracle.check_cli_records(artifact, records,
                                                    4 * self.REQUESTS)

    def round(self, layer: bool = False):
        return [("fit", self.op_fit), ("decompose", self.op_decompose)]


# -- effect_tables ----------------------------------------------------------

class EffectTables:
    """A library session: systems fitted once, then effect tables."""

    name = "effect_tables"
    kinds = {"primary": "table", "secondary": "reduced"}
    work_kinds = ("table", "reduced")
    work_unit = "effect rows"
    KS = (2, 3, 4, 5)
    REDUCED_KS = (2, 3)        # marginalize_inner cost grows ~4x per mediator
    LAYER_KS = (2, 3, 4)
    N_RECORDS = 5000
    N_APE = 2000
    setup_needs_inputs = True
    SCALES = ("logodds", "probability")
    LEVELS = (0.0, 1.0)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def generate(self):
        rng = np.random.default_rng([self.seed, 2])
        self.docs, self.data = {}, {}
        for k in self.KS:
            doc = chain_doc(k)
            coefs = draw_coefficients(doc, rng)
            x = (rng.random(self.N_RECORDS) < 0.5).astype(float)
            self.docs[k] = doc
            self.data[k] = draw_records(doc, coefs, x, rng)
        doc = chain_doc(1, treatment="continuous")
        coefs = draw_coefficients(doc, rng)
        x = rng.normal(0.0, 1.2, self.N_APE)
        self.ape_doc = doc
        self.ape_data = draw_records(doc, coefs, x, rng)

    def setup(self):
        import logitpath as lp
        self.fitted = {}
        for k in self.KS:
            spec = lp.SystemSpec.from_json_dict(self.docs[k])
            self.fitted[k] = lp.fit_system(
                lp.Dataset.from_records(self.data[k]), spec)
        spec = lp.SystemSpec.from_json_dict(self.ape_doc)
        self.ape_dataset = lp.Dataset.from_records(self.ape_data)
        self.ape_fitted = lp.fit_system(self.ape_dataset, spec)
        self.requests = [lp.EffectRequest.contrast(1, 0, {"C": c}, scale)
                         for scale in self.SCALES for c in self.LEVELS]

    def _oracle(self, k):
        fitted = self.fitted[k]
        return oracle.Oracle(fitted.spec.to_json_dict(),
                             fitted.params.nested())

    def op_table(self, k: int, reduced: bool):
        from logitpath import inference, multi
        mediators = k - 1 if reduced else k
        paths = sorted({(1,), (mediators,)})
        transform = multi.marginalize_inner if reduced else None
        secs, table = _timed(lambda: inference.effect_table(
            self.fitted[k], self.requests, paths=paths, transform=transform))
        where = f"{'reduced ' if reduced else ''}table k={k}"
        problems = oracle.check_table(self._oracle(k), table, self.requests,
                                      len(paths), where)
        return secs, len(table.rows), problems

    def op_ape(self):
        from logitpath import effects
        secs, ape = _timed(lambda: effects.average_probability_effects(
            self.ape_fitted.params, self.ape_dataset))
        fitted = self.ape_fitted
        orc = oracle.Oracle(fitted.spec.to_json_dict(), fitted.params.nested())
        covs = [{"C": c} for c in self.ape_data["C"].tolist()]
        return secs, 0, oracle.check_ape(orc, ape, self.ape_data["X"].tolist(),
                                         covs)

    def op_transform(self, k: int):
        """The `marginalize` subcommand's path: transform_fitted."""
        from logitpath import inference, multi
        secs, (reduced, _) = _timed(lambda: inference.transform_fitted(
            self.fitted[k], multi.marginalize_inner))
        orc = self._oracle(k)
        red = oracle.Oracle(reduced.spec.to_json_dict(), reduced.params.nested())
        problems = []
        for c in self.LEVELS:
            a = orc.total_effect(1, 0, {"C": c}, "logodds")
            b = red.total_effect(1, 0, {"C": c}, "logodds")
            if not abs(a - b) <= oracle.ORACLE_TOL:
                problems.append(f"transform k={k} C={c}: TE {b!r} != {a!r}")
        blocks = [np.asarray(b) for b in reduced.cov_blocks.values()]
        if not all(np.all(np.isfinite(b)) for b in blocks):
            problems.append(f"transform k={k}: non-finite covariance")
        return secs, 0, problems

    def round(self, layer: bool = False):
        ks = self.LAYER_KS if layer else self.KS
        ops = [("table", lambda k=k: self.op_table(k, False)) for k in ks]
        ops += [("reduced", lambda k=k: self.op_table(k, True))
                for k in self.REDUCED_KS[:1 if layer else None]]
        ops.append(("ape", self.op_ape))
        if layer:
            ops.append(("transform", lambda: self.op_transform(3)))
        return ops


# -- study -------------------------------------------------------------------

class Study:
    """`run_study` on the KHB comparison grid, one call per treatment kind."""

    name = "study"
    kinds = {"primary": "binary", "secondary": "continuous"}
    work_kinds = ("binary", "continuous")
    work_unit = "replications"
    BETAS = (0.4, 1.8)          # non-negative multiples of 0.001
    SIZES = (250, 1000)
    REPLICATIONS = 100
    LAYER_REPLICATIONS = 50
    TRUTH = {"beta0": -2.0, "beta_w": 2.0, "gamma0": -2.0, "gamma_x": 2.0}
    setup_needs_inputs = False

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.calls = 0

    def generate(self):
        """Nothing to make: the study draws its own data from the study
        seed, which `op_study` derives from the run seed per call."""

    def setup(self):
        import logitpath.simulation  # noqa: F401

    def op_study(self, kind: str, replications: int):
        from logitpath import simulation
        self.calls += 1
        seed = int(np.random.SeedSequence(
            [self.seed, 3, self.calls]).generate_state(1)[0])
        grid = {"seed": seed, "replications": replications,
                "treatment": [kind], "beta_x": list(self.BETAS),
                "n": list(self.SIZES), **self.TRUTH}
        secs, results = _timed(lambda: simulation.run_study(grid))
        problems = oracle.check_study(results, kind, self.BETAS, self.SIZES,
                                      replications, self.TRUTH,
                                      EXCLUSION_LIMIT)
        work = replications * len(self.BETAS) * len(self.SIZES)
        return secs, work, problems

    def round(self, layer: bool = False):
        reps = self.LAYER_REPLICATIONS if layer else self.REPLICATIONS
        return [(kind, lambda kind=kind: self.op_study(kind, reps))
                for kind in self.work_kinds]


WORKLOADS = {w.name: w for w in (CliRecords, EffectTables, Study)}
