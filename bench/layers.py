"""Per-layer measurement: trace wrappers, layer sweeps and the import split.

`Tracer` replaces the module and class attributes that logitpath's own
callers look up at call time (`from .fitting import irls` binds
`logitpath.simulation.irls`, so that is the attribute wrapped) with
wrappers that record spans or counts, and puts the originals back on
`uninstall`.  Spans are kept in memory as [name, start, end, parent, op]
and written out once, at the end of the run.  Hot inner calls are counted,
not timed.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

import numpy as np

import workloads

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()          # (op kind, name) -> calls
        self.returns = defaultdict(list)  # (op kind, name) -> return values
        self.op_kinds = []               # op id -> op kind
        self._stack = []
        self._patches = []

    @property
    def kind(self):
        return self.op_kinds[-1] if self.op_kinds else None

    def run_op(self, kind: str, fn):
        """Run one benchmark op as the root span of its own op id."""
        self.op_kinds.append(kind)
        return self._timed(fn, "op." + kind)()

    def _timed(self, fn, name, keep_return=False):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0,
                          stack[-1] if stack else -1, len(self.op_kinds) - 1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][END] = time.perf_counter()
            if keep_return:
                self.returns[(self.kind, name)].append(out)
            return out
        return wrapper

    def _counted(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[(self.kind, name)] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr, make):
        raw = vars(owner)[attr]
        static = isinstance(raw, staticmethod)
        wrapped = make(raw.__func__ if static else raw)
        setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
        self._patches.append((owner, attr, raw))

    def install(self):
        from logitpath import (cli, effects, fitting, inference, model, multi,
                               simulation)
        FS, PS = fitting.FittedSystem, model.ParameterSet
        timed = [
            (fitting.Dataset, "load", "fitting.load"),
            (fitting, "design_matrix", "fitting.design"),
            (cli, "fit_system", "fitting.fit_system"),
            (FS, "to_json_dict", "fitting.artifact_io"),
            (FS, "from_json_dict", "fitting.artifact_io"),
            (cli, "effect_table", "inference.effect_table"),
            (inference, "effect_table", "inference.effect_table"),
            (inference, "delta_se", "inference.delta_se"),
            (FS, "covariance_matrix", "inference.covariance"),
            (inference, "transform_fitted", "inference.transform_fitted"),
            (multi, "marginalize_inner", "multi.marginalize_inner"),
            (effects, "average_probability_effects", "effects.ape"),
            (simulation, "run_study", "simulation.run_study"),
            (simulation, "true_value", "simulation.true_value"),
            (simulation, "fixed_treatment_sample",
             "simulation.fixed_treatment_sample"),
        ]
        for owner, attr, name in timed:
            self._patch(owner, attr, lambda f, n=name: self._timed(f, n))
        for owner in (fitting, simulation):
            self._patch(owner, "irls",
                        lambda f: self._timed(f, "fitting.irls", True))
        self._patch(simulation, "run_cell",
                    lambda f: self._timed(f, "simulation.run_cell", True))
        counted = [
            (inference, "marginal_logit_multi", "multi.marginal_logit_multi"),
            (PS, "from_vector", "model.from_vector"),
            (PS, "linear_predictor", "model.linear_predictor"),
            (effects, "decompose", "effects.decompose"),
        ]
        for owner, attr, name in counted:
            self._patch(owner, attr, lambda f, n=name: self._counted(f, n))

    def uninstall(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- reading the spans back ---------------------------------------------

    def durations(self, name, kinds):
        return [s[END] - s[START] for s in self.spans
                if s[NAME] == name and self.op_kinds[s[OP]] in kinds]

    def self_times(self, name, kinds):
        """Span duration minus the time its child spans cover."""
        child = defaultdict(float)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - child[i] for i, s in enumerate(self.spans)
                if s[NAME] == name and self.op_kinds[s[OP]] in kinds]

    def count(self, name, kinds):
        return sum(v for (k, n), v in self.counts.items()
                   if n == name and k in kinds)

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "start": s[START],
                                     "end": s[END], "parent": s[PARENT],
                                     "op": s[OP],
                                     "op_kind": self.op_kinds[s[OP]]}) + "\n")
            fh.write(json.dumps({"counts": {f"{k}/{n}": v for (k, n), v
                                            in sorted(self.counts.items())}})
                     + "\n")


def layer_metrics(tr: Tracer, cli_requests: int, cli_params: int):
    """Per-layer numbers from one traced layer pass, as (value, unit),
    and the problems found checking the evaluation count."""
    cli = ("cli_records.fit", "cli_records.decompose")
    tables = ("effect_tables.table",)
    study = ("study.binary", "study.continuous")
    irls = tr.durations("fitting.irls", study)
    irls_out = [r for k in study for r in tr.returns[(k, "fitting.irls")]]
    cells = [r for k in study for r in tr.returns[(k, "simulation.run_cell")]]
    rows = len(tr.durations("inference.delta_se", tables))
    per_request = tr.count("multi.marginal_logit_multi",
                           ("cli_records.decompose",)) / cli_requests
    out = {
        "fitting.load_s": (sum(tr.durations("fitting.load", cli)), "s"),
        "fitting.design_s": (sum(tr.durations("fitting.design", cli)), "s"),
        "fitting.fit_system_s": (sum(tr.durations("fitting.fit_system", cli)), "s"),
        "fitting.artifact_io_s": (sum(tr.durations("fitting.artifact_io", cli)), "s"),
        "fitting.irls_calls": (len(irls), "count"),
        "fitting.irls_s.p50": (statistics.median(irls), "s"),
        "fitting.irls_iterations.mean": (
            statistics.fmean(r[3] for r in irls_out), "count"),
        "fitting.irls_converged_ratio": (
            statistics.fmean(bool(r[4]) for r in irls_out), "ratio"),
        "simulation.run_cell_s": (
            statistics.median(tr.durations("simulation.run_cell", study)), "s"),
        "simulation.true_value_s": (
            sum(tr.durations("simulation.true_value", study)), "s"),
        "simulation.fixed_treatment_sample_s": (
            sum(tr.durations("simulation.fixed_treatment_sample", study)), "s"),
        "simulation.self_s": (
            sum(tr.self_times("simulation.run_cell", study)), "s"),
        "simulation.kept_ratio": (
            sum(c.replications - c.excluded for c in cells)
            / sum(c.replications for c in cells), "ratio"),
        "inference.logit_evals_per_row": (
            tr.count("multi.marginal_logit_multi", tables) / rows, "count"),
        "inference.logit_evals_per_request": (per_request, "count"),
        "inference.delta_se_s.p50": (
            statistics.median(tr.durations("inference.delta_se", tables)), "s"),
        "inference.covariance_s": (statistics.median(
            tr.durations("inference.covariance", tables)), "s"),
        "model.from_vector_calls": (tr.count("model.from_vector", tables), "count"),
        "model.linear_predictor_calls": (
            tr.count("model.linear_predictor", tables), "count"),
        "multi.marginalize_inner_s": (statistics.median(tr.durations(
            "multi.marginalize_inner", ("effect_tables.reduced",))), "s"),
        "inference.transform_fitted_s": (sum(tr.durations(
            "inference.transform_fitted", ("effect_tables.transform",))), "s"),
        "effects.decompose_calls": (
            tr.count("effects.decompose", ("effect_tables.ape",)), "count"),
        "effects.ape_s": (
            sum(tr.durations("effects.ape", ("effect_tables.ape",))), "s"),
    }
    # delta_se evaluates 2p+1 points, each 12 marginal logits: TE, DE and
    # IE take 2 apiece, RES re-evaluates all three
    expected = 12 * (2 * cli_params + 1)
    problems = [] if per_request == expected else [
        f"trace: {per_request} marginal_logit_multi calls per request, "
        f"expected 12*(2p+1) = {expected}"]
    return out, problems


# -- sweeps and the import split ------------------------------------------

def _per_call(fn, budget_s=0.05, batches=7):
    """Median seconds per call over `batches` batches of ~budget/batches."""
    t0 = time.perf_counter()
    fn()
    one = max(time.perf_counter() - t0, 1e-7)
    size = max(1, int(budget_s / batches / one))
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(size):
            fn()
        times.append((time.perf_counter() - t0) / size)
    return statistics.median(times)


def sweeps(seed: int):
    """marginal_logit_multi at k = 1..8 and irls at n = 500, p = 2, 3.
    Each marginal logit is checked against the enumeration."""
    import oracle
    from logitpath import ParameterSet, SystemSpec, fitting, multi
    rng = np.random.default_rng([seed, 4])
    out, problems = {}, []
    for k in range(1, 9):
        doc = workloads.chain_doc(k)
        coefs = workloads.draw_coefficients(doc, rng)
        params = ParameterSet.from_nested(SystemSpec.from_json_dict(doc), coefs)
        got = multi.marginal_logit_multi(params, 1, {"C": 1.0})
        p = oracle.Oracle(doc, coefs).prob(1, {"C": 1.0})
        if not abs(got - np.log(p / (1 - p))) <= oracle.ORACLE_TOL:
            problems.append(f"sweep k={k}: marginal logit {got!r} off")
        out[f"multi.marginal_logit_s.k{k}"] = (_per_call(
            lambda: multi.marginal_logit_multi(params, 1, {"C": 1.0})), "s")
    n = 500
    x = (rng.random(n) < 0.5).astype(float)
    w = (rng.random(n) < workloads._expit(-0.5 + x)).astype(float)
    y = (rng.random(n) < workloads._expit(-1.0 + 0.8 * x + 1.2 * w)).astype(float)
    ones = np.ones(n)
    for p, X in ((2, np.column_stack([ones, x])),
                 (3, np.column_stack([ones, x, w]))):
        if not fitting.irls(X, y, ones)[4]:
            problems.append(f"sweep irls p={p}: not converged")
        out[f"fitting.irls_s.n500p{p}"] = (
            _per_call(lambda X=X: fitting.irls(X, y, ones)), "s")
    return out, problems


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)$")


def import_split():
    """Import costs from a `-X importtime` child that imports numpy, then
    logitpath.cli.  The floor is everything but logitpath: interpreter
    start-up, numpy and exit."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         "import numpy; import logitpath.cli"],
        env=workloads.child_env(), cwd=workloads.ROOT,
        capture_output=True, text=True, timeout=workloads.CHILD_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"import child failed: {proc.stderr[-300:]}")
    entries = []
    for line in proc.stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            entries.append((len(m.group(3)) // 2, m.group(4), int(m.group(2))))
    cli_us = sum(cum for depth, name, cum in entries
                 if depth == 0 and name.split(".")[0] == "logitpath")
    # importtime lists children before parents; a module's scipy cost is
    # its own cumulative time if it is in scipy, else its children's
    stack = []
    for depth, name, cum in entries:
        inner = 0
        while stack and stack[-1][0] > depth:
            inner += stack.pop()[1]
        stack.append((depth, cum if name.split(".")[0] == "scipy" else inner))
    scipy_us = sum(v for _, v in stack)
    return {"import.cli_s": (cli_us / 1e6, "s"),
            "import.scipy_s": (scipy_us / 1e6, "s"),
            "import.floor_s": (wall - cli_us / 1e6, "s")}
