"""Output checks that share no code with logitpath.

Everything here works from plain documents: a model document (the JSON
form of a system: variables and equations) and nested coefficients
{response: {column label: value}}.  Marginal probabilities come from a
brute-force sum of the joint law over all 2^k mediator states, using only
`math`, so a defect in the package's recursive marginalization cannot hide
behind the same defect here.

Every `check_*` function returns a list of problem strings; an empty list
means the output passed.
"""

from __future__ import annotations

import copy
import itertools
import math
import re

ADDITIVITY_TOL = 1e-9
ORACLE_TOL = 1e-9
DERIVATIVE_TOL = 1e-7
DERIVATIVE_STEP = 1e-5

_LEVEL = re.compile(r"^(?P<name>[^{}:]+)\{(?P<lvl>[^{},]+),[^{},]+\}$")
_COMPONENTS = {
    "logodds": ("DE", ("IE", "GIE"), "RES", "TE"),
    "probability": ("DPE", ("IPE", "GIPE"), "RPE", "TPE"),
}


def _expit(t: float) -> float:
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def _same_level(value, level: str) -> bool:
    try:
        return float(value) == float(level)
    except (TypeError, ValueError):
        return str(value) == level


def _parse_label(label: str):
    if label == "1":
        return ()
    factors = []
    for piece in label.split(":"):
        m = _LEVEL.match(piece)
        factors.append((m.group("name"), m.group("lvl")) if m else (piece, None))
    return tuple(factors)


class Oracle:
    """P(Y=1 | X=x, covariates) of a system by enumeration."""

    def __init__(self, model_doc: dict, coefficients: dict):
        variables = model_doc["variables"]
        self.outcome = next(v["name"] for v in variables if v["role"] == "outcome")
        self.treatment = next(v["name"] for v in variables
                              if v["role"] == "treatment")
        self.mediators = [v["name"] for v in sorted(
            (v for v in variables if v["role"] == "mediator"),
            key=lambda v: v["index"])]
        self.equations = {resp: [(_parse_label(label), float(coef))
                                 for label, coef in labels.items()]
                          for resp, labels in coefficients.items()}

    def _lp(self, response: str, assign: dict) -> float:
        total = 0.0
        for factors, coef in self.equations[response]:
            v = 1.0
            for name, lvl in factors:
                x = assign[name]
                v *= float(x) if lvl is None else float(_same_level(x, lvl))
            total += coef * v
        return total

    def prob(self, x, covariates=None) -> float:
        base = {self.treatment: x, **(covariates or {})}
        total = 0.0
        for state in itertools.product((0, 1), repeat=len(self.mediators)):
            assign = {**base, **dict(zip(self.mediators, state))}
            p = _expit(self._lp(self.outcome, assign))
            for name, w in zip(self.mediators, state):
                q = _expit(self._lp(name, assign))
                p *= q if w else 1.0 - q
            total += p
        return total

    def total_effect(self, x1, x0, covariates, scale: str) -> float:
        p1, p0 = self.prob(x1, covariates), self.prob(x0, covariates)
        if scale == "probability":
            return p1 - p0
        return _logit(p1) - _logit(p0)

    def without(self, response: str, variable: str) -> "Oracle":
        """Copy with every term of ``response`` containing ``variable``
        dropped (the package's indirect mask, restated)."""
        out = copy.copy(self)
        out.equations = dict(self.equations)
        out.equations[response] = [
            (f, c) for f, c in self.equations[response]
            if variable not in {name for name, _ in f}]
        return out


def _close(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= tol


def check_block(oracle: Oracle, rows, x1, x0, covariates, scale: str,
                where: str) -> list:
    """One request's rows, given as (effect name, estimate, se) triples in
    table order: additivity, TE against the enumeration, finite SEs."""
    problems = []
    names = _COMPONENTS[scale]
    if len(rows) < 4:
        return [f"{where}: {len(rows)} rows, expected at least 4"]
    for (name, _, _), want in zip(rows[:4], names):
        if name not in (want if isinstance(want, tuple) else (want,)):
            problems.append(f"{where}: row {name!r}, expected {want!r}")
    de, ie, res, te = (r[1] for r in rows[:4])
    if not _close(de + ie + res, te, ADDITIVITY_TOL):
        problems.append(f"{where}: DE+IE+RES={de + ie + res!r} != TE={te!r}")
    truth = oracle.total_effect(x1, x0, covariates, scale)
    if not _close(te, truth, ORACLE_TOL):
        problems.append(f"{where}: TE {te!r} != enumeration {truth!r}")
    for name, est, se in rows:
        if not (math.isfinite(est) and math.isfinite(se) and se >= 0.0):
            problems.append(f"{where}: {name} estimate {est!r} se {se!r}")
    return problems


def _parse_covariates(text: str) -> dict:
    if not text:
        return {}
    return {k.strip(): float(v) for k, v in
            (part.split("=") for part in text.split(","))}


def check_cli_records(artifact: dict, records: list, expected_rows: int) -> list:
    """The JSON output of `decompose` against the fitted artifact it came
    from.  The scale of a row follows from its effect name."""
    oracle = Oracle(artifact["spec"], artifact["params"])
    if len(records) != expected_rows:
        return [f"cli: {len(records)} rows, expected {expected_rows}"]
    problems = []
    for start in range(0, len(records), 4):
        block = records[start:start + 4]
        scale = "probability" if block[0]["effect"] == "DPE" else "logodds"
        a, b = (p.strip() for p in block[0]["contrast"].split("vs"))
        problems += check_block(
            oracle, [(r["effect"], r["estimate"], r["se"]) for r in block],
            float(a), float(b), _parse_covariates(block[0]["covariates"]),
            scale, f"cli {block[0]['contrast']} {block[0]['covariates']}")
    return problems


def check_table(oracle: Oracle, table, requests, n_paths: int,
                where: str) -> list:
    """An EffectTable against the enumeration of the original (unreduced)
    system: for a marginalize_inner table this is the check that the
    reduced TE equals the unreduced one."""
    per = 4 + n_paths
    if len(table.rows) != per * len(requests):
        return [f"{where}: {len(table.rows)} rows, expected "
                f"{per * len(requests)}"]
    problems = []
    for i, req in enumerate(requests):
        chunk = table.rows[i * per:(i + 1) * per]
        rows = [(r.effect, r.estimate.value, r.estimate.se) for r in chunk]
        problems += check_block(oracle, rows, req.x1, req.x0,
                                dict(req.covariates), req.scale,
                                f"{where} request {i}")
    return problems


def check_ape(oracle: Oracle, ape, xs, covariate_rows) -> list:
    """ATPE against the mean central-difference derivative of the
    enumerated P(Y=1 | x, c) over the data rows."""
    h = DERIVATIVE_STEP
    total = 0.0
    for x, covs in zip(xs, covariate_rows):
        total += (oracle.prob(x + h, covs) - oracle.prob(x - h, covs)) / (2 * h)
    atpe = total / len(xs)
    problems = []
    if not _close(ape[0], atpe, DERIVATIVE_TOL):
        problems.append(f"ape: ATPE {ape[0]!r} != enumeration {atpe!r}")
    if not all(math.isfinite(v) for v in ape):
        problems.append(f"ape: non-finite result {ape!r}")
    return problems


def binary_study_share(cfg: dict) -> float:
    """IE/TE on the log-odds scale of the study's two-equation truth,
    {1, 0} contrast, by enumeration."""
    doc = {"variables": [
        {"name": "Y", "role": "outcome"}, {"name": "X", "role": "treatment"},
        {"name": "W", "role": "mediator", "index": 1}]}
    full = Oracle(doc, {
        "Y": {"1": cfg["beta0"], "X": cfg["beta_x"], "W": cfg["beta_w"]},
        "W": {"1": cfg["gamma0"], "X": cfg["gamma_x"]}})
    te = full.total_effect(1.0, 0.0, {}, "logodds")
    ie = full.without("Y", "X").total_effect(1.0, 0.0, {}, "logodds")
    return ie / te


def check_study(results, kind: str, betas, sizes, replications: int,
                truth: dict, exclusion_limit: float) -> list:
    problems = []
    cells = [(r.kind, r.beta_x, r.n) for r in results]
    want = [(kind, b, n) for b in betas for n in sizes]
    if cells != want:
        return [f"study: cells {cells}, expected {want}"]
    for r in results:
        where = f"study {r.kind}/beta_x={r.beta_x}/n={r.n}"
        stats = [r.true_value, r.rsd.average, r.rsd.variance, r.rsd.rmse,
                 r.khb.average, r.khb.variance, r.khb.rmse]
        if not all(math.isfinite(v) for v in stats):
            problems.append(f"{where}: non-finite statistic in {stats}")
        if r.replications != replications:
            problems.append(f"{where}: {r.replications} replications")
        if not 0 <= r.excluded <= exclusion_limit * replications:
            problems.append(f"{where}: {r.excluded} excluded")
        if r.kind == "binary":
            share = binary_study_share({**truth, "beta_x": r.beta_x})
            if not _close(r.true_value, share, ORACLE_TOL):
                problems.append(f"{where}: true value {r.true_value!r} != "
                                f"enumeration {share!r}")
    return problems
