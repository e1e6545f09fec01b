"""Check that two source trees give the same effect, study and fit numbers.

Fits seeded chain systems (k = 1..5 mediators; binary, categorical and
continuous treatments; binary and categorical covariates) and dumps every
number that the effect layer reports: contrast and derivative tables with
PSIE paths on both scales, inner- and outer-reduced tables, the reduced
coefficients, full covariance and cross covariance of
``transform_fitted``, the average probability effects, and the tables and
transforms of summing out each of W1, W2, W3 of a k = 3 system.  Direct
library calls on seeded coefficients are dumped too: ``decompose``
(k = 1..4, both scales, contrasts and derivatives, at an array of
derivative points of a k = 3 continuous system, and at rows of contrast
settings of a k = 3 binary system, its categorical C an object array),
``psie`` on every
monotone path of a k = 3 system, ``deltas`` (with a categorical treatment
too, and at an array of continuous treatment values), ``g_recursive``
(every j of a k = 4 system with ``w_above`` and a categorical covariate
too), ``marginal_logit_multi`` on a system with no mediators and the DE
and IE ``component_mask`` vectors.  The study and the fit are dumped too:
``run_study`` on a small seeded grid (binary and continuous treatments,
beta_x 0.4 and 1.8, n 250 and 1000, 30 replications), its binary and its
continuous cells as two entries, then its binary cells at n 5, 12 and
40 (200 replications, with the exclusion limit lifted so that every
cell reports its kept replications: small samples leave (x, w, y) cells
empty and designs singular), and its continuous cells at n 12 and 40
(200 replications, the limit lifted: many fits in a chunk of
replications separate), the draws behind a study (``generate_data``'s
columns for the first, middle and last of 100 replications of a binary
and of a continuous cell, and for replication 1000 of each) and
continuous truths at two seeds, and every field ``irls`` returns on
seeded weighted designs, some with zero counts, some needing
step-halvings, and one whose step halving cannot rescue, then on the
same designs with unit weights, most of whose fits stop on the score
test.  The data path
is dumped too: every number of ``fit_system`` on seeded files that
``Dataset.load`` reads, a CSV with a count column whose categorical X is
written "2" or "2.0" at random, a JSON rows file, and a JSON rows file
whose every value and count is written as a float (1.0, 0.0, 2.0); then
``run_study`` on a grid whose one size is written 250.0.  Every
reduction is spelled ``marginalize(params, j)``, and every reduction is
dumped twice: of ``fit_system``'s fits, and of the same fits on rows
(``fit_on_rows``), which no change to the route of a fit moves.
Run the dump once per tree, then compare:

    PYTHONPATH=src python tools/same_numbers.py dump A.json   # tree A
    PYTHONPATH=src python tools/same_numbers.py dump B.json   # tree B
    python tools/same_numbers.py compare A.json B.json

``compare`` exits 1 when a bound fails; an entry found in only one dump
is listed and fails nothing.  The tables of continuous-treatment fits,
the APE, the direct calls, the draws, the ``irls`` fields and the
continuous study cells must be bit-identical (``compare`` prints the
count of numbers that differ, and the largest absolute difference beside
a count above 0), and so must the small-n
continuous cells but for their KHB statistics.  Every number of a fit of
discrete data by ``fit_system`` (the data path fits, the tables of
binary- and categorical-treatment fits, and the reduced tables and
transforms of those fits) is one group, held within 3e-8 of 1 + |a|
(``DISCRETE_BOUND``, a relative bound above 1 and an absolute one
below; a changed flag or count fails it): ``fit_system`` may fit such
data on its n rows or on its distinct rows weighted by their counts,
and the two fits of one likelihood stop at different points within the
fit's stopping rule.  Against that change the largest move measured was
1.55e-8 of 1 + |a| (2.7e-8 absolute, in a coefficient of the transform
inner binary k=4), and every flag, iteration count and n stayed equal;
over 90 more seeded fits (``draw_fit`` seeds 100-129 of three discrete
systems) a coefficient moved by at most 2.6e-8 of 1 + |beta|, and by
1.4e-15 in the median fit.  The larger moves are the row fit's: its
log-likelihood over 2,000 rows rounds enough that its last, tiny Newton
step looked like a loss and was halved ten times, which left the
floats.json W2 fit 2.7e-8 from the maximum, where the fit on 48
patterns stopped 1.1e-15 from it.
The binary study cells (``run_study binary``, its small-n cells and the
grid of size 250.0) are held within 1e-8 relative (``STUDY_BOUND``): a
binary replication may be fitted on its n rows, on its at most 8
nonzero (x, w, y) cells, or on the full grid of 4 (x, w) and 8
(x, w, y) cells with an empty one weighted 0, and fits of one
likelihood stop at different points within the fit's stopping rule,
not at rounding.  Against the change from n rows to nonzero cells the
largest relative difference measured in a truth, an rsd statistic or an
exclusion count was 2.1e-10 on these grids, 1.9e-9 on the benchmark's
grids (100 replications, seeds 1-5) and 9.6e-10 on the acceptance grid,
with every exclusion count and truth equal.  The full grid moves only
fits with an empty cell, which small samples leave: it moved 10 numbers
of the small-n binary cells by at most 1.6e-10 relative and 10 of
their KHB statistics by at most 4.2e-9 (4.35e-8 absolute), and nothing
else.  Reading a binary cell's W ~ X off its (x, w) counts, the exact
maximum where Newton stopped up to 1.3e-8 relative short of it, kept
every truth, exclusion count and KHB statistic; it moved rsd statistics
by at most 2.3e-10 relative on these grids' binary cells, 1.4e-9 on the
benchmark's grids and 9.2e-11 on the acceptance grid (seeds 17 and 18),
but by 2.39e-8 in the small-n binary cells, beyond ``STUDY_BOUND``: in
the beta_x 0.4, n 40 cell, replication 94 has a total effect near 0
(share -22.7 against a truth of 0.72), so the 1.6e-9 by which Newton's
gamma0 stopped short of log(n01 / n00) (a score of -5.3e-9, where the
log odds give 0) moves its share by 2.5e-8 relative and the cell's
variance by 2.39e-8.  Dumps from the two sides of that change fail on
that entry alone.  Each study cell's KHB statistics (average, variance, RMSE) are a
group of their own, held within 2e-8 relative (``KHB_BOUND``; in either
group a number that does not move counts 0, a variance of 0 too): the
reduced model's coefficients may come from a fit of the residualized
design or from the full fit rewritten in its coordinates, and the two stop at
different points within the fit's stopping rule.  Against that change
of route the largest relative difference measured was 1.9e-9 on these
grids, 1.4e-8 on the benchmark's grids and 6.4e-10 on the acceptance
grid; against the change to patterns, 1.2e-10, 2.3e-9 and 1.4e-9.  A
continuous cell's KHB share drops an average-partial-effect factor
that cancels out of its ratio, which moves it by rounding only (at
most 1.1e-15 relative on these grids), and takes the OLS fits (a, b)
of a chunk of replications from one product with the design's
pseudo-inverse, not from one ``lstsq`` per replication, which moves it
by rounding only (at most 3.6e-15 relative on these grids, 9.8e-16 on
the acceptance grid and the benchmark's grids).  A
reduction's corner sums may add their rows in another order, so
reductions of fits on rows are held to rounding instead: reduced
coefficients within 1e-14, and every entry of the full reduced
covariance, between equations too, within 1e-11 of sqrt(c_ii c_jj),
with no central difference on either side (``compare`` prints the
cross covariance's difference beside them).  Reduced-table
values are held within 1e-14 absolute and their SEs within 2e-8
relative, since a table row still takes central differences.
"""

import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

N_RECORDS = 5000
N_APE = 2000
KHB_BOUND = 2e-8
STUDY_BOUND = 1e-8
DISCRETE_BOUND = 3e-8


def chain_spec(k, treatment="binary", covariate="binary"):
    from logitpath import SystemSpec, VariableSpec
    variables = [VariableSpec("Y", "outcome", "binary")]
    variables += [VariableSpec(f"W{j}", "mediator", "binary", mediator_index=j)
                  for j in range(1, k + 1)]
    variables.append(VariableSpec("X", "treatment", treatment,
                                  levels=(1, 2, 3) if treatment == "categorical"
                                  else ()))
    variables.append(VariableSpec("C", "covariate", covariate,
                                  levels=("a", "b", "c")
                                  if covariate == "categorical" else ()))
    meds = [f"W{j}" for j in range(1, k + 1)]
    equations = {"Y": ["1", "X", "C"] + meds + ["X:W1"] * (k > 0)}
    for j in range(1, k + 1):
        equations[f"W{j}"] = ["1", "X", "C"] + meds[j:]
    return SystemSpec.build(variables, equations)


def fit_on_rows(data, spec):
    """``fit_logistic`` on the rows of each equation, assembled as
    ``fit_system`` assembles its fits: ``fit_system`` itself on data
    with a continuous variable, whatever route it takes for discrete
    data."""
    from logitpath import FittedSystem, ParameterSet, fit_logistic
    from logitpath.fitting import block_covariance
    fits = {resp: fit_logistic(data, spec, resp) for resp in spec.responses}
    params = ParameterSet(spec, np.concatenate(
        [fits[resp].coef for resp in spec.responses]))
    covariance = block_covariance(
        spec, {resp: d.cov for resp, d in fits.items()})
    return FittedSystem(spec, params, covariance, fits, data.n)


def draw_fit(seed, k, treatment="binary", covariate="binary", n=N_RECORDS,
             rows=False):
    """Fit ``chain_spec`` to records drawn from seeded coefficients, by
    ``fit_system`` or, with ``rows``, by ``fit_on_rows``."""
    from logitpath import Dataset, ParameterSet, expit, fit_system
    spec = chain_spec(k, treatment, covariate)
    rng = np.random.default_rng([seed, k])
    truth = ParameterSet.from_vector(
        spec, [rng.normal(0.0, 0.6) for _ in spec.flat_coords])

    def draw(var):
        if var.kind == "categorical":
            return np.array(var.levels, dtype=object)[
                rng.integers(0, len(var.levels), n)]
        if var.kind == "binary":
            return (rng.random(n) < 0.5).astype(float)
        return rng.normal(0.0, 1.2, n)

    cols = {"X": draw(spec.treatment), "C": draw(spec.variable("C"))}
    for resp in [m.name for m in reversed(spec.mediators)] + ["Y"]:
        p = expit(np.broadcast_to(truth.linear_predictor(resp, cols), n))
        cols[resp] = (rng.random(n) < p).astype(float)
    fit = fit_on_rows if rows else fit_system
    return fit(Dataset.from_records(cols), spec), cols


def covariate_values(spec):
    var = spec.variable("C")
    return var.levels if var.kind == "categorical" else (0.0, 1.0)


def requests(spec):
    from logitpath import EffectRequest
    out = []
    for scale in ("logodds", "probability"):
        for c in covariate_values(spec):
            if spec.treatment.kind == "continuous":
                out += [EffectRequest.derivative(at, {"C": c}, scale)
                        for at in (-0.5, 0.7)]
                out.append(EffectRequest.contrast(1.0, -0.5, {"C": c}, scale))
            elif spec.treatment.kind == "categorical":
                out += [EffectRequest.contrast(2, 1, {"C": c}, scale),
                        EffectRequest.contrast(3, 1, {"C": c}, scale)]
            else:
                out.append(EffectRequest.contrast(1, 0, {"C": c}, scale))
    return out


def table_numbers(fitted, transform=None):
    from logitpath import effect_table
    spec = transform(fitted.params).spec if transform else fitted.spec
    k = len(spec.mediators)
    paths = sorted({(1,), (k,)})
    table = effect_table(fitted, requests(spec), paths=paths,
                         transform=transform)
    return [[r["estimate"], r["se"], r["ci_low"], r["ci_high"], r["p_value"]]
            for r in table.to_records()]


def transform_numbers(fitted, transform):
    """Reduced coefficients, full covariance and cross covariance."""
    from logitpath import transform_fitted
    reduced, cross = transform_fitted(fitted, transform)
    return {"coefficients": reduced.params.vector.tolist(),
            "covariance": reduced.covariance_matrix().tolist(),
            "cross": cross}


def covariance_gap(a, b):
    """max |a_ij - b_ij| / sqrt(a_ii a_jj)."""
    a, b = np.asarray(a), np.asarray(b)
    return np.max(np.abs(a - b) / np.sqrt(np.outer(np.diag(a), np.diag(a))))


def seeded_params(seed, k, treatment="binary", covariate="binary"):
    """Coefficients drawn from a seeded normal, no fit."""
    from logitpath import ParameterSet
    spec = chain_spec(k, treatment, covariate)
    rng = np.random.default_rng([seed, k])
    return ParameterSet.from_vector(
        spec, rng.normal(0.0, 0.6, len(spec.flat_coords)))


def direct_numbers():
    """Numbers of the effect layer called directly, outside the tables."""
    import itertools
    from logitpath import (EffectRequest, decompose, deltas, g_recursive,
                           marginal_logit_multi, psie)
    from logitpath.effects import component_mask
    out = {}
    for k in (1, 2, 3, 4):
        for treatment in ("binary", "continuous"):
            params = seeded_params(8, k, treatment)
            spec = params.spec
            out[f"decompose {treatment} k={k}"] = [
                list(decompose(params, req).components().values())
                for req in requests(spec)]
            out[f"masks {treatment} k={k}"] = [
                component_mask(spec, name).apply(params).vector.tolist()
                for name in ("DE", "IE")]
    params = seeded_params(14, 3, "continuous")
    xs = np.linspace(-1.5, 1.5, 7)
    out["decompose continuous k=3 derivative array"] = [
        [c.tolist() for c in decompose(params, EffectRequest.derivative(
            xs, {"C": c}, scale)).components().values()]
        for scale in ("logodds", "probability") for c in (0.0, 1.0)]
    params = seeded_params(16, 3, "binary", "categorical")
    cs = np.array(["a", "b", "c", "c", "a", "b"], dtype=object)
    out["decompose binary k=3 contrast rows"] = [
        [c.tolist() for c in decompose(params, EffectRequest.contrast(
            1, 0, {"C": cs}, scale)).components().values()]
        for scale in ("logodds", "probability")]
    for treatment in ("binary", "continuous"):
        params = seeded_params(9, 3, treatment)
        paths = [sub for r in (1, 2, 3)
                 for sub in itertools.combinations((1, 2, 3), r)]
        out[f"psie {treatment} k=3"] = [
            [psie(params, path, req) for path in paths]
            for req in requests(params.spec)]
        out[f"g_recursive {treatment} k=3"] = [
            g_recursive(params, j, y, x, {f"W{i}": w[i - j - 1]
                                          for i in range(j + 1, 4)},
                        {"C": c})
            for j in (1, 2, 3) for y in (0, 1) for x in (0.0, 1.0)
            for c in (0.0, 1.0)
            for w in itertools.product((0.0, 1.0), repeat=3 - j)]
        params = seeded_params(10, 1, treatment)
        out[f"deltas {treatment} k=1"] = [
            list(deltas(params, x, {"C": c}))
            for x in (0.0, 1.0) for c in (0.0, 1.0)]
    out["deltas continuous k=1 array"] = [
        [d.tolist() for d in deltas(params, np.linspace(-1.5, 1.5, 7),
                                    {"C": c})] for c in (0.0, 1.0)]
    params = seeded_params(11, 4, "binary", "categorical")
    out["g_recursive binary k=4 C categorical"] = [
        g_recursive(params, j, y, x, {f"W{i}": w[i - j - 1]
                                      for i in range(j + 1, 5)}, {"C": c})
        for j in (1, 2, 3, 4) for y in (0, 1) for x in (0.0, 1.0)
        for c in ("a", "b", "c")
        for w in itertools.product((0.0, 1.0), repeat=4 - j)]
    params = seeded_params(12, 1, "categorical")
    out["deltas categorical k=1"] = [
        list(deltas(params, x, {"C": c}))
        for x in (1, 2, 3) for c in (0.0, 1.0)]
    for treatment, xs in (("binary", (0.0, 1.0)),
                          ("continuous", (0.0, 1.0, -0.5))):
        params = seeded_params(13, 0, treatment)
        out[f"marginal_logit_multi {treatment} k=0"] = [
            marginal_logit_multi(params, x, {"C": c})
            for x in xs for c in (0.0, 1.0)]
    return out


STUDY_GRID = {"seed": 15, "replications": 30,
              "treatment": ["binary", "continuous"], "beta_x": [0.4, 1.8],
              "n": [250, 1000]}


def study_numbers(grid=STUDY_GRID):
    """Every number of each cell of a small seeded ``run_study`` grid, by
    treatment kind: the KHB statistics apart from the rest."""
    from logitpath import run_study
    out = {}
    for r in run_study(grid):
        rows, khb = out.setdefault(r.kind, ([], []))
        rows.append([r.n, r.true_value, *vars(r.rsd).values(), r.excluded])
        khb.append(list(vars(r.khb).values()))
    return out


SMALL_N_GRID = {"seed": 19, "replications": 200, "beta_x": [0.4, 1.8]}
SMALL_N = {"binary": [5, 12, 40], "continuous": [12, 40]}


def small_n_study_numbers(kind):
    """Every number of each ``kind`` cell of ``SMALL_N_GRID`` at the sizes
    ``SMALL_N[kind]``, as (rows, KHB statistics), with ``EXCLUSION_LIMIT``
    lifted: these cells exclude many of their 200 replications (30 to 198
    in a binary cell), and the study would refuse them."""
    from logitpath import simulation
    limit, simulation.EXCLUSION_LIMIT = simulation.EXCLUSION_LIMIT, 1.0
    try:
        return study_numbers({**SMALL_N_GRID, "treatment": [kind],
                              "n": SMALL_N[kind]})[kind]
    finally:
        simulation.EXCLUSION_LIMIT = limit


def draw_numbers():
    """The X, W and Y columns of ``generate_data`` for replications 0, 50
    and 99 of a binary and of a continuous cell, and for replication 1000
    of each (a deep spawn index), then the continuous truths at two
    seeds, each at beta_x 0.4 and 1.8."""
    from logitpath.simulation import SimConfig, generate_data, true_value
    out = {}
    for kind in ("binary", "continuous"):
        config = SimConfig(kind, 0.9, 250, 100, STUDY_GRID["seed"])
        out[f"generate_data {kind}"] = [
            np.asarray(generate_data(config, r).columns[c], float).tolist()
            for r in (0, 50, 99) for c in "XWY"]
        out[f"generate_data {kind} replication 1000"] = [
            np.asarray(generate_data(config, 1000).columns[c], float).tolist()
            for c in "XWY"]
    out["continuous truths"] = [
        true_value(SimConfig("continuous", beta_x, 250, 1, seed))
        for seed in (STUDY_GRID["seed"], SMALL_N_GRID["seed"])
        for beta_x in STUDY_GRID["beta_x"]]
    return out


def irls_numbers(unit=False):
    """Every field ``irls`` returns on seeded weighted designs (a fifth of
    the counts zero; several need step-halvings), then on a design whose
    step halving cannot rescue; with ``unit``, on the same seeded designs
    with unit weights, 43 of whose 60 fits stop on the score test."""
    from logitpath import expit
    from logitpath.fitting import irls
    designs = []
    for seed in range(60):
        rng = np.random.default_rng([seed, 15])
        n, p = int(rng.integers(8, 60)), int(rng.integers(2, 5))
        X = np.column_stack([np.ones(n), rng.normal(
            0.0, 1.0 + 2.0 * rng.random(), (n, p - 1))])
        y = (rng.random(n) < expit(X @ rng.normal(0.0, 2.0, p))).astype(float)
        w = rng.exponential(1.0 + 50.0 * rng.random(), n) * (
            rng.random(n) > 0.2)
        designs.append((X, y, np.ones(n) if unit else w))
    if not unit:
        designs.append((np.column_stack([
            np.ones(6), [-0.808, 0.079, -0.254, -0.626, -0.078, -1.923],
            [-0.982, 0.976, 1.363, 0.877, -0.465, 1.182]]),
            np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0]),
            np.array([0.00106, 0.0152, 140.0, 88.0, 0.00617, 0.00138])))
    out = []
    for X, y, w in designs:
        beta, H, loglik, iterations, converged, separation = irls(X, y, w)
        out += [*beta, *H.ravel(), loglik, iterations, converged, separation]
    return out


def fit_numbers(fitted):
    """Coefficients, covariance, n and every diagnostic of a fit."""
    out = [*fitted.params.vector, *fitted.covariance_matrix().ravel(),
           fitted.n]
    for d in fitted.diagnostics.values():
        out += [d.loglik, d.iterations, d.converged, d.separation]
    return out


def data_path_numbers():
    """``fit_system`` on a seeded CSV with a count column, its X written
    as "2" or "2.0" (and its other values as "1", "1.0" or " 1 ") at
    random, on a seeded JSON rows file, and on one whose values and
    counts are all written as floats, each read by ``Dataset.load``."""
    from logitpath import Dataset, fit_system
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed, name in ((16, "counts.csv"), (17, "rows.json"),
                           (18, "floats.json")):
            cols = draw_fit(seed, 2, "categorical", n=N_APE)[1]
            rng = np.random.default_rng(seed)
            names, n = list(cols), len(cols["Y"])
            counts = rng.integers(0, 4, n)
            path = Path(tmp) / name
            if name.endswith(".csv"):
                forms = ["{:g}", "{:.1f}", " {:g} "]
                lines = [",".join(names + ["count"])] + [",".join(
                    [forms[f].format(float(cols[k][i])) for k, f in
                     zip(names, rng.integers(0, 3, len(names)))]
                    + [str(counts[i])]) for i in range(n)]
                path.write_text("\n".join(lines) + "\n")
            else:
                floats = name == "floats.json"
                rows = [{k: (float(cols[k][i]) if floats
                             or rng.random() >= 0.5 else int(cols[k][i]))
                         for k in names} for i in range(n)]
                for row, c in zip(rows, counts):
                    if floats or rng.random() < 0.5:
                        row["count"] = float(c) if floats else int(c)
                path.write_text(json.dumps({"rows": rows}))
            spec = chain_spec(2, "categorical")
            out[f"data path {name}"] = fit_numbers(
                fit_system(Dataset.load(path), spec))
    return out


def reduction_numbers(rows):
    """The tables and transforms of summing out a mediator of seeded
    fits, by ``fit_system`` or, with ``rows``, by ``fit_on_rows``."""
    from logitpath import marginalize

    def inner(params):
        return marginalize(params, 1)

    def outer(params):
        return marginalize(params, len(params.spec.mediators))

    reduced, transformed = {}, {}
    systems = [(2, "binary", "binary"), (3, "binary", "binary"),
               (4, "binary", "binary"), (3, "categorical", "categorical")]
    for k, treatment, covariate in systems:
        fitted = draw_fit(5, k, treatment, covariate, rows=rows)[0]
        name = f"inner {treatment} k={k}"
        if k < 4:
            reduced[f"table {name}"] = table_numbers(fitted, inner)
        transformed[f"transform {name}"] = transform_numbers(fitted, inner)
    for treatment, covariate in (("binary", "binary"),
                                 ("categorical", "categorical")):
        fitted = draw_fit(6, 2, treatment, covariate, rows=rows)[0]
        name = f"outer {treatment} k=2"
        reduced[f"table {name}"] = table_numbers(fitted, outer)
        transformed[f"transform {name}"] = transform_numbers(fitted, outer)
    fitted = draw_fit(7, 3, rows=rows)[0]
    for j in (1, 2, 3):
        def transform(params, j=j):
            return marginalize(params, j)
        reduced[f"table W{j} of k=3"] = table_numbers(fitted, transform)
        transformed[f"transform W{j} of k=3"] = transform_numbers(
            fitted, transform)
    return reduced, transformed


def dump(path):
    from logitpath import Dataset, average_probability_effects

    exact, study, khb = direct_numbers(), {}, {}
    discrete = data_path_numbers()
    exact.update(draw_numbers())
    cells = study_numbers()
    exact["run_study continuous"], khb["run_study continuous"] = cells[
        "continuous"]
    study["run_study binary"], khb["run_study binary"] = cells["binary"]
    study["data path grid n 250.0"], khb["data path grid n 250.0"] = (
        study_numbers({**STUDY_GRID, "treatment": ["binary"],
                       "beta_x": [0.4], "n": [250.0]})["binary"])
    (study["run_study binary small n"],
     khb["run_study binary small n"]) = small_n_study_numbers("binary")
    (exact["run_study continuous small n"],
     khb["run_study continuous small n"]) = small_n_study_numbers(
         "continuous")
    exact["irls"] = irls_numbers()
    exact["irls unit weights"] = irls_numbers(unit=True)
    for k in (1, 2, 3, 4, 5):
        discrete[f"table binary k={k}"] = table_numbers(draw_fit(1, k)[0])
    for k in (1, 2, 3):
        exact[f"table continuous k={k}"] = table_numbers(
            draw_fit(2, k, "continuous")[0])
    discrete["table categorical k=2"] = table_numbers(
        draw_fit(3, 2, "categorical", "categorical")[0])
    for k, treatment, covariate in ((1, "continuous", "binary"),
                                    (2, "continuous", "categorical")):
        fitted, cols = draw_fit(4, k, treatment, covariate, N_APE)
        exact[f"ape k={k} C {covariate}"] = list(average_probability_effects(
            fitted.params, Dataset.from_records(cols)))
    tables, transforms = reduction_numbers(rows=False)
    discrete.update(tables)
    discrete.update({name: [*t["coefficients"], *np.ravel(t["covariance"]),
                            t["cross"]] for name, t in transforms.items()})
    reduced, transformed = reduction_numbers(rows=True)
    with open(path, "w") as fh:
        json.dump({"exact": exact, "study": study, "khb": khb,
                   "discrete": discrete, "reduced": reduced,
                   "transform": transformed}, fh)


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def _gaps(rows_a, rows_b):
    """|a - b| and its largest value relative to |a|, where a and b
    differ: a statistic equal on both sides (a variance of 0 too) counts
    0, and one that moves off 0 counts inf."""
    gaps = np.abs(np.subtract(rows_a, rows_b))
    return gaps, np.max(np.divide(gaps, np.abs(rows_a),
                                  out=np.zeros_like(gaps), where=gaps > 0))


def compare(path_a, path_b):
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    for doc in (a, b):      # a dump of an older tool has no such group
        doc.setdefault("discrete", {})
    ok = True

    def report(name, worst, bound):
        nonlocal ok
        passed = worst <= bound
        ok &= passed
        print(f"{'ok  ' if passed else 'FAIL'} {name}: {worst:.3g} "
              f"(bound {bound:g})")

    for group in ("exact", "study", "khb", "discrete", "reduced",
                  "transform"):
        for name in sorted(a[group].keys() ^ b[group].keys()):
            where = path_a if name in a[group] else path_b
            print(f"only {name}: in {where} alone, not compared")
    for name, rows in a["exact"].items():
        if name not in b["exact"]:
            continue
        flat_a = np.ravel(rows)
        flat_b = np.ravel(b["exact"][name])
        gaps = [abs(x - y) for x, y in zip(flat_a, flat_b)
                if not _same(x, y)]
        report(f"{name}: numbers that differ" + (
            f", largest |diff| {max(gaps):.3g}" if gaps else ""), len(gaps), 0)
    for name, rows in a["study"].items():
        if name in b["study"]:
            gaps, relative = _gaps(rows, b["study"][name])
            print(f"     {name}: largest |diff| {np.max(gaps):.3g}")
            report(f"{name}: {np.count_nonzero(gaps)} numbers moved, "
                   f"largest relative diff", relative, STUDY_BOUND)
    for name, rows in a["khb"].items():
        if name in b["khb"]:
            gaps, relative = _gaps(rows, b["khb"][name])
            report(f"{name}: KHB statistics, {np.count_nonzero(gaps)} "
                   f"numbers moved, largest |diff| {np.max(gaps):.3g}, "
                   f"largest relative diff", relative, KHB_BOUND)
    for name, rows in a["discrete"].items():
        if name in b["discrete"]:
            fa, fb = (np.asarray(r, dtype=float).ravel()
                      for r in (rows, b["discrete"][name]))
            gaps = np.where(np.isnan(fa) & np.isnan(fb), 0.0, np.abs(fa - fb))
            report(f"{name}: {np.count_nonzero(gaps)} numbers moved, largest "
                   f"|diff| {np.max(gaps):.3g}, largest |diff| / (1 + |a|)",
                   np.max(np.divide(gaps, 1.0 + np.abs(fa), where=gaps != 0,
                                    out=np.zeros_like(gaps))), DISCRETE_BOUND)
    for name, rows in a["reduced"].items():
        if name not in b["reduced"]:
            continue
        ra, rb = np.array(rows), np.array(b["reduced"][name])
        report(f"{name}: |value diff|",
               np.max(np.abs(ra[:, 0] - rb[:, 0])), 1e-14)
        report(f"{name}: SE relative diff",
               np.max(np.abs(ra[:, 1] - rb[:, 1]) / ra[:, 1]), 2e-8)
        print(f"     {name}: p-value diff "
              f"{np.max(np.abs(ra[:, 4] - rb[:, 4])):.3g}")
    for name, ta in a["transform"].items():
        if name not in b["transform"]:
            continue
        tb = b["transform"][name]
        report(f"{name}: coefficient diff",
               np.max(np.abs(np.subtract(ta["coefficients"],
                                         tb["coefficients"]))), 1e-14)
        # the cross covariance is part of the full matrix
        print(f"     {name}: cross diff "
              f"{abs(ta['cross'] - tb['cross']):.3g}")
        report(f"{name}: covariance diff / sqrt(c_ii c_jj)",
               covariance_gap(ta["covariance"], tb["covariance"]), 1e-11)
    return ok


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "dump":
        dump(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(0 if compare(sys.argv[2], sys.argv[3]) else 1)
    else:
        sys.exit(__doc__)
