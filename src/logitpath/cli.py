"""Command-line front end.

Subcommands: fit, decompose, simulate, marginalize.  Fitted systems are
passed between stages as a single JSON artifact, so each stage can be
cached, inspected, or rerun on its own.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click

from .effects import EffectError, EffectRequest
from .fitting import (DataError, Dataset, FitError, FittedSystem, _once,
                      coerce_value, fit_system, read_input)
from .inference import InferenceError, effect_table, transform_fitted
from .model import ModelSpecError, SystemSpec
from .multi import PathSpec, marginalize
from .simulation import SimulationError, results_to_csv, run_study

_ERRORS = (DataError, FitError, ModelSpecError, EffectError,
           InferenceError, SimulationError, OSError)


def _fail(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _fail_for(error, path: str):
    """Fail on an argument or datum that the system read from ``path``
    does not allow: the message names the file without blaming it."""
    _fail(f"{error} (for the system in {path})")


def _read(path: str, read=read_input):
    try:
        return read(path)
    except (DataError, OSError) as e:
        _fail(str(e))


def _load_fitted(path: str) -> FittedSystem:
    try:
        return FittedSystem.from_json_dict(_read(path))
    except ModelSpecError as e:
        _fail(f"{path}: not a fitted-system artifact ({e})")


def _transform(indices):
    """The transform that sums out the one mediator given by its index;
    None when no index is given."""
    if len(indices) > 1:
        _fail(f"choose exactly one mediator to sum out, not "
              f"{' and '.join(map(str, indices))}; to remove several, "
              f"choose one and repeat the marginalize command")
    return functools.partial(marginalize, j=indices[0]) if indices else None


def _write_or_echo(text: str, out):
    if out:
        Path(out).write_text(text)
        click.echo(f"wrote {out}")
    else:
        click.echo(text)


@click.group()
def main():
    """Fit recursive logistic systems and decompose treatment effects."""


@main.command("fit")
@click.option("--data", "data_path", required=True,
              help="CSV of records, or CSV/JSON rows with a count column.")
@click.option("--model", "model_path", required=True,
              help="JSON system specification.")
@click.option("--out", default=None, help="Where to write the fitted artifact.")
def cmd_fit(data_path, model_path, out):
    """Fit every equation of a system by maximum likelihood."""
    try:
        spec = SystemSpec.from_json_dict(_read(model_path)).require_valid()
    except ModelSpecError as e:
        _fail(f"{model_path}: {e}")
    data = _read(data_path, Dataset.load)
    try:
        fitted = fit_system(data, spec)
    except (DataError, FitError) as e:     # a rank deficiency is the data's
        _fail_for(f"{data_path}: {e}", model_path)
    click.echo(fitted.summary_text())
    if out:
        _write_or_echo(json.dumps(fitted.to_json_dict(), indent=2), out)


def _coerce_setting(spec: SystemSpec, pairs):
    setting = []
    for text in pairs:
        if "=" not in text:
            _fail(f"--set wants NAME=VALUE, got {text!r}")
        name, _, raw = text.partition("=")
        var = spec.variable(name.strip())
        setting.append((var.name, coerce_value(var, raw.strip())))
    return _once(setting, "--set")


@main.command("decompose")
@click.option("--fitted", "fitted_path", required=True,
              help="Fitted-system artifact from the fit subcommand.")
@click.option("--contrast", "contrasts", multiple=True,
              help="Treatment contrast 'a,b' (effect of a versus b).")
@click.option("--at", "at_points", multiple=True, type=float,
              help="Derivative evaluation point (continuous treatment).")
@click.option("--by", "by_var", default=None,
              help="Stratify over the values of this binary or categorical "
                   "covariate.")
@click.option("--set", "settings", multiple=True,
              help="Fix a covariate, NAME=VALUE; repeatable.")
@click.option("--scale", default="both",
              type=click.Choice(["logodds", "prob", "both"]))
@click.option("--path", "paths", multiple=True,
              help="Mediator path, comma-separated indices; repeatable.")
@click.option("--marginalize", "--marginalize-inner", "--marginalize-outer",
              "marginalized", type=int, multiple=True, metavar="J",
              help="Sum out mediator J (1 is the innermost) before "
                   "decomposing.")
@click.option("--format", "fmt", default="text",
              type=click.Choice(["text", "json", "csv"]))
@click.option("--out", default=None)
def cmd_decompose(fitted_path, contrasts, at_points, by_var, settings, scale,
                  paths, marginalized, fmt, out):
    """Decompose the total effect of the treatment on the outcome."""
    fitted = _load_fitted(fitted_path)
    spec = fitted.spec
    if not contrasts and not at_points:
        _fail("nothing to do: give at least one --contrast or --at")
    transform = _transform(marginalized)

    try:
        base_settings = _coerce_setting(spec, settings)
        var = spec.variable(by_var) if by_var else None
    except _ERRORS as e:
        _fail_for(e, fitted_path)
    strata = [base_settings]
    if var is not None:
        if var.kind == "continuous":
            _fail_for(f"--by needs a binary or categorical variable, "
                      f"{by_var!r} is continuous", fitted_path)
        if var.name in base_settings:
            _fail(f"{var.name!r} is named by both --set and --by")
        strata = [{**base_settings, var.name: v}
                  for v in var.levels or (0.0, 1.0)]

    scales = ("logodds", "probability") if scale == "both" else (
        "probability" if scale == "prob" else "logodds",)
    requests = []
    try:
        for sc in scales:
            for setting in strata:
                for text in contrasts:
                    pieces = [p.strip() for p in text.split(",")]
                    if len(pieces) != 2:
                        _fail(f"--contrast wants 'a,b', got {text!r}")
                    x1 = coerce_value(spec.treatment, pieces[0])
                    x0 = coerce_value(spec.treatment, pieces[1])
                    requests.append(EffectRequest.contrast(
                        x1, x0, covariates=setting, scale=sc))
                for at in at_points:
                    requests.append(EffectRequest.derivative(
                        at, covariates=setting, scale=sc))
        parsed_paths = [PathSpec.parse([p.strip() for p in text.split(",")])
                        for text in paths]
        table = effect_table(fitted, requests, paths=parsed_paths,
                             transform=transform)
    except _ERRORS as e:
        _fail_for(e, fitted_path)
    rendered = {"text": table.to_text, "json": table.to_json,
                "csv": table.to_csv}[fmt]()
    _write_or_echo(rendered, out)


@main.command("simulate")
@click.option("--config", "config_path", required=True,
              help="JSON study grid: seed, replications, treatment, "
                   "beta_x, n.")
@click.option("--out", default=None, help="Where to write the results CSV.")
@click.option("--seed", default=None, type=int, help="Override the seed.")
def cmd_simulate(config_path, out, seed):
    """Run the Monte Carlo comparison study."""
    grid = _read(config_path)
    if not isinstance(grid, dict):
        _fail(f"{config_path}: expected a JSON object")
    if seed is not None:
        grid = {**grid, "seed": seed}

    def progress(r):
        click.echo(
            f"{r.kind:<11} beta_x={r.beta_x:<4} n={r.n:<5} true={r.true_value:.3f}  "
            f"rsd avg={r.rsd.average:.3f} rmse={r.rsd.rmse:.3f}  "
            f"khb avg={r.khb.average:.3f} rmse={r.khb.rmse:.3f}  "
            f"excluded={r.excluded}")

    try:
        results = run_study(grid, on_cell=progress)
    except _ERRORS as e:
        _fail(f"{config_path}: {e}")
    _write_or_echo(results_to_csv(results), out)


@main.command("marginalize")
@click.option("--fitted", "fitted_path", required=True)
@click.option("--mediator", "--inner", "--outer", "mediator", type=int,
              multiple=True, required=True, metavar="J",
              help="Sum out mediator J (1 is the innermost).")
@click.option("--out", required=True,
              help="Where to write the reduced fitted artifact.")
def cmd_marginalize(fitted_path, mediator, out):
    """Rewrite a fitted system with one mediator summed out."""
    fitted = _load_fitted(fitted_path)
    transform = _transform(mediator)
    try:
        reduced = transform_fitted(fitted, transform)[0]
    except _ERRORS as e:
        _fail_for(e, fitted_path)
    click.echo(reduced.summary_text())
    _write_or_echo(json.dumps(reduced.to_json_dict(), indent=2), out)


if __name__ == "__main__":
    main()
