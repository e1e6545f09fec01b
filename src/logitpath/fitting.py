"""Maximum-likelihood fitting of the per-equation logistic regressions.

The joint likelihood of a recursive system factorizes over equations, so
each response is fitted on its own design matrix and the joint covariance
is block-diagonal by equation.  Fitting is plain Newton / IRLS with
step-halving (one rule, ``_halve``, for a fit and a stack), which copes
with the quasi-separated cells that sparse contingency data can produce.

Data can arrive as individual records or as weighted covariate patterns
(rows plus a count column); both routes produce identical estimates.
``fit_system`` fits data whose every variable is binary or categorical
on its distinct rows weighted by their counts, and other data on rows.
``expit`` and ``softplus``, one numpy formula each for floats and
arrays, are the package's logistic primitives.
"""

from __future__ import annotations

import csv
import json
import math
import reprlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .model import (ModelSpecError, ParameterSet, SystemSpec, VariableSpec,
                    _float, _is, design, json_field, json_number)

MAX_ITER = 100
SCORE_TOL = 1e-8
LOGLIK_TOL = 1e-12
MAX_HALVINGS = 10
BIG_COEF = 50.0
BIG_LOGIT = 15.0


class DataError(ValueError):
    """Raised for unusable data: empty, missing variables, bad values."""


class FitError(RuntimeError):
    """Raised when an equation cannot be fitted (for example collinearity)."""


def softplus(t):
    """log(1 + exp(t)) = max(t, 0) + log1p(exp(-|t|)) for floats or numpy
    arrays, a float with the bits of an array entry of its value."""
    if isinstance(t, np.ndarray):
        return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))
    t = float(t)
    return max(t, 0.0) + float(np.log1p(np.exp(-abs(t))))


def expit(t):
    """1 / (1 + exp(-t)) for floats or numpy arrays, a float with the bits
    of an array entry of its value; 0 where exp(-t) overflows, unwarned."""
    if isinstance(t, np.ndarray):
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-t))
    t = float(t)
    if t < -709.0:  # exp(-t) may overflow: the errstate, off the common case
        return float(expit(np.array(t)))
    return 1.0 / (1.0 + float(np.exp(-t)))


def _floats(values) -> np.ndarray:
    """``values`` as a new 1-D float array, ``_float`` of each: numpy's
    conversion, which is Python's ``float`` of each, when every value is
    a number or text (one value of each type is enough to tell)."""
    if all(_is(v, (str, float))
           for v in dict(zip(map(type, values), values)).values()):
        try:
            return np.array(values, dtype=float)
        except (ValueError, OverflowError):     # text that is no number
            pass
    return np.array([_float(v) for v in values], dtype=float)


@dataclass
class Dataset:
    """Column-oriented data with per-row counts (all ones for record data)."""

    columns: Mapping[str, np.ndarray]
    counts: np.ndarray
    _coerced: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        lengths = {len(v) for v in self.columns.values()}
        lengths.add(len(self.counts))
        if len(lengths) > 1:
            raise DataError("columns and counts must share one length")
        counts = _floats(self.counts)
        bad = np.flatnonzero(~((counts >= 0.0) & (counts < np.inf)))
        if bad.size:
            raw = self.counts[bad[0]]
            raw = raw.item() if isinstance(raw, np.generic) else raw
            raise DataError(f"row {bad[0] + 1} has count {reprlib.repr(raw)}; "
                            f"counts must be finite and nonnegative")
        self.counts = counts

    @property
    def n(self) -> float:
        return float(np.sum(self.counts))

    @property
    def nrows(self) -> int:
        return len(self.counts)

    @staticmethod
    def from_records(columns: Mapping[str, Sequence]) -> "Dataset":
        some = next(iter(columns.values()), ())
        return Dataset.from_patterns(columns, np.ones(len(some)))

    @staticmethod
    def from_patterns(columns: Mapping[str, Sequence],
                      counts: Sequence) -> "Dataset":
        cols = {k: np.asarray(v, dtype=object) for k, v in columns.items()}
        return Dataset(cols, counts)

    @staticmethod
    def from_rows(rows: Sequence[Mapping]) -> "Dataset":
        """List of dicts; a 'count' key turns a row into a weighted pattern."""
        if not rows:
            return Dataset({}, np.zeros(0))
        for i, r in enumerate(rows, 1):
            if not isinstance(r, Mapping):
                raise DataError(f"row {i} is {reprlib.repr(r)}, not an "
                                f"object of column values")
            odd = (rows[0].keys() ^ r.keys()) - {"count"}
            if odd:
                raise DataError(f"column {reprlib.repr(min(odd, key=str))} is "
                                f"in only one of row 1 and row {i}")
        names = [k for k in rows[0] if k != "count"]
        return Dataset.from_patterns({k: [r[k] for r in rows] for k in names},
                                     [r.get("count", 1.0) for r in rows])

    @staticmethod
    def load(path) -> "Dataset":
        """The columns of a CSV file under its header, a 'count' column
        as the counts, or the rows of a JSON list or of an object holding
        the list under 'rows'; a DataError names the file."""
        def read(fh):
            if Path(path).suffix.lower() != ".json":
                header, rows = _csv_rows(fh)
                columns = dict(zip(header, zip(*rows)))
                return Dataset.from_patterns(
                    columns, columns.pop("count", np.ones(len(rows))))
            doc = _json(fh)
            doc = doc.get("rows") if isinstance(doc, dict) else doc
            if not isinstance(doc, list):
                raise DataError("expected a list of rows, or an object "
                                "holding one under 'rows'")
            return Dataset.from_rows(doc)
        return read_input(path, read)


def _once(pairs, where="one object") -> dict:
    """``pairs`` as a dict; a DataError names a key given twice."""
    out = dict(pairs)
    if len(out) < len(pairs):
        key = next(k for k in out if [j for j, _ in pairs].count(k) > 1)
        raise DataError(f"{key!r} is named twice in {where}")
    return out


def _json(fh):    # a DataError names a key given twice in one object
    return json.load(fh, object_pairs_hook=_once)


def read_input(path, parse=_json):
    """``parse`` of the input file ``path`` read as UTF-8, a BOM skipped;
    by default its JSON, each key once per object.  A fault in its bytes,
    syntax or content is a DataError naming it (and a JSON syntax line)."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return parse(fh)
    except json.JSONDecodeError as e:
        raise DataError(f"{path}:{e.lineno}: {e.msg}") from None
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text (byte "
                        f"0x{e.object[e.start]:02x}: {e.reason})") from None
    except (DataError, csv.Error) as e:
        raise DataError(f"{path}: {e}") from None


def _csv_rows(fh) -> tuple:
    """The header of a CSV file and its rows of fields, blank lines
    skipped; a DataError names a column named twice or a row whose
    width is not the header's."""
    header, *rows = [*filter(None, csv.reader(fh))] or [[]]
    _once([(name, None) for name in header], "the header")
    for i, fields in enumerate(rows, 1):
        if len(fields) != len(header):
            raise DataError(f"row {i} has {len(fields)} fields; the header "
                            f"has {len(header)}")
    return header, rows


def coerce_value(var: VariableSpec, raw):
    """A raw data field or CLI argument as the value ``var`` takes, the
    level it names or its float; else a DataError in ``var.refusal`` form."""
    if var.kind == "categorical":
        # text or a number names a level by its text (True names no level)
        if isinstance(raw, str) or _is(raw, float):     # text first: faster
            for lvl in var.levels:
                if str(raw) == str(lvl):
                    return lvl
        # "1.0" or 1.0 names level 1; a string level is named only by itself
        number = _float(raw)
        value = next((lvl for lvl in var.levels
                      if _is(lvl, float) and lvl == number), raw)
    else:
        value = _float(raw)     # nan for no number, which var cannot take
    if not var.takes(value):
        raise DataError(var.refusal(raw))
    return value


def coerce_column(var: VariableSpec, values: np.ndarray) -> np.ndarray:
    """``values`` as ``var``'s values; a DataError names the first bad row.
    A numeric column is walked value by value only to find that row; a
    categorical one coerces each distinct (type, text) once, since the
    text tells -0.0 from 0.0 where == does not."""
    if var.kind != "categorical":
        column = _floats(values)
        if var.takes(column):
            return column
    out, seen = [], {}
    for row, raw in enumerate(values, 1):
        key = raw if type(raw) is str else (type(raw), str(raw))
        if key not in seen:
            try:
                seen[key] = coerce_value(var, raw)
            except DataError as e:
                raise DataError(f"row {row}: {e}") from None
        out.append(seen[key])
    return np.asarray(out, dtype=object if var.kind == "categorical" else float)


def coerce_columns(spec: SystemSpec, data: Dataset, names) -> dict:
    """The columns ``names`` of ``data``, each as its variable's values,
    read-only and kept on ``data`` by variable; a DataError names the
    first that is missing or has a bad value."""
    for var in map(spec.variable, names):
        if var not in data._coerced:
            if var.name not in data.columns:
                raise DataError(f"data has no column {var.name!r}")
            column = coerce_column(var, data.columns[var.name])
            column.setflags(write=False)
            data._coerced[var] = column
    return {name: data._coerced[spec.variable(name)] for name in names}


def design_matrix(spec: SystemSpec, response: str, data: Dataset):
    """Design matrix, response vector, and weights for one equation."""
    coerced = coerce_columns(
        spec, data, sorted(spec.predictors(response) | {response}))
    y = coerced[response]
    if spec.variable(response).kind != "binary":
        raise ModelSpecError(f"response {response!r} must be binary to fit")
    X = design(spec, response, coerced, data.nrows)
    return X, y.astype(float), np.asarray(data.counts, dtype=float)


def tabulate(columns: Sequence, radices: Sequence[int],
             weights=None) -> np.ndarray:
    """The count of each combination of values of the whole-valued
    ``columns`` (column j in range(radices[j])), or the sum of the rows'
    ``weights`` over it, as an array of shape ``radices``: one bincount
    over the rows' raveled mixed-radix code."""
    code = 0
    for column, radix in zip(columns, radices):
        code = code * radix + column
    return np.bincount(np.asarray(code, dtype=np.intp).ravel(),
                       None if weights is None else np.ravel(weights),
                       minlength=math.prod(radices)).reshape(radices)


def patterns(table: np.ndarray):
    """The nonzero cells of a ``tabulate`` table (every cell of a table of
    ones), in its order, as (values, one row per cell; float counts).  A
    weighted logistic fit on them has the likelihood of the tabulated rows."""
    present = np.nonzero(table)
    return np.column_stack(present).astype(float), table[present].astype(float)


def weighted_patterns(spec: SystemSpec, data: Dataset) -> Dataset:
    """``data`` as its distinct rows weighted by their summed counts, one
    ``tabulate`` of the coerced columns coded as whole numbers (a level by
    its index), when every variable of the equations is binary or
    categorical and their grid has no more cells than ``data`` has rows;
    else ``data`` itself, for a fit on rows.  A fit on the patterns has
    the likelihood of the rows.  A column that cannot be coerced leaves
    ``data`` as it is, so that its fit names the equation and the row."""
    names = sorted(set().union(*(spec.predictors(resp) | {resp}
                                 for resp in spec.responses)))
    variables = [spec.variable(name) for name in names]
    radices = [len(var.levels) or 2 for var in variables]
    if (any(var.kind == "continuous" for var in variables)
            or math.prod(radices) > data.nrows):
        return data
    try:
        coerced = coerce_columns(spec, data, names)
    except DataError:
        return data
    codes = []
    for var, column in zip(variables, coerced.values()):
        if var.kind == "categorical":
            index = {lvl: i for i, lvl in enumerate(var.levels)}
            column = np.fromiter(map(index.__getitem__, column.tolist()),
                                 np.intp, len(column))
        codes.append(column)
    values, counts = patterns(tabulate(codes, radices, data.counts))
    columns = [code if var.kind == "binary" else np.array(
        var.levels, dtype=object)[code.astype(np.intp)]
        for var, code in zip(variables, values.T)]
    for column in columns:
        column.setflags(write=False)
    table = Dataset(dict(zip(names, columns)), counts)
    table._coerced.update(zip(variables, columns))     # coerced already
    return table


def _dependent(X: np.ndarray) -> np.ndarray:
    """The columns of ``X`` that earlier columns span, to rounding."""
    r = np.abs(np.diag(np.linalg.qr(X, mode="r")))
    r = np.pad(r, (0, X.shape[1] - r.size))
    norm = np.linalg.norm(X, axis=0).max(initial=0.0)
    return np.flatnonzero(r <= max(X.shape) * np.finfo(float).eps * norm)


def _check_rank(X: np.ndarray, w: np.ndarray, labels: Sequence[str]):
    keep = w > 0
    bad = [labels[j] for j in _dependent(X[keep] * np.sqrt(w[keep])[:, None])]
    if bad:
        raise FitError(f"design matrix is rank deficient; collinear terms: {bad}")


def _loglik(eta: np.ndarray, y: np.ndarray, w: np.ndarray):
    """The log-likelihood sum(w (y eta - softplus(eta))) over the last
    axis, softplus written out in place with ``softplus``'s rounding."""
    t = np.abs(eta)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    t += np.maximum(eta, 0.0)
    u = y * eta
    u -= t
    u *= w
    return u.sum(axis=-1)


def _information(X: np.ndarray, XT: np.ndarray, w: np.ndarray,
                 prob: np.ndarray):
    """X' diag(w p (1 - p)) X, for one design or a stack of them, XT
    the transposed view of X."""
    v = w * prob
    v *= 1.0 - prob
    return XT @ (X * v[..., None])


def _newton_step(H: np.ndarray, score: np.ndarray) -> np.ndarray:
    """The step H^-1 score, by least squares where H is singular."""
    try:
        return np.linalg.solve(H, score)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(H, score, rcond=None)[0]


def _halve(X, y, w, beta, step, ll):
    """The full step, then halves while the log-likelihood comes out below
    ``ll``, at most MAX_HALVINGS of them: (beta, eta, loglik) of the last."""
    for _ in range(MAX_HALVINGS + 1):
        new_beta = beta + step
        new_eta = X @ new_beta
        new_ll = float(_loglik(new_eta, y, w))
        if not new_ll < ll:
            break
        step = 0.5 * step
    return new_beta, new_eta, new_ll


def irls(X: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Newton iterations with step-halving.  Returns (beta, H, loglik,
    iterations, converged, separation) where H is the observed information
    at the returned coefficients and separation is ``_separation``'s on a
    stack of one.  A step that still lowers the log-likelihood after
    ``_halve``'s halvings is rejected and ends the fit as not converged."""
    beta = np.zeros(X.shape[1])
    eta = X @ beta
    XT = X.T
    ll = float(_loglik(eta, y, w))
    converged = False
    for it in range(1, MAX_ITER + 1):
        prob = expit(eta)
        resid = y - prob
        resid *= w
        score = XT @ resid
        if np.abs(score).max() < SCORE_TOL:
            converged = True
            break
        step = _newton_step(_information(X, XT, w, prob), score)
        new_beta, new_eta, new_ll = _halve(X, y, w, beta, step, ll)
        tol = LOGLIK_TOL * (1.0 + abs(ll))
        if ll - new_ll > tol:   # a smaller drop is rounding at the optimum
            break
        beta, eta, prob = new_beta, new_eta, None   # prob is stale
        converged, ll = abs(new_ll - ll) < tol, new_ll
        if converged:
            break
    H = _information(X, XT, w, expit(eta) if prob is None else prob)
    return beta, H, ll, it, converged, bool(_separation(
        X, y[None], w[None], beta[None], eta[None], np.array([converged]))[0])


def _take(X: np.ndarray, slices) -> np.ndarray:
    """The designs of ``slices`` of a stack: a shared design is each one's."""
    return X if X.ndim == 2 else X[slices]


def _separation(X, y, w, beta, eta, converged) -> np.ndarray:
    """The separation flag of each fit of an ``irls_stack`` stack: set
    where it did not converge, has a coefficient beyond BIG_COEF or lies
    on a separation ray.  On a ray the logits beyond BIG_LOGIT, far past
    any interior optimum's, each classify their observation perfectly,
    and the ray's direction leaves the other logits unchanged, so those
    rows cannot pin every coefficient (one far-out point is no ray).
    Only a converged fit with such logits takes the QR that tells."""
    live = w > 0
    extreme = live & (np.abs(eta) > BIG_LOGIT)
    flag = ~converged | (np.abs(beta).max(axis=1) > BIG_COEF)
    for i in np.flatnonzero(~flag & extreme.any(axis=1)):
        e = extreme[i]
        flag[i] = (np.all(y[i][e] == (eta[i][e] > 0))
                   and _dependent(_take(X, i)[live[i] & ~e]).size > 0)
    return flag


def irls_stack(X: np.ndarray, y: np.ndarray, w: np.ndarray):
    """``irls`` on each fit of a stack: y and w of shape (R, m), and X of
    shape (R, m, p), or (m, p) for one design shared by every slice,
    which is broadcast and never copied.  Returns ``irls``'s six fields,
    each stacked on a first axis of R, and equal to ``irls``'s on each
    slice bit for bit.  The slices take full Newton steps in lock step,
    ``_halve`` halves a slice's step that needs it, as ``irls`` does, and
    a slice leaves the stack where ``irls`` would stop; batched matmuls and
    solves do ``irls``'s arithmetic, and one ``_separation`` flags them."""
    R, p = len(y), X.shape[-1]
    beta = np.zeros((R, p))
    eta = (X @ beta[..., None])[..., 0]
    ll = _loglik(eta, y, w)
    iterations = np.full(R, MAX_ITER)
    converged = np.zeros(R, dtype=bool)
    act = np.arange(R)      # the slices still iterating
    for it in range(1, MAX_ITER + 1):
        Xa, ya, wa, old = _take(X, act), y[act], w[act], ll[act]
        prob = expit(eta[act])
        resid = ya - prob
        resid *= wa
        score = (np.swapaxes(Xa, -1, -2) @ resid[..., None])[..., 0]
        stop = np.abs(score).max(axis=1) < SCORE_TOL
        if stop.any():
            converged[act[stop]], iterations[act[stop]] = True, it
            go = ~stop
            Xa = _take(Xa, go)
            act, ya, wa, old, prob, score = (
                a[go] for a in (act, ya, wa, old, prob, score))
            if not act.size:
                break
        H = _information(Xa, np.swapaxes(Xa, -1, -2), wa, prob)
        try:
            step = np.linalg.solve(H, score[..., None])[..., 0]
        except np.linalg.LinAlgError:   # only a singular slice takes lstsq
            step = np.array([_newton_step(*hs) for hs in zip(H, score)])
        new_beta = beta[act] + step
        new_eta = (Xa @ new_beta[..., None])[..., 0]
        new_ll = _loglik(new_eta, ya, wa)
        for h in np.flatnonzero(new_ll < old):  # a loss: halve, as irls
            new_beta[h], new_eta[h], new_ll[h] = _halve(
                _take(Xa, h), ya[h], wa[h], beta[act[h]], step[h], old[h])
        tol = LOGLIK_TOL * (1.0 + np.abs(old))
        kept = ~(old - new_ll > tol)    # a rejected step ends its slice
        beta[act[kept]], eta[act[kept]] = new_beta[kept], new_eta[kept]
        ll[act[kept]] = new_ll[kept]
        done = ~kept | (np.abs(new_ll - old) < tol)
        converged[act[done]] = kept[done]
        iterations[act[done]] = it
        act = act[~done]
        if not act.size:
            break
    H = _information(X, np.swapaxes(X, -1, -2), w, expit(eta))
    return (beta, H, ll, iterations, converged,
            _separation(X, y, w, beta, eta, converged))


@dataclass
class EquationFit:
    coef: np.ndarray
    cov: np.ndarray
    loglik: float
    iterations: int
    converged: bool
    separation: bool


def fit_logistic(data: Dataset, spec: SystemSpec, response: str) -> EquationFit:
    """Fit one equation of a valid system by maximum likelihood."""
    spec.require_valid()
    if data.nrows == 0 or data.n == 0:
        raise DataError("empty data")
    X, y, w = design_matrix(spec, response, data)
    _check_rank(X, w, [spec.column_label(c) for c in spec.columns(response)])
    beta, H, ll, it, converged, separation = irls(X, y, w)
    try:
        cov = np.linalg.inv(H)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(H)
        separation = True
    return EquationFit(beta, cov, ll, it, converged, separation)


def block_covariance(spec: SystemSpec, blocks: Mapping) -> np.ndarray:
    """Per-equation blocks as one flat_coords matrix, zero between them."""
    sigma = np.zeros((len(spec.flat_coords),) * 2)
    for resp, s in spec.slices.items():
        sigma[s, s] = blocks[resp]
    return sigma


def _matrix(raw, width: int, where: str) -> np.ndarray:
    """A JSON list of rows of numbers as a width x width float array."""
    try:
        m = np.asarray(raw, dtype=float)
        numbers_only = all(_is(x, float) for row in raw for x in row)
    except (TypeError, ValueError, OverflowError):
        numbers_only = False
    if not numbers_only:
        raise ModelSpecError(f"{where} is not a matrix of numbers")
    if m.shape != (width, width):
        raise ModelSpecError(f"{where} has shape {m.shape}, expected "
                             f"{(width, width)}")
    return m


@dataclass
class FittedSystem:
    """A fitted recursive system: estimates, their joint covariance in
    flat_coords order (block-diagonal for a fit), diagnostics."""

    spec: SystemSpec
    params: ParameterSet
    covariance: np.ndarray
    diagnostics: Mapping[str, EquationFit]
    n: float

    @property
    def cov_blocks(self) -> dict:
        """The per-equation diagonal blocks of the covariance."""
        return {resp: self.covariance[s, s]
                for resp, s in self.spec.slices.items()}

    def covariance_matrix(self) -> np.ndarray:
        """The joint covariance in flat_coords order."""
        return self.covariance

    def se(self, response: str, label: str) -> float:
        i = self.spec.coord(response, label)
        return float(np.sqrt(self.covariance[i, i]))

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "n": self.n,
            "params": self.params.nested(),
            "covariance": self.covariance.tolist(),
            "diagnostics": {
                resp: {
                    "loglik": d.loglik,
                    "iterations": d.iterations,
                    "converged": d.converged,
                    "separation": d.separation,
                }
                for resp, d in self.diagnostics.items()
            },
        }

    @staticmethod
    def from_json_dict(doc: Mapping) -> "FittedSystem":
        """Load a ``to_json_dict`` artifact; a malformed field raises a
        ModelSpecError that names it."""
        spec = SystemSpec.from_json_dict(
            json_field(doc, "spec", dict, "the artifact")).require_valid()
        params = ParameterSet.from_nested(
            spec, json_field(doc, "params", dict, "the artifact"), strict=True)
        covariance = json_field(doc, "covariance", (list, dict),
                                "the artifact")
        if isinstance(covariance, dict):    # an older artifact's blocks
            covariance = block_covariance(spec, {resp: _matrix(
                json_field(covariance, resp, list, "'covariance'"),
                len(spec.columns(resp)), f"covariance of equation {resp!r}")
                for resp in spec.responses})
        covariance = _matrix(covariance, len(spec.flat_coords), "'covariance'")
        bad, what = ~np.isfinite(covariance), "finite"
        if not bad.any():
            bad, what = (np.abs(covariance - covariance.T)
                         > 1e-8 * np.max(np.abs(covariance))), "symmetric"
        if bad.any():
            a, b = (spec.flat_coords[i][0] for i in np.argwhere(bad)[0])
            raise ModelSpecError(f"covariance of equation {a!r}"
                                 + f" with {b!r}" * (a != b)
                                 + f" is not {what}")
        diagnostics = {}
        raw = (json_field(doc, "diagnostics", dict, "the artifact")
               if "diagnostics" in doc else {})
        for resp in raw:
            d = json_field(raw, resp, dict, "'diagnostics'")
            if resp not in spec.slices:
                raise ModelSpecError(f"'diagnostics' has {resp!r}, which "
                                     f"has no equation")
            where = f"{resp!r} of 'diagnostics'"
            diagnostics[resp] = EquationFit(
                params.vector[spec.slices[resp]],
                covariance[spec.slices[resp], spec.slices[resp]],
                json_field(d, "loglik", float, where),
                json_field(d, "iterations", int, where),
                json_field(d, "converged", bool, where),
                json_field(d, "separation", bool, where))
        return FittedSystem(spec, params, covariance, diagnostics,
                            json_number(doc, "n", "the artifact", minimum=0))

    def summary_text(self) -> str:
        lines = []
        for resp in self.spec.responses:
            d = self.diagnostics.get(resp)
            lines.append(f"equation {resp}")
            if d is not None:
                flag = ""
                if d.separation:
                    flag = "  [separation warning]"
                lines.append(f"  loglik {d.loglik:.4f}  iterations "
                             f"{d.iterations}  converged {d.converged}{flag}")
            lines.append(f"  {'term':<14}{'estimate':>12}{'se':>12}")
            coefs = self.params.vector[self.spec.slices[resp]].tolist()
            for col, est in zip(self.spec.columns(resp), coefs):
                label = self.spec.column_label(col)
                se = self.se(resp, label)
                lines.append(f"  {label:<14}{est:>12.4f}{se:>12.4f}")
            lines.append("")
        return "\n".join(lines)


def fit_system(data: Dataset, spec: SystemSpec) -> FittedSystem:
    """Fit every declared equation and assemble the joint fitted system:
    on ``weighted_patterns`` of ``data``, its rows when it has a
    continuous variable."""
    spec.require_valid()
    diagnostics, table = {}, weighted_patterns(spec, data)
    for resp in spec.responses:
        try:
            diagnostics[resp] = fit_logistic(table, spec, resp)
        except (DataError, FitError) as e:
            raise type(e)(f"equation {resp}: {e}") from e
    params = ParameterSet(spec, np.concatenate(
        [diagnostics[resp].coef for resp in spec.responses]))
    covariance = block_covariance(
        spec, {resp: d.cov for resp, d in diagnostics.items()})
    return FittedSystem(spec, params, covariance, diagnostics, data.n)
