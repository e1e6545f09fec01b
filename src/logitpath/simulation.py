"""Monte Carlo study harness for the ratio-of-effects estimator.

The data-generating process is the two-equation system

    logit P(W=1|x) = gamma0 + gamma_x x
    logit P(Y=1|x,w) = beta0 + beta_x x + beta_w w

with a binary Bernoulli(0.5) treatment redrawn each replication, or a
continuous treatment held fixed across replications as a seeded subsample
of a 150000-draw normal(0, var 2) pseudo-population (so the estimand does
not move with the sample size).

Each replication fits the system and produces the mediated share two ways:

* rsd: indirect / total from the exact marginal-logit decomposition
  (the {1,0} contrast for a binary treatment, the average probability
  effect ratio AIPE/ATPE for a continuous one);
* khb: the residualization comparison method, full model Y ~ X + W
  against reduced model Y ~ X + R with R the OLS residual of W on X,
  share = (reduced X coefficient - full X coefficient) / reduced X
  coefficient.  The reduced model is the full one in other coordinates
  (Karlson, Holm & Breen 2012), its X coefficient bx + b bw with b the
  OLS slope of W on X, so a replication fits only W ~ X and Y ~ X + W.
  Both models share one eta, so the average-partial-effect rescaling of
  a continuous treatment's share cancels out of the ratio.

A cell draws its replications in chunks of at most ``CHUNK_ROWS`` rows
(replications x n), one ``_draw`` each, which computes each draw
probability once per distinct parent value, and fits each only by its
cell's path (``_fit_tables``, ``_fit_chunk``).  A binary cell keeps its
replications' (x, w, y) counts.  Its W ~ X is saturated, so its
maximum-likelihood fit is the observed log odds of w, read off the
(x, w) counts n_xw: gamma0 = log(n01 / n00), gamma_x = log(n11 / n10) -
gamma0, separated exactly when a count is 0.  Its Y ~ X + W is one
stack on ``_Y_DESIGN`` weighted by its replications' counts.  A continuous
cell, whose W ~ X has the one design [1, x], fits a stack per chunk.

Replications whose treatment takes one value, whose binary counts tie
(the mean of y the same at x = 0 and x = 1, so the fitted total effect
is 0 up to the stopping error), or with any non-convergent or separated
logistic fit, are dropped from both methods (keeping the comparison on
identical replication sets) and counted; more than 5 percent exclusions,
or none kept, aborts the cell.

All randomness descends from one master seed through named SeedSequence
children: replication r draws numpy's ``SeedSequence(...).spawn`` child
r stream bit for bit, seeded with the whole cell at once, so results are
reproducible and independent of execution order.  The pseudo-population
is drawn once per seed, and a continuous truth is computed once for the
cells that differ only in n (the grid's sizes vary fastest).

A binary cell's truth and rsd shares are ``decompose``'s bit for bit.
A continuous cell's come from ``_tpe_ipe``, the x-derivative of
P(Y=1|x) in closed form: its truth from the population in slabs of at
most ``CHUNK_ROWS`` values, its rsd shares from one ``share_continuous``
call on the stack of kept fits.  Both kinds, and the draws, take
``fitting``'s ``expit``, as every other layer does.
"""

from __future__ import annotations

import io
import csv
import functools
import itertools
import math
from dataclasses import dataclass, fields
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .effects import EffectRequest, _decompose
from .fitting import Dataset, expit, irls, irls_stack, patterns, tabulate
from .model import SystemSpec, VariableSpec, _float, _is

PSEUDO_POPULATION = 150_000
EXCLUSION_LIMIT = 0.05
# Rows (replications x n) of a chunk of draws.  On the W fits and OLS
# of 100 replications, serial calls took 38-47, 44-56 and 59-72 ms at
# n = 250, 500 and 1000, and chunks of 15,000 rows 13-15, 28-29 and 39-51
# ms, the best or within noise of the best of 5,000 to 50,000 rows;
# 25,000 rows took 13-16, 28-31 and 44-50 ms (2-vCPU Intel Xeon VM).  It
# bounds the slabs of ``share_continuous`` and of a continuous truth too.
CHUNK_ROWS = 15_000
_POP_TAG = 101
_SUB_TAG = 102
_REP_TAG = 200
_BITS_TAG = 2 ** 32 - 1
# numpy's SeedSequence (INIT, MULT) pairs and (MIX_MULT_L, MIX_MULT_R), PCG's M
_HASH_A, _HASH_B = (0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED)
_MIX, _PCG_MULT = (0xCA01F9DD, 0x4973F715), 0x2360ED051FC65DA44385DF649FCCF645
_LEVELS = np.array([0.0, 1.0])  # of a binary variable
_CELLS = patterns(np.ones((2, 2, 2)))[0]   # the (x, w, y) cells, C order
_Y_DESIGN = np.column_stack([np.ones(len(_CELLS)), _CELLS[:, :2]])  # [1, x, w]
_CELLS.flags.writeable = _Y_DESIGN.flags.writeable = False
_BINARY = SystemSpec.build(     # flat_coords order: b0, bx, bw, g0, gx
    [VariableSpec("Y", "outcome", "binary"),
     VariableSpec("W", "mediator", "binary", mediator_index=1),
     VariableSpec("X", "treatment", "binary")],
    {"Y": ["1", "X", "W"], "W": ["1", "X"]})


class SimulationError(RuntimeError):
    """A study cell that cannot produce trustworthy numbers."""


@dataclass(frozen=True)
class SimConfig:
    """One study cell: treatment kind, effect size, sample size, seeds.
    Each field is checked here, for a library call and a grid alike."""

    kind: str
    beta_x: float
    n: int
    replications: int
    seed: int
    beta0: float = -2.0
    beta_w: float = 2.0
    gamma0: float = -2.0
    gamma_x: float = 2.0
    pseudo_population: int = PSEUDO_POPULATION

    def __post_init__(self):
        if self.kind not in ("binary", "continuous"):
            raise SimulationError(f"bad study config: unknown treatment "
                                  f"kind {self.kind!r}")
        for name, least in (("n", 1), ("replications", 1), ("seed", 0),
                            ("pseudo_population", 1)):
            value = getattr(self, name)
            if not (_is(value, int) and value >= least):
                raise SimulationError(
                    f"bad study config: {name!r} must be a "
                    f"{'positive' if least else 'nonnegative'} integer, "
                    f"got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in ("beta_x", "beta0", "beta_w", "gamma0", "gamma_x"):
            value = getattr(self, name)
            if not (_is(value, float) and math.isfinite(_float(value))):
                raise SimulationError(f"bad study config: {name!r} must be "
                                      f"a finite number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.kind == "continuous" and self.pseudo_population < self.n:
            raise SimulationError(f"bad study config: pseudo_population "
                                  f"{self.pseudo_population} is smaller "
                                  f"than n {self.n}")


def _label(config: SimConfig) -> str:
    return f"{config.kind}/beta_x={config.beta_x}/n={config.n}"


# -- the two-equation model's effects -------------------------------------

def _tpe_ipe(b0, bx, bw, g0, gx, x):
    """Pointwise TPE and IPE at each x (arrays welcome): with
    pi = expit(g0 + gx x) and p_w = expit(b0 + bx x + bw w), the TPE is
    the x-derivative of P(Y=1|x) = (1 - pi) p0 + pi p1,
    bx [(1 - pi) p0 (1 - p0) + pi p1 (1 - p1)] + gx pi (1 - pi) (p1 - p0),
    and the IPE is the TPE at bx = 0."""
    pi, eta = expit(g0 + gx * x), b0 + bx * x
    p0, p1 = expit(eta), expit(eta + bw)
    mix = gx * pi * (1.0 - pi)
    return (bx * ((1.0 - pi) * p0 * (1.0 - p0) + pi * p1 * (1.0 - p1))
            + mix * (p1 - p0), mix * (expit(b0 + bw) - expit(b0)))


def share_continuous(b0, bx, bw, g0, gx, xs: np.ndarray):
    """AIPE / ATPE over the treatment values ``xs``: a float for float
    coefficients, and for (R,) coefficient arrays the R shares, computed
    over (R, n) slabs of at most ``CHUNK_ROWS`` rows."""
    xs = np.asarray(xs, dtype=float)
    coefs = np.array([b0, bx, bw, g0, gx], dtype=float).reshape(5, -1, 1)
    size, shares = max(1, CHUNK_ROWS // len(xs)), np.empty(coefs.shape[1])
    for i in range(0, len(shares), size):
        tpe, ipe = (np.mean(e, axis=1)
                    for e in _tpe_ipe(*coefs[:, i:i + size], xs))
        shares[i:i + size] = ipe / tpe
    return shares if np.ndim(b0) else float(shares[0])


# -- seeded draws ----------------------------------------------------------

def pseudo_population(seed: int, size: int = PSEUDO_POPULATION) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _POP_TAG]))
    return rng.normal(0.0, np.sqrt(2.0), size)


@functools.lru_cache(maxsize=1)
def _shared_population(seed: int, size: int) -> np.ndarray:
    """``pseudo_population``, read-only, drawn once for consecutive calls
    with the same seed and size (a study's continuous cells)."""
    pop = pseudo_population(seed, size)
    pop.flags.writeable = False
    return pop


@functools.lru_cache(maxsize=1)
def _population_effects(truth: tuple, seed: int, size: int) -> tuple:
    """(ATPE, AIPE) at ``truth`` over the pseudo-population, in slabs of
    ``CHUNK_ROWS``, once for consecutive cells that differ only in n."""
    pop, effects = _shared_population(seed, size), np.empty((2, size))
    for i in range(0, size, CHUNK_ROWS):
        effects[:, i:i + CHUNK_ROWS] = _tpe_ipe(*truth, pop[i:i + CHUNK_ROWS])
    return tuple(map(np.mean, effects))


def fixed_treatment_sample(seed: int, n: int,
                           size: int = PSEUDO_POPULATION) -> np.ndarray:
    """The size-n treatment subsample shared by every replication."""
    pop = _shared_population(seed, size)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _SUB_TAG,
                                                        int(n)]))
    idx = rng.choice(size, size=n, replace=False)
    return pop[idx]


def _cell_seed(config: SimConfig) -> np.random.SeedSequence:
    """Entropy for one cell.  beta_x enters as its count of thousandths
    when that is exact and non-negative, else as _BITS_TAG and the two
    words of its float64 bit pattern: distinct values never collide."""
    kind_code = 0 if config.kind == "binary" else 1
    milli = config.beta_x * 1000    # range first: round() raises at inf
    if 0 <= milli < _BITS_TAG and round(milli) / 1000 == config.beta_x:
        beta = [round(milli)]
    else:
        bits = int(np.float64(config.beta_x).view(np.uint64))
        beta = [_BITS_TAG, bits >> 32, bits & 0xFFFFFFFF]
    return np.random.SeedSequence([int(config.seed), _REP_TAG, kind_code,
                                   *beta, int(config.n)])


def _hashmix(value: np.ndarray, hashes: int, init: int, mult: int):
    """SeedSequence's hashmix of uint32 row i of ``value`` at hash constant
    init mult^k, k = hashes + i (numpy's constants, stable by NEP 19)."""
    const = np.array([init * pow(mult, hashes + i, 2 ** 32) % 2 ** 32
                      for i in range(len(value) + 1)], np.uint32)[:, None]
    value = (value ^ const[:-1]) * const[1:]
    return value ^ value >> 16


def _seed_states(config: SimConfig, indices) -> np.ndarray:
    """``_cell_seed(config).spawn`` child r's ``generate_state(4,
    np.uint64)`` for each r in ``indices``, (count, 4): the cell's pool is
    shared, and each child mixes in its spawn key's one or two words."""
    seed, keys = _cell_seed(config), np.asarray(indices, dtype=np.uint64)
    words = sum(-(-max(v.bit_length(), 1) // 32) for v in seed.entropy)
    # the pool took 4 hashes per entropy word (a cell has more than 4)
    pool, hashes = seed.pool[:, None], 4 * words
    for take, word in ((True, keys), (keys >> 32 > 0, keys >> 32)):
        mixed = pool * _MIX[0] - _MIX[1] * _hashmix(
            np.tile(word.astype(np.uint32), (4, 1)), hashes, *_HASH_A)
        pool, hashes = np.where(take, mixed ^ mixed >> 16, pool), hashes + 4
    out = _hashmix(np.tile(pool, (2, 1)), 0, *_HASH_B).astype(np.uint64)
    return (out[0::2] | out[1::2] << 32).T


def _draw(config: SimConfig, states: np.ndarray, xs: Optional[np.ndarray]):
    """(x, w, y) of a chunk of replications, one per row of seed states,
    as (R, n) arrays of 0.0 and 1.0: a row per binary variable drawn of
    each child's ``default_rng(child).random((m, n))``, from one PCG64
    given each child's state in turn by PCG's srandom step (O'Neill 2014).
    A variable is 1 where its uniform falls below its probability given
    its parents, computed once per distinct parent value and indexed by
    the parents' draws: P(W=1|x) at x = 0, 1 or at each shared ``xs``,
    P(Y=1|x, w) at each (x, w), by the code 2x + w, or at w x ``xs``.
    Each is the expression a row-wise ``expit`` would take, so the draws
    are its bit for bit."""
    bitgen, m = np.random.PCG64(0), 3 if config.kind == "binary" else 2
    gen, u = np.random.Generator(bitgen), np.empty((len(states), m, config.n))
    for row, (s_hi, s_lo, i_hi, i_lo) in zip(u, states.tolist()):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) % 2 ** 128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) % 2 ** 128
        bitgen.state = {"bit_generator": "PCG64", "has_uint32": 0,
                        "uinteger": 0, "state": {"state": state, "inc": inc}}
        gen.random(out=row)
    g0, gx, b0, bx, bw = (config.gamma0, config.gamma_x, config.beta0,
                          config.beta_x, config.beta_w)
    if m == 3:
        x = (u[:, 0] < expit(0.0)).view(np.uint8)
        w = (u[:, 1] < expit(g0 + gx * _LEVELS).take(x)).view(np.uint8)
        y = u[:, 2] < expit(b0 + bx * _LEVELS[:, None]
                            + bw * _LEVELS).take(2 * x + w)
        return x.astype(float), w.astype(float), y.astype(float)
    w = u[:, 0] < expit(g0 + gx * xs)
    p0, p1 = expit(b0 + bx * xs + bw * _LEVELS[:, None])
    y = u[:, 1] < np.where(w, p1, p0)
    return np.broadcast_to(xs, w.shape), w.astype(float), y.astype(float)


def _streams(config: SimConfig, indices):
    """The seed states of the cell's replications ``indices``, and its
    shared treatment sample (None for a binary treatment)."""
    return _seed_states(config, indices), (
        None if config.kind == "binary" else fixed_treatment_sample(
            config.seed, config.n, config.pseudo_population))


def generate_data(config: SimConfig, replication: int) -> Dataset:
    """The exact data of replication 0, 1, ..., reproducible in isolation."""
    if not (_is(replication, int) and replication >= 0):
        raise SimulationError(f"'replication' must be a nonnegative "
                              f"integer, got {replication!r}")
    if replication >= 2 ** 64:      # a spawn key is one uint64
        raise SimulationError(f"'replication' must be below 2**64, got "
                              f"{replication!r}")
    states, xs = _streams(config, [int(replication)])
    x, w, y = (v[0] for v in _draw(config, states, xs))
    return Dataset.from_records({"Y": y, "X": x, "W": w})


# -- a cell's estimators ---------------------------------------------------

def _fit_chunk(x: np.ndarray, ws: np.ndarray, ys: np.ndarray):
    """The fits of a chunk of replications of a continuous cell, which
    share the treatment sample ``x``; ``ws`` and ``ys`` have shape
    (R, n).  W ~ X has the one design [1, x] for every replication, so
    its fits are one ``irls_stack`` on the shared design, and KHB's OLS
    slopes b are the chunk's responses times the design's
    pseudo-inverse; Y ~ X + W is fitted by ``irls`` on each replication's
    rows.  Returns (gammas, betas, slopes, usable), stacked on a first
    axis of R; a replication is usable when x takes two values or more
    and neither fit flags separation.

    One ``lstsq`` with a right-hand side per replication would give the
    OLS slopes too, but it runs multithreaded BLAS: with the other vCPU of
    a 2-vCPU VM busy it took 16 ms a chunk, not 0.17 ms, where the
    pseudo-inverse took 0.06-0.08 ms."""
    ones = np.ones(len(x))
    xw_model = np.column_stack([ones, x])
    gammas, *_, w_separation = irls_stack(
        xw_model, ws, np.broadcast_to(ones, ws.shape))
    y_fits = [irls(np.column_stack([xw_model, w]), y, ones)
              for w, y in zip(ws, ys)]
    betas = np.array([fit[0] for fit in y_fits])
    y_ok = np.array([not fit[5] for fit in y_fits])
    return (gammas, betas, (ws @ np.linalg.pinv(xw_model).T)[:, 1],
            (x.min() < x.max()) & ~w_separation & y_ok)


def _fit_tables(tables: np.ndarray):
    """The fits of a stack of replications with a 0/1 treatment, given as
    their (x, w, y) counts, shape (R, 2, 2, 2).  W ~ X is saturated: its
    maximum-likelihood fit is the observed log odds of w, gamma0 =
    log(n01 / n00) and gamma_x = log(n11 / n10) - gamma0 from the (x, w)
    counts n_xw, and it is separated (no finite estimate; nan here)
    exactly when one of the four counts is 0, x taking one value among
    those.  Y ~ X + W is one ``irls_stack`` on ``_Y_DESIGN``, [1, x, w] on
    the 8 (x, w, y) cells, weighted by the counts (the n rows' likelihood).
    The OLS slope b is the mean of w at x = 1 less that at x = 0.  A
    replication is not usable when an (x, w) count is 0, when the Y fit
    flags separation (as every fit that does not converge does), or when
    the means of y at x = 0 and x = 1 tie, y11 n0 = y01 n1 in its counts:
    its fitted total effect is then 0 up to the fit's stopping error, and
    its share undefined.  Returns (gammas, betas, slopes, usable), stacked
    on a first axis of R."""
    xw = tables.sum(axis=3)
    at_x = xw.sum(axis=2)
    mean = xw[:, :, 1] / np.maximum(at_x, 1)   # of w at x = 0, 1
    filled = (xw > 0).all(axis=(1, 2))
    log_odds = np.log(np.divide(xw[:, :, 1], xw[:, :, 0], out=np.full(
        at_x.shape, np.nan), where=filled[:, None]))     # of w at x = 0, 1
    betas, *_, y_separation = irls_stack(
        _Y_DESIGN, np.broadcast_to(_CELLS[:, 2], (len(tables), 8)),
        tables.reshape(len(tables), 8).astype(float))
    y1 = tables[..., 1].sum(axis=2)     # of y = 1 at x = 0, 1
    tied = y1[:, 1] * at_x[:, 0] == y1[:, 0] * at_x[:, 1]
    g0, g1 = log_odds.T
    return (np.column_stack([g0, g1 - g0]), betas, mean[:, 1] - mean[:, 0],
            filled & ~tied & ~y_separation)


def _shares(gammas, betas, slopes, kind: str,
            xs: Optional[np.ndarray]) -> tuple:
    """(rsd, khb) shares of kept replications' stacked fits and OLS
    slopes, as arrays; ``xs`` is a continuous treatment's shared sample.
    A binary rsd share is IE/TE of one ``_decompose`` over the stack of
    fits, ``decompose``'s on each fit bit for bit.  The KHB share is
    (bx_red - bx) / bx_red for either kind, bx_red = bx + b bw: the
    reduced model Y ~ X + R, R = W - a - b X the OLS residual, is the full
    model in other coordinates, with the same eta.  Newton's method is
    affine-invariant, so a fit of the reduced design would follow the
    full fit's path up to rounding and the stopping rule, and would flag
    as it does unless W is affine in X, where the W fit separates anyway;
    and one average partial effect rescaling both would cancel out."""
    rsd = (share_continuous(*betas.T, *gammas.T, xs)
           if kind == "continuous" else _decompose(
               _BINARY, np.hstack([betas, gammas]),
               EffectRequest.contrast(1, 0)).mediated_share()[0])
    reduced = betas[:, 1] + slopes * betas[:, 2]
    return rsd, (reduced - betas[:, 1]) / reduced


# -- the study -------------------------------------------------------------

def true_value(config: SimConfig) -> float:
    """The estimand: exact for a binary treatment, a pseudo-population
    average for a continuous one.  A total effect of 0, or a total or
    indirect effect that is not finite, at the truth leaves it undefined,
    a SimulationError that names the cell."""
    truth = (config.beta0, config.beta_x, config.beta_w, config.gamma0,
             config.gamma_x)
    if config.kind == "binary":
        d = _decompose(_BINARY, np.array(truth), EffectRequest.contrast(1, 0))
        te, ie = d.total, d.indirect
    else:
        te, ie = _population_effects(truth, config.seed,
                                     config.pseudo_population)
    for name, value in (("total", te), ("indirect", ie)):
        if not math.isfinite(value) or name == "total" and value == 0.0:
            raise SimulationError(
                f"cell {_label(config)}: its {name} effect at the truth is "
                f"{value + 0.0:g}, so its mediated share is undefined")
    return float(ie / te)


@dataclass(frozen=True)
class MethodStats:
    average: float
    variance: float
    rmse: float


@dataclass(frozen=True)
class SimResult:
    kind: str
    beta_x: float
    n: int
    replications: int
    true_value: float
    rsd: MethodStats
    khb: MethodStats
    excluded: int


def _stats(estimates: np.ndarray, truth: float) -> MethodStats:
    avg = float(np.mean(estimates))
    var = float(np.mean((estimates - avg) ** 2))
    rmse = float(np.sqrt(np.mean((estimates - truth) ** 2)))
    return MethodStats(avg, var, rmse)


def run_cell(config: SimConfig) -> SimResult:
    """All replications of one (kind, beta_x, n) scenario; the truth
    comes first, so a cell without one fails before its first draw."""
    truth = true_value(config)
    states, xs = _streams(config, np.arange(config.replications))
    size, chunks = max(1, CHUNK_ROWS // config.n), []
    for i in range(0, config.replications, size):     # drawn in order
        x, w, y = _draw(config, states[i:i + size], xs)
        chunks.append(_fit_chunk(xs, w, y) if config.kind == "continuous"
                      else tabulate((np.arange(len(x))[:, None], x, w, y),
                                    (len(x), 2, 2, 2)))
    *coefs, kept = (_fit_tables(np.concatenate(chunks))     # counts only
                    if config.kind == "binary"
                    else map(np.concatenate, zip(*chunks)))
    excluded = config.replications - int(np.count_nonzero(kept))
    if excluded > EXCLUSION_LIMIT * config.replications or not kept.any():
        raise SimulationError(
            f"{excluded} of {config.replications} replications excluded "
            f"(limit {EXCLUSION_LIMIT:.0%}) in cell {_label(config)}"
            + ("" if kept.any() else ", so it has no share to average"))
    rsd, khb = (_stats(v, truth) for v in _shares(
        *(c[kept] for c in coefs), config.kind, xs))
    return SimResult(config.kind, config.beta_x, config.n,
                     config.replications, truth, rsd, khb, excluded)


def run_study(grid: Mapping, on_cell: Optional[Callable] = None) -> list:
    """Run the full grid described by a config document.

    Keys: seed, replications, treatment (list of kinds), beta_x (list),
    n (list); optional truth overrides beta0, beta_w, gamma0, gamma_x,
    and pseudo_population.  Any other key is refused, and so is a list
    that is empty or repeats a value; ``SimConfig`` checks each value.
    ``on_cell`` gets each SimResult as its cell finishes.
    """
    # a grid names SimConfig's fields, with treatment for kind
    lists = ("treatment", "beta_x", "n")
    keys = {f.name for f in fields(SimConfig)} - {"kind"} | {"treatment"}
    unknown = sorted(map(repr, grid.keys() - keys))
    if unknown:
        raise SimulationError(f"bad study config: unknown key "
                              f"{', '.join(unknown)}")
    for key in ("seed", "replications", *lists):
        if key not in grid:
            raise SimulationError(f"bad study config: no {key!r}")
        value = grid[key]
        if key in lists and not (isinstance(value, list) and value and all(
                v not in value[:i] for i, v in enumerate(value))):
            raise SimulationError(f"bad study config: {key!r} must be a "
                                  f"list of distinct values, at least one, "
                                  f"got {value!r}")
    rest = {key: value for key, value in grid.items() if key not in lists}
    configs = [SimConfig(kind, beta_x, n, **rest) for kind, beta_x, n
               in itertools.product(*map(grid.get, lists))]
    results = []
    for config in configs:     # every cell is checked before the first runs
        results.append(run_cell(config))
        if on_cell is not None:
            on_cell(results[-1])
    return results


def results_to_csv(results: Sequence[SimResult]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["method", "treatment", "beta_x", "n", "average",
                     "variance", "rmse", "true_value", "excluded"])
    for r in results:
        for method, st in (("khb", r.khb), ("rsd", r.rsd)):
            writer.writerow([method, r.kind, r.beta_x, r.n,
                             f"{st.average:.6f}", f"{st.variance:.6f}",
                             f"{st.rmse:.6f}", f"{r.true_value:.6f}",
                             r.excluded])
    return buf.getvalue()
