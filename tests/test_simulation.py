"""The study harness against the generic effect machinery."""

import dataclasses
import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from logitpath import (Dataset, SystemSpec, VariableSpec,
                       average_probability_effects, decompose, fit_system)
from logitpath.effects import EffectRequest
import logitpath.fitting as fitting
import logitpath.simulation as simulation
from logitpath.simulation import (CHUNK_ROWS, SimConfig, SimulationError,
                                  _cell_seed, _fit_chunk, _fit_tables,
                                  _stats, _tpe_ipe, _shares,
                                  fixed_treatment_sample,
                                  generate_data, pseudo_population,
                                  results_to_csv, run_cell, run_study,
                                  share_continuous, true_value)
from logitpath.fitting import irls, tabulate
from logitpath.model import ParameterSet
from conftest import assert_close


def study_spec(kind):
    variables = [VariableSpec("Y", "outcome", "binary"),
                 VariableSpec("W", "mediator", "binary", mediator_index=1),
                 VariableSpec("X", "treatment", kind)]
    return SystemSpec.build(variables, {"Y": ["1", "X", "W"],
                                        "W": ["1", "X"]})


def study_params(kind, b0, bx, bw, g0, gx):
    return ParameterSet.from_nested(study_spec(kind), {
        "Y": {"1": b0, "X": bx, "W": bw},
        "W": {"1": g0, "X": gx}})


def _fit_models(x, w, y):
    """One replication's fits, by its cell's path on a stack of one:
    ``_fit_tables`` on the counts of a 0/1 treatment, ``_fit_chunk`` on
    any other.  Returns (w-model coefs, y-model coefs, the OLS slope b of
    w on x, usable flag)."""
    if np.all((x == 0.0) | (x == 1.0)):
        *coefs, usable = _fit_tables(tabulate((x, w, y), (2, 2, 2))[None])
    else:
        *coefs, usable = _fit_chunk(x, w[None], y[None])
    return (*(c[0] for c in coefs), bool(usable[0]))


def reduced_coefs(beta, slope, a):
    """KHB's reduced-model coefficients (b0 + a bw, bx + b bw, bw) of a
    full fit (b0, bx, bw) and the OLS fit (a, b) of w on x."""
    return np.array([beta[0] + a * beta[2], beta[1] + slope * beta[2],
                     beta[2]])


def test_config_validation():
    ok = dict(kind="binary", beta_x=0.9, n=100, replications=5, seed=1)
    SimConfig(**ok)
    with pytest.raises(SimulationError, match="kind"):
        SimConfig(**{**ok, "kind": "ordinal"})
    with pytest.raises(SimulationError, match="positive"):
        SimConfig(**{**ok, "n": 0})
    with pytest.raises(SimulationError, match="positive"):
        SimConfig(**{**ok, "replications": 0})
    with pytest.raises(SimulationError, match="seed"):
        SimConfig(**{**ok, "seed": -2})
    with pytest.raises(SimulationError, match="beta_x"):
        SimConfig(**{**ok, "beta_x": float("nan")})


@pytest.mark.parametrize("field,value", [
    ("seed", 1.5), ("seed", True), ("n", True), ("n", 50.5),
    ("replications", True), ("pseudo_population", np.bool_(True)),
    ("beta_x", True), ("beta_w", "2"),
], ids=["seed-fraction", "seed-true", "n-true", "n-fraction",
        "replications-true", "population-numpy-true", "beta_x-true",
        "beta_w-string"])
def test_a_cell_field_is_a_number_of_its_kind(field, value):
    # before, a seed of 1.5 or True reran seed 1's replications, and an n
    # of True or 50.5 failed with a numpy TypeError inside run_cell
    ok = dict(kind="binary", beta_x=0.9, n=50, replications=2, seed=1)
    with pytest.raises(SimulationError, match=(
            rf"^bad study config: '{field}' must be a .+, got "
            rf"{re.escape(repr(value))}$")) as err:
        SimConfig(**{**ok, field: value})
    # a grid file meets the same rule and the same message
    grid = {"seed": 1, "replications": 2, "treatment": ["binary"],
            "beta_x": [0.9], "n": [50],
            field: [value] if field in ("beta_x", "n") else value}
    with pytest.raises(SimulationError) as again:
        run_study(grid)
    assert str(again.value) == str(err.value)


def test_a_whole_float_is_the_integer_it_names():
    ints = SimConfig(kind="binary", beta_x=1, n=60, replications=3, seed=11)
    floats = SimConfig(kind="binary", beta_x=1.0, n=60.0, replications=3.0,
                       seed=11.0, pseudo_population=150_000.0)
    assert floats == ints
    assert [type(getattr(floats, name)) for name in (
        "n", "replications", "seed", "pseudo_population", "beta_x")] \
        == [int, int, int, int, float]
    assert run_cell(floats) == run_cell(ints)


# -- the continuous closed forms against the generic engine ----------------

def test_probability_derivatives_closed_form():
    rng = np.random.default_rng(122)
    # 50 random points, and a far-tail one of the study's truth, where
    # P(W=1|x) is about 1e-6 and P(Y=1|x, W=0) about 0.997
    for b0, bx, bw, g0, gx, x in itertools.chain(
            ((*rng.normal(0.0, 1.2, 5), float(rng.normal(0.0, 1.4)))
             for _ in range(50)), [(-2.0, -1.3, 2.0, -2.0, 2.0, -5.93)]):
        params = study_params("continuous", b0, bx, bw, g0, gx)
        tpe, ipe = _tpe_ipe(b0, bx, bw, g0, gx, x)
        d = decompose(params, EffectRequest.derivative(
            x, scale="probability"))
        assert_close(tpe, d.total, 1e-12, "tpe")
        assert_close(ipe, d.indirect, 1e-12, "ipe")


def test_continuous_share_is_the_average_effect_ratio():
    rng = np.random.default_rng(123)
    b0, bx, bw, g0, gx = 0.3, 0.7, 1.1, -0.4, 0.9
    xs = rng.normal(0.0, np.sqrt(2.0), 200)
    params = study_params("continuous", b0, bx, bw, g0, gx)
    data = Dataset.from_records({"Y": np.zeros(200), "W": np.zeros(200),
                                 "X": xs})
    atpe, _, aipe = average_probability_effects(params, data)
    assert_close(share_continuous(b0, bx, bw, g0, gx, xs),
                 aipe / atpe, 1e-12, "continuous share")


@pytest.mark.parametrize("chunk_rows,replications", [
    (CHUNK_ROWS, 23), (4 * 50 - 1, 11), (49, 5)],
    ids=["one-slab", "slabs-of-3", "slabs-of-1"])
def test_stacked_continuous_shares_are_the_scalar_ones(chunk_rows,
                                                       replications,
                                                       monkeypatch):
    # at n = 50: one slab of every replication, slabs of 3 rows with a
    # last one of 2, and with n > CHUNK_ROWS slabs of one replication
    rng = np.random.default_rng(125)
    xs = rng.normal(0.0, np.sqrt(2.0), 50)
    coefs = rng.normal(0.0, 1.2, (5, replications)) + [[-2.0], [0.9],
                                                        [2.0], [-2.0], [2.0]]
    slabs = []

    def recording(*args):
        slabs.append(np.broadcast_shapes(*map(np.shape, args)))
        return _tpe_ipe(*args)

    monkeypatch.setattr(simulation, "CHUNK_ROWS", chunk_rows)
    monkeypatch.setattr(simulation, "_tpe_ipe", recording)
    stacked = share_continuous(*coefs, xs)
    size = max(1, chunk_rows // 50)
    assert slabs == [(min(size, replications - i), 50)
                     for i in range(0, replications, size)]
    scalar = [share_continuous(*map(float, c), xs) for c in coefs.T]
    assert all(type(v) is float for v in scalar)
    assert stacked.tobytes() == np.array(scalar).tobytes()
    # and each is AIPE / ATPE of the pointwise closed form
    for c, share in zip(coefs.T, scalar):
        tpe, ipe = _tpe_ipe(*c, xs)
        assert share == np.mean(ipe) / np.mean(tpe)


def test_a_continuous_cell_takes_one_share_call_in_bounded_slabs(
        monkeypatch):
    # before: one share_continuous call per kept replication; now one
    # call per cell, whose slabs hold at most CHUNK_ROWS rows
    cfg = SimConfig(kind="continuous", beta_x=0.9, n=60, replications=40,
                    seed=7, pseudo_population=2000)
    monkeypatch.setattr(simulation, "CHUNK_ROWS", 7 * 60 + 59)
    monkeypatch.setattr(simulation, "EXCLUSION_LIMIT", 1.0)
    calls, rows = [], []
    original_share, original_effects = share_continuous, _tpe_ipe

    def counting_share(*args):
        calls.append(len(args[0]))
        return original_share(*args)

    def counting_effects(*args):
        rows.append(np.broadcast_shapes(*map(np.shape, args)))
        return original_effects(*args)

    simulation._population_effects.cache_clear()
    monkeypatch.setattr(simulation, "share_continuous", counting_share)
    monkeypatch.setattr(simulation, "_tpe_ipe", counting_effects)
    result = run_cell(cfg)
    assert calls == [40 - result.excluded]
    # the truth's slabs of the population come first, then the shares'
    truth = [shape[0] for shape in rows if len(shape) == 1]
    slabs = [np.prod(shape) for shape in rows[len(truth):]]
    assert truth == [7 * 60 + 59] * 4 + [2000 - 4 * (7 * 60 + 59)]
    assert len(slabs) == -(-calls[0] // 7)
    assert max(slabs) == 7 * 60 <= simulation.CHUNK_ROWS


def test_zero_mediator_arrow_means_zero_share():
    cfg = SimConfig(kind="binary", beta_x=0.9, n=50, replications=2,
                    seed=3, beta_w=0.0)
    assert true_value(cfg) == 0.0
    cfg = SimConfig(kind="continuous", beta_x=0.9, n=50, replications=2,
                    seed=3, beta_w=0.0, pseudo_population=1000)
    assert true_value(cfg) == 0.0


@pytest.mark.parametrize("kind,truth,te", [
    ("binary", {"gamma_x": 0.0}, "0"), ("continuous", {"gamma_x": 0.0}, "0"),
    ("binary", {"beta0": 1e308, "beta_w": 1e308}, "nan"),
    ("continuous", {"gamma_x": -1e308}, "0"),
], ids=["binary", "continuous", "binary-not-finite", "continuous-not-finite"])
def test_a_cell_without_a_total_effect_at_the_truth_fails_first(
        kind, truth, te, monkeypatch):
    # before: a ZeroDivisionError (binary), or a true value and an rmse of
    # nan (continuous), after every replication was fitted; a truth that
    # is not finite (Y's linear predictor overflows to inf in the binary
    # kernel) was a true value of nan.  The continuous closed form is
    # finite for finite coefficients, |TPE| <= (|beta_x| + |gamma_x|) / 4
    # at each x: where gamma_x x overflows, P(W=1|x) is 0 or 1 and its
    # slope 0, so at beta_x = 0 this cell's total effect is 0
    fitted = []

    def recording_chunk(x, ws, ys):     # a continuous cell's fits, by chunk
        fitted.append(ws)
        return _fit_chunk(x, ws, ys)

    def recording_stack(tables):    # a binary cell's one fit of them all
        fitted.append(tables)
        return _fit_tables(tables)

    monkeypatch.setattr(simulation, "_fit_chunk", recording_chunk)
    monkeypatch.setattr(simulation, "_fit_tables", recording_stack)
    grid = {"seed": 3, "replications": 5, "treatment": [kind],
            "beta_x": [0.0], "n": [100], "pseudo_population": 1000, **truth}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SimulationError, match=(
                rf"^cell {kind}/beta_x=0.0/n=100: its total effect at the "
                rf"truth is {te}, so its mediated share is undefined$")):
            run_study(grid)
    assert fitted == []


@pytest.mark.parametrize("kind", ["binary", "continuous"])
def test_a_cell_that_keeps_no_replication_fails_readably(kind, monkeypatch):
    # before, with the exclusion limit lifted: numpy's "cannot reshape
    # array of size 0" (binary), or "Mean of empty slice" and statistics
    # of nan (continuous); a treatment of one unit takes one value, so
    # every replication is excluded
    monkeypatch.setattr(simulation, "EXCLUSION_LIMIT", 1.0)
    cfg = SimConfig(kind, 0.9, 1, 5, 3, pseudo_population=1000)
    with pytest.raises(SimulationError, match=re.escape(
            f"5 of 5 replications excluded (limit 100%) in cell "
            f"{kind}/beta_x=0.9/n=1, so it has no share to average")):
        run_cell(cfg)


# -- reproducible randomness -----------------------------------------------

def test_generated_data_is_reproducible_and_prefix_stable():
    cfg = SimConfig(kind="binary", beta_x=0.9, n=60, replications=4, seed=11)
    again = SimConfig(kind="binary", beta_x=0.9, n=60, replications=9,
                      seed=11)
    d1 = generate_data(cfg, 2)
    d2 = generate_data(again, 2)
    for col in ("X", "W", "Y"):
        assert np.array_equal(d1.columns[col], d2.columns[col])
    d3 = generate_data(cfg, 3)
    assert not np.array_equal(d1.columns["Y"], d3.columns["Y"])


@pytest.mark.parametrize("replication", [-1, 1.5, True],
                         ids=["negative", "fraction", "true"])
def test_generate_data_refuses_a_replication_that_is_no_index(replication):
    # before: an islice ValueError, a TypeError, and replication 1's data
    cfg = SimConfig(kind="binary", beta_x=0.9, n=60, replications=4, seed=11)
    with pytest.raises(SimulationError, match=(
            rf"^'replication' must be a nonnegative integer, got "
            rf"{re.escape(repr(replication))}$")):
        generate_data(cfg, replication)


@pytest.mark.parametrize("replication", [2 ** 64, 2 ** 70 + 1, 2.0 ** 64],
                         ids=["2**64", "2**70+1", "float-2**64"])
def test_generate_data_refuses_a_replication_beyond_the_spawn_keys(
        replication):
    # before: a bare OverflowError from the uint64 spawn keys
    cfg = SimConfig(kind="binary", beta_x=0.9, n=60, replications=4, seed=11)
    with pytest.raises(SimulationError, match=(
            rf"^'replication' must be below 2\*\*64, got "
            rf"{re.escape(repr(replication))}$")):
        generate_data(cfg, replication)


def test_generate_data_draws_the_last_replication_below_2_64():
    cfg = SimConfig(kind="binary", beta_x=0.9, n=60, replications=4, seed=11)
    r = 2 ** 64 - 1
    child = np.random.SeedSequence(_cell_seed(cfg).entropy, spawn_key=(r,))
    data = generate_data(cfg, r)
    for col, want in zip("XWY", _reference_columns(cfg, child)):
        assert np.array_equal(data.columns[col], want)


def test_generate_data_reads_a_whole_float_replication():
    cfg = SimConfig(kind="binary", beta_x=0.9, n=60, replications=4, seed=11)
    d2, again = generate_data(cfg, 2), generate_data(cfg, 2.0)
    for col in ("X", "W", "Y"):
        assert np.array_equal(d2.columns[col], again.columns[col])


def test_generate_data_seeds_its_own_replication_only(monkeypatch):
    # before: replication r spawned r + 1 children and kept the last
    asked, original = [], simulation._seed_states

    def recording(config, indices):
        asked.append(list(indices))
        return original(config, indices)

    monkeypatch.setattr(simulation, "_seed_states", recording)
    for kind in ("binary", "continuous"):
        cfg = SimConfig(kind=kind, beta_x=0.9, n=60, replications=4,
                        seed=11, pseudo_population=2000)
        generate_data(cfg, 1000)
    assert asked == [[1000], [1000]]


def _reference_columns(cfg, child):
    """A replication's (x, w, y) from ``default_rng(child)``, one
    ``random(n)`` per binary variable drawn."""
    rng = np.random.default_rng(child)

    def coin(eta):
        return (rng.random(cfg.n) < fitting.expit(eta)).astype(float)
    x = (coin(0.0) if cfg.kind == "binary" else
         fixed_treatment_sample(cfg.seed, cfg.n, cfg.pseudo_population))
    w = coin(cfg.gamma0 + cfg.gamma_x * x)
    return x, w, coin(cfg.beta0 + cfg.beta_x * x + cfg.beta_w * w)


@pytest.mark.parametrize("kind", ["binary", "continuous"])
def test_generate_data_reaches_a_replication_beyond_32_bits(kind):
    # its spawn key takes two 32-bit words
    r = 2 ** 32 + 7
    cfg = SimConfig(kind=kind, beta_x=0.9, n=40, replications=4, seed=13,
                    pseudo_population=2000)
    child = np.random.SeedSequence(_cell_seed(cfg).entropy, spawn_key=(r,))
    data = generate_data(cfg, r)
    for name, want in zip("XWY", _reference_columns(cfg, child)):
        assert data.columns[name].astype(float).tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["binary", "continuous"])
def test_a_cell_builds_no_generator_per_replication(monkeypatch, kind):
    # before: one default_rng per replication
    calls, original = [], np.random.default_rng

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(np.random, "default_rng", counting)
    monkeypatch.setattr(simulation, "EXCLUSION_LIMIT", 1.0)
    simulation._shared_population.cache_clear()
    simulation._population_effects.cache_clear()
    run_cell(SimConfig(kind=kind, beta_x=0.9, n=40, replications=50,
                       seed=19, pseudo_population=2000))
    # the population and the treatment subsample of a continuous cell
    assert len(calls) == (0 if kind == "binary" else 2)


_SEED_WORDS = st.sampled_from([0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3]) | \
    st.integers(0, 2 ** 70)
_BETA_X = st.sampled_from([0.4, 1.8, -0.5, 1.7e308, -2.0 ** -40]) | \
    st.floats(-1e3, 1e3)
_PINNED = [0, 99, 2 ** 32 - 1, 2 ** 32, 2 ** 40]
_INDICES = st.lists(st.sampled_from(_PINNED) | st.integers(0, 2 ** 64 - 1),
                    min_size=1, max_size=6)


@example(seed=0, beta_x=-0.5, kind="binary", n=1, indices=_PINNED)
@example(seed=2 ** 32 - 1, beta_x=1.7e308, kind="continuous", n=7,
         indices=_PINNED)
@example(seed=2 ** 32, beta_x=-2.0 ** -40, kind="binary", n=250,
         indices=_PINNED)
@example(seed=2 ** 64 + 3, beta_x=0.4, kind="continuous", n=2 ** 33,
         indices=_PINNED)
@given(seed=_SEED_WORDS, beta_x=_BETA_X,
       kind=st.sampled_from(["binary", "continuous"]),
       n=st.sampled_from([1, 7, 250, 2 ** 33]), indices=_INDICES)
def test_seed_states_are_numpys_spawned_children(seed, beta_x, kind, n,
                                                 indices):
    # numpy's SeedSequence hash and PCG64 seeding, computed for a whole
    # cell at once; a change to either in numpy fails here
    cfg = SimConfig(kind=kind, beta_x=beta_x, n=n, replications=1,
                    seed=seed, pseudo_population=2 ** 33)
    entropy = _cell_seed(cfg).entropy
    children = [np.random.SeedSequence(entropy, spawn_key=(r,))
                for r in indices]
    spawned = _cell_seed(cfg).spawn(100)
    for r, child in zip(indices, children):
        if r < 100:
            assert spawned[r].generate_state(4).tolist() == \
                child.generate_state(4).tolist()
    states = simulation._seed_states(cfg, indices)
    assert states.dtype == np.uint64 and states.shape == (len(indices), 4)
    assert states.tolist() == [c.generate_state(4, np.uint64).tolist()
                               for c in children]
    # the uniforms that _draw thresholds, one random((m, n)) per child
    rows, generator = [], np.random.Generator

    class Recording:
        def __init__(self, bitgen):
            self.gen = generator(bitgen)

        def random(self, out):
            self.gen.random(out=out)
            rows.append(out.copy())

    m, width = (3 if kind == "binary" else 2), min(n, 9)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.random, "Generator", Recording)
        simulation._draw(dataclasses.replace(cfg, n=width), states,
                         np.zeros(width))
    assert len(rows) == len(children)
    for row, child in zip(rows, children):
        want = np.random.default_rng(child).random((m, width))
        assert row.tobytes() == want.tobytes()


def test_cell_seed_keeps_the_milli_encoding():
    # non-negative multiples of 0.001 keep their original entropy, so the
    # acceptance study and the benchmark's study cells draw the same data
    pinned = {
        ("binary", 0.4): [3877365111, 1548960114],
        ("binary", 0.9): [419630698, 3571461598],
        ("binary", 1.8): [4274901749, 426679869],
        ("continuous", 0.4): [876063997, 3599362388],
        ("continuous", 0.9): [3675990177, 3416231853],
        ("continuous", 1.8): [3043788121, 1496466281],
    }
    for (kind, beta_x), state in pinned.items():
        cfg = SimConfig(kind=kind, beta_x=beta_x, n=250, replications=1,
                        seed=7)
        assert _cell_seed(cfg).generate_state(2).tolist() == state


def test_cell_seed_is_injective_for_any_sign(monkeypatch):
    betas = (0.9, 0.9001, 0.8999, -0.5, 0.5, -0.0009, 0.0, 1e-4,
             2.0 ** -40, -2.0 ** -40, 4.5, -4.5, 1e306, -1e306, 1.7e308)
    states = {}
    for b in betas:
        cfg = SimConfig(kind="binary", beta_x=b, n=100, replications=1,
                        seed=3)
        states.setdefault(tuple(_cell_seed(cfg).generate_state(4)),
                          []).append(b)
    assert sorted(len(v) for v in states.values()) == [1] * len(betas)
    # replication 0 of this cell ties (26 of 150 with y = 1 at each x),
    # so the cell is run with the exclusion limit lifted
    monkeypatch.setattr(simulation, "EXCLUSION_LIMIT", 1.0)
    result = run_cell(SimConfig(kind="binary", beta_x=-0.5, n=300,
                                replications=3, seed=3))
    assert np.isfinite(result.true_value) and result.true_value != 0.0
    assert result.excluded == 1 and np.isfinite(result.rsd.average)


def test_continuous_treatment_is_shared_binary_is_redrawn():
    cfg = SimConfig(kind="continuous", beta_x=0.4, n=80, replications=3,
                    seed=21, pseudo_population=2000)
    a = generate_data(cfg, 0)
    b = generate_data(cfg, 1)
    assert np.array_equal(a.columns["X"], b.columns["X"])
    assert not np.array_equal(a.columns["W"], b.columns["W"])
    cfg = SimConfig(kind="binary", beta_x=0.4, n=80, replications=3, seed=21)
    a = generate_data(cfg, 0)
    b = generate_data(cfg, 1)
    assert not np.array_equal(a.columns["X"], b.columns["X"])


def test_fixed_sample_comes_from_the_pseudo_population():
    pop = pseudo_population(5, 3000)
    sub = fixed_treatment_sample(5, 120, 3000)
    assert len(sub) == 120
    assert len(np.unique(sub)) == 120
    assert np.isin(sub, pop).all()
    assert np.array_equal(sub, fixed_treatment_sample(5, 120, 3000))


def test_study_shares_each_truth_and_population(monkeypatch):
    # cells that differ only in n share one truth, and every continuous
    # cell of the seed one pseudo-population
    grid = {"seed": 23, "replications": 2, "treatment": ["continuous"],
            "beta_x": [0.9], "n": [60, 80], "pseudo_population": 4000}
    configs = [SimConfig("continuous", 0.9, n, 2, 23, pseudo_population=4000)
               for n in (60, 80)]
    fresh = [true_value(cfg) for cfg in configs]
    draws, population_evals = [], []
    original_draw, original_effects = pseudo_population, _tpe_ipe

    def counting_draw(seed, size):
        draws.append((seed, size))
        return original_draw(seed, size)

    def counting_effects(*args):
        population_evals.append(np.size(args[-1]) == 4000)
        return original_effects(*args)

    simulation._shared_population.cache_clear()
    simulation._population_effects.cache_clear()
    monkeypatch.setattr(simulation, "pseudo_population", counting_draw)
    monkeypatch.setattr(simulation, "_tpe_ipe", counting_effects)
    results = run_study(grid)
    assert draws == [(23, 4000)]
    assert population_evals.count(True) == 1
    assert [r.true_value for r in results] == fresh
    pop = pseudo_population(23, 4000)
    assert pop.flags.writeable and pop is not pseudo_population(23, 4000)
    for n in (60, 80):     # the second cell's truth is shared, not its error
        with pytest.raises(SimulationError,
                           match=f"^cell continuous/beta_x=0.0/n={n}:"):
            true_value(SimConfig("continuous", 0.0, n, 2, 23, gamma_x=0.0,
                                 pseudo_population=4000))


def test_run_cell_uses_the_same_replications_as_generate_data(monkeypatch):
    cfg = SimConfig(kind="binary", beta_x=0.9, n=150, replications=4,
                    seed=31)
    seen, stacks = [], []
    original_draw, original_fit = simulation._draw, simulation._fit_tables

    def recording(*args):
        seen.append(tuple(v.copy() for v in original_draw(*args)))
        return seen[-1]

    def recording_stack(tables):
        stacks.append(tables.copy())
        return original_fit(tables)

    monkeypatch.setattr(simulation, "CHUNK_ROWS", 2 * 150 + 149)
    monkeypatch.setattr(simulation, "_draw", recording)
    monkeypatch.setattr(simulation, "_fit_tables", recording_stack)
    run_cell(cfg)
    # two chunks of two replications, fitted as one stack of four
    assert [len(chunk[0]) for chunk in seen] == [2, 2]
    assert len(stacks) == 1 and len(stacks[0]) == 4
    rows = (np.concatenate(v) for v in zip(*seen))
    for i, (x, w, y, table) in enumerate(zip(*rows, stacks[0])):
        d = generate_data(cfg, i)
        assert np.array_equal(x, d.columns["X"].astype(float))
        assert np.array_equal(w, d.columns["W"].astype(float))
        assert np.array_equal(y, d.columns["Y"].astype(float))
        # the cell fits the counts of exactly these values
        assert np.array_equal(table, tabulate((x, w, y), (2, 2, 2)))


@pytest.mark.parametrize("kind", ["binary", "continuous"])
@pytest.mark.parametrize("chunk_rows,sizes", [
    (7 * 30 + 29, [7, 7, 3]),   # a last partial chunk
    (29, [1] * 17),             # n > CHUNK_ROWS: chunks of one
])
def test_a_chunk_draws_what_each_replication_draws_alone(
        monkeypatch, kind, chunk_rows, sizes):
    # one random((m, n)) per child's seed states and one expit per variable
    # of the chunk give each replication's own draws, bit for bit
    cfg = SimConfig(kind=kind, beta_x=0.9, n=30, replications=17, seed=71,
                    gamma_x=1.5, pseudo_population=2000)
    seen, original = [], simulation._draw

    def recording(*args):
        seen.append(original(*args))
        return seen[-1]

    monkeypatch.setattr(simulation, "CHUNK_ROWS", chunk_rows)
    monkeypatch.setattr(simulation, "EXCLUSION_LIMIT", 1.0)
    monkeypatch.setattr(simulation, "_draw", recording)
    run_cell(cfg)
    assert [len(chunk[0]) for chunk in seen] == sizes
    assert all(v.shape == (len(chunk[0]), 30) for chunk in seen for v in chunk)
    rows = [np.concatenate(v) for v in zip(*seen)]
    for i, child in enumerate(_cell_seed(cfg).spawn(17)):
        for got, want in zip(rows, _reference_columns(cfg, child)):
            assert got[i].tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["binary", "continuous"])
def test_a_chunk_computes_each_draw_probability_once_per_pattern(
        monkeypatch, kind):
    # before: expit over all R x n rows for Y, and for W of a binary
    # treatment; now over each parent value once: x for the treatment of
    # a binary cell, x in {0, 1} or the n shared xs for W, and (x, w) or
    # w x xs for Y
    cfg = SimConfig(kind=kind, beta_x=0.9, n=30, replications=5, seed=71,
                    gamma_x=1.5, pseudo_population=2000)
    states, xs = simulation._streams(cfg, range(5))
    sizes, original = [], simulation.expit

    def recording(t):
        sizes.append(np.size(t))
        return original(t)

    monkeypatch.setattr(simulation, "expit", recording)
    draws = simulation._draw(cfg, states, xs)
    assert sizes == ([1, 2, 4] if kind == "binary" else [30, 60])
    assert max(sizes) < 5 * 30
    for i, child in enumerate(_cell_seed(cfg).spawn(5)):
        for got, want in zip(draws, _reference_columns(cfg, child)):
            assert got[i].tobytes() == want.tobytes()


def test_a_chunk_counts_what_each_replication_counts_alone(monkeypatch):
    # one bincount over (replication, x, w, y) codes per chunk; at n = 12
    # most replications leave some of their 8 cells empty
    cfg = SimConfig(kind="binary", beta_x=0.9, n=12, replications=8, seed=73)
    seen, stacks = [], []
    original_draw, original_fit = simulation._draw, simulation._fit_tables

    def recording(*args):
        seen.append(original_draw(*args))
        return seen[-1]

    def recording_stack(tables):
        stacks.append(tables)
        return original_fit(tables)

    monkeypatch.setattr(simulation, "CHUNK_ROWS", 3 * 12 + 11)
    monkeypatch.setattr(simulation, "EXCLUSION_LIMIT", 1.0)
    monkeypatch.setattr(simulation, "_draw", recording)
    monkeypatch.setattr(simulation, "_fit_tables", recording_stack)
    run_cell(cfg)
    assert [len(chunk[0]) for chunk in seen] == [3, 3, 2]
    (tables,) = stacks
    expected = [tabulate(row, (2, 2, 2)) for chunk in seen
                for row in zip(*chunk)]
    assert tables.dtype == np.intp
    assert np.array_equal(tables, expected)
    assert np.count_nonzero(tables == 0) > 8    # empty cells counted as 0


def test_a_continuous_truth_sums_its_population_in_bounded_slabs():
    # before: one _tpe_ipe call on all 150,000 values, whose temporaries
    # peaked at 9.6 MB under tracemalloc; the means keep their bits
    cfg = SimConfig(kind="continuous", beta_x=0.9, n=250, replications=2,
                    seed=83)
    pop = simulation._shared_population(83, simulation.PSEUDO_POPULATION)
    simulation._population_effects.cache_clear()
    tracemalloc.start()
    try:
        share = true_value(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6
    tpe, ipe = map(np.mean, _tpe_ipe(-2.0, 0.9, 2.0, -2.0, 2.0, pop))
    assert simulation._population_effects(
        (-2.0, 0.9, 2.0, -2.0, 2.0), 83, len(pop)) == (tpe, ipe)
    assert share == float(ipe / tpe)


# -- per-replication estimators --------------------------------------------

def test_ratio_estimator_equals_the_generic_pipeline(monkeypatch):
    # a binary cell's shares are decompose's IE/TE on each fit, bit for bit
    cfg = SimConfig(kind="binary", beta_x=0.9, n=400, replications=20,
                    seed=41)
    fits = []

    def recording(tables):
        fits.append(_fit_tables(tables))
        return fits[-1]

    monkeypatch.setattr(simulation, "_fit_tables", recording)
    result = run_cell(cfg)
    (*coefs, usable), = fits
    kept = [c[usable] for c in coefs]
    rsd = _shares(*kept, "binary", None)[0]
    assert len(rsd) == np.count_nonzero(usable) == 20 - result.excluded
    for gamma, beta, share in zip(*kept[:2], rsd):
        d = decompose(study_params("binary", *beta, *gamma),
                      EffectRequest.contrast(1, 0))
        assert share == d.indirect / d.total
    d = decompose(study_params("binary", cfg.beta0, cfg.beta_x, cfg.beta_w,
                               cfg.gamma0, cfg.gamma_x),
                  EffectRequest.contrast(1, 0))
    assert result.true_value == d.indirect / d.total
    assert result.rsd == _stats(rsd, result.true_value)
    # the study's own fit is the library's
    fitted = fit_system(generate_data(cfg, 0), study_spec("binary"))
    d = decompose(fitted.params, EffectRequest.contrast(1, 0))
    assert_close(rsd[0], d.indirect / d.total, 1e-8, "binary rsd")

    cfg = SimConfig(kind="continuous", beta_x=0.9, n=400, replications=1,
                    seed=42, pseudo_population=5000)
    data = generate_data(cfg, 0)
    x = data.columns["X"].astype(float)
    w = data.columns["W"].astype(float)
    y = data.columns["Y"].astype(float)
    fitted = fit_system(data, study_spec("continuous"))
    atpe, _, aipe = average_probability_effects(fitted.params, data)
    gamma, beta, slope, _ = _fit_models(x, w, y)
    assert_close(_shares(gamma[None], beta[None], np.array([slope]),
                         "continuous", x)[0][0],
                 aipe / atpe, 1e-8, "continuous rsd")


def test_scaled_and_plain_residualization_shares_coincide():
    # the reduced model's eta, computed here in its own coordinates, is
    # the full model's, so the average partial effect that rescales the
    # two X coefficients cancels out of the continuous share
    for seed in (51, 52, 53):
        cfg = SimConfig(kind="continuous", beta_x=0.9, n=500,
                        replications=1, seed=seed, pseudo_population=5000)
        data = generate_data(cfg, 0)
        x, w, y = (data.columns[v].astype(float) for v in "XWY")
        gamma, beta, slope, kept = _fit_models(x, w, y)
        ones = np.ones(len(x))
        xw = np.column_stack([ones, x])
        ols = np.linalg.lstsq(xw, w, rcond=None)[0]
        residual = w - xw @ ols
        beta_r = reduced_coefs(beta, slope, ols[0])

        def ape(eta):
            p = 1.0 / (1.0 + np.exp(-eta))
            return np.mean(p * (1.0 - p))
        bx = beta[1] * ape(np.column_stack([ones, x, w]) @ beta)
        bx_red = beta_r[1] * ape(np.column_stack([ones, x, residual])
                                 @ beta_r)
        assert kept
        assert_close(_shares(gamma[None], beta[None], np.array([slope]),
                             "continuous", x)[1][0],
                     (bx_red - bx) / bx_red, 1e-12, "residualization share")


# (kind, seed, beta_x, n, replication, usable): a small-n binary and
# continuous replication whose Y fit halves a step, a separated one whose
# Y fit needs halvings to make progress, and two at the study's sizes
REPARAMETRIZED = [("binary", 1, 1.8, 12, 93, True),
                  ("continuous", 4, 0.9, 16, 0, True),
                  ("continuous", 3, 1.8, 16, 54, False),
                  ("binary", 2, 0.4, 250, 0, True),
                  ("continuous", 2, 0.4, 1000, 0, True)]


@pytest.mark.parametrize("kind,seed,beta_x,n,rep,usable", REPARAMETRIZED)
def test_reduced_fit_is_the_full_fit_reparametrized(kind, seed, beta_x, n,
                                                    rep, usable, monkeypatch):
    cfg = SimConfig(kind=kind, beta_x=beta_x, n=n, replications=1,
                    seed=seed, pseudo_population=5000)
    data = generate_data(cfg, rep)
    x, w, y = (data.columns[v].astype(float) for v in "XWY")
    ones = np.ones(n)
    xw = np.column_stack([ones, x])
    ols = np.linalg.lstsq(xw, w, rcond=None)[0]
    reduced = irls(np.column_stack([ones, x, w - xw @ ols]), y, ones)
    full = irls(np.column_stack([ones, x, w]), y, ones)
    gamma, beta, slope, kept = _fit_models(x, w, y)
    beta_r = reduced_coefs(beta, slope, ols[0])
    # two fits of one likelihood stop at different points within the
    # stopping rule: at most 1.3e-8 of 1 + |beta| over 3,510 usable
    # replications, n from 12 to 1,000 (reduced against full), and
    # 2.7e-8 over 36,000 binary ones (patterns against rows)
    near = 1e-7 * (1.0 + np.abs(full[0]))
    if kind == "continuous":    # fitted on its rows
        assert np.array_equal(beta, full[0])
    else:                       # fitted on its cell grid
        assert np.all(np.abs(beta - full[0]) <= near)
    assert reduced[4:] == full[4:]
    assert kept == usable == all(f[4] and not f[5]
                                 for f in (irls(xw, w, ones), full))
    if usable:
        assert np.all(np.abs(beta_r - reduced[0])
                      <= 1e-7 * (1.0 + np.abs(reduced[0])))
    if n < 100:     # the Y fit takes a halving: without one it differs
        monkeypatch.setattr(fitting, "MAX_HALVINGS", 0)
        unhalved = irls(np.column_stack([ones, x, w]), y, ones)
        assert not np.array_equal(unhalved[0], full[0])


# (kind, n, excluded replications): a continuous replication 4's Y fit
# separates at n = 40; n = 12 leaves (x, w, y) cells empty and separates
# most fits
ALONE_AND_STACKED = [("continuous", 40, [4]),
                     ("continuous", 12, [0, 1, 2, 5, 6, 7, 8, 9, 10]),
                     ("binary", 40, [0, 7]),
                     ("binary", 12, [0, 1, 3, 4, 5, 7, 8, 9])]


@pytest.mark.parametrize("kind,n,excluded", ALONE_AND_STACKED, ids=[
    f"{kind}-{n}" for kind, n, _ in ALONE_AND_STACKED])
def test_a_cell_fits_each_replication_as_it_fits_alone(kind, n, excluded,
                                                       monkeypatch):
    # 11 replications: a continuous cell fits them in chunks of 4, 4 and
    # 3, a binary cell as one stack of counts
    cfg = SimConfig(kind=kind, beta_x=1.8, n=n, replications=11, seed=4,
                    pseudo_population=5000)
    monkeypatch.setattr(simulation, "CHUNK_ROWS", 4 * n + n - 1)
    monkeypatch.setattr(simulation, "EXCLUSION_LIMIT", 1.0)
    stacks, path = [], "_fit_chunk" if kind == "continuous" else "_fit_tables"
    original = getattr(simulation, path)

    def recording(*args):
        stacks.append((args, original(*args)))
        return stacks[-1][-1]

    monkeypatch.setattr(simulation, path, recording)
    result = run_cell(cfg)
    args, fits = zip(*stacks)
    gammas, betas, slopes, usable = map(np.concatenate, zip(*fits))
    assert [[a.shape for a in chunk] for chunk in args] == (
        [[(n,), (4, n), (4, n)]] * 2 + [[(n,), (3, n), (3, n)]]
        if kind == "continuous" else [[(11, 2, 2, 2)]])
    xs = fixed_treatment_sample(cfg.seed, n, 5000)
    assert kind == "binary" or all(np.array_equal(x, xs) for x, *_ in args)
    assert np.flatnonzero(~usable).tolist() == excluded
    assert result.excluded == len(excluded)
    for i in range(cfg.replications):
        x, w, y = (generate_data(cfg, i).columns[v].astype(float)
                   for v in "XWY")
        xw = np.column_stack([np.ones(n), x])
        ols = np.linalg.lstsq(xw, w, rcond=None)[0]
        stacked_r = reduced_coefs(betas[i], slopes[i], ols[0])
        # alone: the cell's path on a stack of one
        gamma, beta, slope, kept = _fit_models(x, w, y)
        beta_r = reduced_coefs(beta, slope, ols[0])
        assert gammas[i].tobytes() == gamma.tobytes()
        assert betas[i].tobytes() == beta.tobytes()
        assert usable[i] == kept
        assert np.all(np.abs(stacked_r - beta_r)
                      <= 1e-14 * (1.0 + np.abs(beta_r)))
        # serially: irls on the replication's own [1, x] and [1, x, w]
        # rows (for a 0/1 treatment, every cell of their grid, weighted by
        # its count), and KHB's (a, b) from lstsq
        if kind == "continuous":
            ones = np.ones(n)
            w_fit, y_fit = (irls(np.column_stack([ones, *c[:-1]]), c[-1],
                                 ones) for c in ((x, w), (x, w, y)))
            tied = False
            assert gammas[i].tobytes() == w_fit[0].tobytes()
        else:
            w_fit, y_fit = pattern_fit(x, w), pattern_fit(x, w, y)
            tied = (y[x == 1].sum() * np.count_nonzero(x == 0)
                    == y[x == 0].sum() * np.count_nonzero(x == 1))
            # the W fit of a 0/1 treatment is its observed log odds, where
            # Newton's stops near it
            assert gammas[i].tobytes() == log_odds(x, w).tobytes()
            assert not np.all(np.isfinite(gammas[i])) or np.all(
                np.abs(gammas[i] - w_fit[0])
                <= 1e-7 * (1.0 + np.abs(gammas[i])))
        assert betas[i].tobytes() == y_fit[0].tobytes()
        assert usable[i] == (x.min() < x.max() and not tied and all(
            f[4] and not f[5] for f in (w_fit, y_fit)))
        want = np.append(betas[i][:2] + ols * betas[i][2], betas[i][2])
        assert np.all(np.abs(stacked_r - want)
                      <= 1e-14 * (1.0 + np.abs(want)))


def pattern_fit(*columns, every_cell=True):
    """``irls`` on the cells of the 0/1 ``columns``, each weighted by its
    count, the last column the response: every cell of their grid in C
    order, an empty one weighted 0, or only their distinct rows."""
    data = np.column_stack(columns)
    rows = np.array(list(itertools.product((0.0, 1.0), repeat=len(columns))))
    counts = np.array([np.all(data == r, axis=1).sum() for r in rows], float)
    if not every_cell:
        rows, counts = rows[counts > 0], counts[counts > 0]
    return irls(np.column_stack([np.ones(len(rows)), rows[:, :-1]]),
                rows[:, -1], counts)


def log_odds(x, w):
    """(g0, gx) of the saturated fit of the 0/1 ``w`` on the 0/1 ``x``
    from their counts: the log odds of w at x = 0, and at x = 1 less it;
    nan when an (x, w) cell is empty."""
    n = np.array([[np.count_nonzero((x == a) & (w == b)) for b in (0, 1)]
                  for a in (0, 1)], dtype=float)
    if not n.all():
        return np.full(2, np.nan)
    g0 = np.log(n[0, 1] / n[0, 0])
    return np.array([g0, np.log(n[1, 1] / n[1, 0]) - g0])


# (seed, beta_x, n, replication, distinct (x, w) rows, distinct (x, w, y)
# rows, usable): an empty (x, w) cell, where the W fit separates; every
# (x, w) cell filled and a separated Y fit; empty (x, w, y) cells only;
# every cell filled; and the study's sizes.  The Y fit runs on the full
# grid of 8 cells, an empty cell weighted 0, and W is read off its 4
# (x, w) counts
PATTERNS = [(1, 1.8, 12, 1, 3, 5, False), (1, 1.8, 12, 4, 4, 4, False),
            (1, 1.8, 12, 0, 4, 7, True), (1, 1.8, 20, 2, 4, 8, True),
            (2, 0.4, 250, 0, 4, 8, True), (5, 0.9, 1000, 3, 4, 8, True)]


@pytest.mark.parametrize("seed,beta_x,n,rep,xw_rows,xwy_rows,usable",
                         PATTERNS)
def test_a_binary_replication_is_fitted_on_its_patterns(
        seed, beta_x, n, rep, xw_rows, xwy_rows, usable, monkeypatch):
    cfg = SimConfig(kind="binary", beta_x=beta_x, n=n, replications=1,
                    seed=seed)
    data = generate_data(cfg, rep)
    x, w, y = (data.columns[v].astype(float) for v in "XWY")
    seen = []
    original = simulation.irls_stack

    def recording(X, response, weights):
        seen.append(((X.shape, response.shape),
                     original(X, response, weights)))
        return seen[-1][-1]

    monkeypatch.setattr(simulation, "irls_stack", recording)
    gamma, beta, slope, kept = _fit_models(x, w, y)
    w_fit, y_fit = pattern_fit(x, w), pattern_fit(x, w, y)
    # Y's one shared grid design, and a stack of one response; W's fit is
    # its observed log odds, where Newton's on its grid stops near it
    assert [shapes for shapes, _ in seen] == [((8, 3), (1, 8))]
    assert [len(np.unique(np.column_stack(c), axis=0))
            for c in ((x, w), (x, w, y))] == [xw_rows, xwy_rows]
    (_, fit), = seen
    assert all(np.array_equal(a[0], b) for a, b in zip(fit, y_fit))
    assert np.array_equal(beta, y_fit[0])
    assert gamma.tobytes() == log_odds(x, w).tobytes()
    assert np.isnan(gamma).all() if xw_rows < 4 else np.all(
        np.abs(gamma - w_fit[0]) <= 1e-7 * (1.0 + np.abs(gamma)))
    if (xw_rows, xwy_rows) == (4, 8):   # every cell filled: the fit on the
        # distinct rows alone, bit for bit (a design in another memory
        # layout would round differently)
        assert all(np.array_equal(a, b) for a, b in zip(
            y_fit, pattern_fit(x, w, y, every_cell=False)))
        assert all(np.array_equal(a, b) for a, b in zip(
            w_fit, pattern_fit(x, w, every_cell=False)))
    assert kept == usable == all(f[4] and not f[5] for f in (w_fit, y_fit))
    # (a, b) of the OLS fit of w on x, from the pattern counts
    ols = np.linalg.lstsq(np.column_stack([np.ones(n), x]), w,
                          rcond=None)[0]
    assert np.allclose(reduced_coefs(beta, slope, ols[0]),
                       np.append(beta[:2] + ols * beta[2], beta[2]),
                       rtol=1e-14, atol=1e-14)


def test_a_binary_w_fit_is_its_observed_log_odds():
    # before: a Newton irls_stack on the 4 (x, w) cells, which stopped up
    # to 1.3e-8 short of the saturated model's exact estimate.  Seeded
    # counts, then each single empty cell, each pair (x = 0 or x = 1
    # absent among them) and three empty cells
    rng = np.random.default_rng(97)
    xw = rng.integers(1, 400, size=(60, 2, 2))
    xw[:20] = rng.integers(1, 8, size=(20, 2, 2))     # small counts too
    empty = [*itertools.combinations(range(4), 1),
             *itertools.combinations(range(4), 2), (0, 1, 3)]
    for i, cells in enumerate(empty):
        xw[i].flat[list(cells)] = 0
    y1 = rng.binomial(xw, 0.3)
    tables = np.stack([xw - y1, y1], axis=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gammas, _, _, usable = _fit_tables(tables)
    newton, clear = simulation._pattern_fits(xw)
    filled = (xw > 0).all(axis=(1, 2))
    both = (xw.sum(axis=2) > 0).all(axis=1)     # x takes both values
    assert np.count_nonzero(~filled) == len(empty)
    assert np.count_nonzero(~both) == 3
    # the zero-count rule flags what Newton flags; with an x level absent
    # Newton finds a flat direction, not separation, and x rules it out
    assert np.array_equal(filled[both], clear[both])
    assert not usable[~filled].any() and np.isnan(gammas[~filled]).all()
    for gamma, ((n00, n01), (n10, n11)) in zip(gammas[filled], xw[filled]):
        g0 = np.log(np.float64(n01) / np.float64(n00))
        want = np.array([g0, np.log(np.float64(n11) / np.float64(n10)) - g0])
        assert gamma.tobytes() == want.tobytes()
    assert np.isfinite(newton[filled]).all()
    assert np.all(np.abs(gammas[filled] - newton[filled])
                  <= 1e-7 * (1.0 + np.abs(gammas[filled])))


def test_a_binary_study_shares_only_its_filled_w_fits(monkeypatch):
    # at n = 12 many replications leave an (x, w) cell empty: their W fit
    # has no estimate, and it neither warns nor reaches the shares
    cfg = SimConfig(kind="binary", beta_x=1.8, n=12, replications=200,
                    seed=4)
    seen, fits = [], []
    original_shares, original_tables = simulation._shares, _fit_tables

    def recording_shares(gammas, *rest):
        seen.append(gammas)
        return original_shares(gammas, *rest)

    def recording_tables(tables):
        fits.append((tables, original_tables(tables)))
        return fits[-1][1]

    monkeypatch.setattr(simulation, "EXCLUSION_LIMIT", 1.0)
    monkeypatch.setattr(simulation, "_shares", recording_shares)
    monkeypatch.setattr(simulation, "_fit_tables", recording_tables)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_cell(cfg)
    (tables, (_, _, _, usable)), = fits
    filled = (tables.sum(axis=3) > 0).all(axis=(1, 2))
    assert np.count_nonzero(~filled) > 20 and not usable[~filled].any()
    (gammas,) = seen
    assert len(gammas) == 200 - result.excluded
    assert np.isfinite(gammas).all()


def test_a_binary_cell_fits_each_equation_as_one_stack(monkeypatch):
    # before: one irls_stack per set of nonzero cells, so a small-n cell
    # whose replications leave different cells empty made many per
    # equation; W ~ X, saturated, now takes none (its log odds)
    cfg = SimConfig(kind="binary", beta_x=1.8, n=12, replications=40,
                    seed=4)
    monkeypatch.setattr(simulation, "EXCLUSION_LIMIT", 1.0)
    calls, tables = [], []
    original_stack, original_tables = simulation.irls_stack, _fit_tables

    def recording_stack(X, response, weights):
        calls.append((X.shape, response.shape, weights.copy()))
        return original_stack(X, response, weights)

    def recording_tables(stack):
        tables.append(stack.copy())
        return original_tables(stack)

    monkeypatch.setattr(simulation, "irls_stack", recording_stack)
    monkeypatch.setattr(simulation, "_fit_tables", recording_tables)
    run_cell(cfg)
    (stack,) = tables
    for cells in (stack.sum(axis=3), stack):    # (x, w) and (x, w, y)
        filled = np.unique(cells.reshape(len(cells), -1) > 0, axis=0)
        assert np.count_nonzero(~filled.all(axis=1)) > 1
    assert [c[:2] for c in calls] == [((8, 3), (40, 8))]
    assert np.array_equal(calls[0][2], stack.reshape(40, 8))


def test_a_treatment_of_one_value_is_excluded(monkeypatch):
    # before: kept with bx = 0, so both of its shares were 0/0
    rng = np.random.default_rng(0)
    w, y = ((rng.random(12) < 0.5).astype(float) for _ in "wy")
    original = simulation._draw

    def constant_once(*args):   # the x of replication 1 of the one chunk
        x, w, y = original(*args)
        x = x.copy()
        x[1] = 0.0
        return x, w, y

    cfg = SimConfig(kind="binary", beta_x=0.9, n=200, replications=30,
                    seed=61)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (np.zeros(12), np.ones(12), np.full(12, 0.7)):
            assert _fit_models(x, w, y)[-1] is False
        monkeypatch.setattr(simulation, "_draw", constant_once)
        assert run_cell(cfg).excluded == 1


def test_a_binary_replication_whose_counts_tie_is_excluded(monkeypatch):
    # before: kept with a total effect of rounding size (the sample log
    # odds ratio of Y on X is 0), so its share made this accepted cell's
    # rsd average -2.17e8, with 6 exclusions
    cfg = SimConfig(kind="binary", beta_x=0.4, n=100, replications=2000,
                    seed=17)
    seen = []

    def recording(tables):
        seen.append((tables.copy(), _fit_tables(tables)))
        return seen[-1][1]

    monkeypatch.setattr(simulation, "_fit_tables", recording)
    result = run_cell(cfg)
    (tables, (gammas, betas, _, usable)), = seen
    at_x = tables.sum(axis=(2, 3))
    y1 = tables[..., 1].sum(axis=2)     # Y = 1 at x = 0, 1
    tied = y1[:, 1] * at_x[:, 0] == y1[:, 0] * at_x[:, 1]
    assert np.count_nonzero(tied) == 2 and not usable[tied].any()
    assert result.excluded == 6 + 2
    assert all(np.isfinite(list(vars(result.rsd).values())))
    assert abs(result.rsd.average - result.true_value) < 0.1
    # every kept replication has a total effect well away from 0
    te = simulation._decompose(simulation._BINARY,
                               np.hstack([betas, gammas])[usable],
                               EffectRequest.contrast(1, 0)).total
    assert np.abs(te).min() > 1e-3


# -- cell orchestration ----------------------------------------------------

def test_stats_identities():
    rng = np.random.default_rng(124)
    est = rng.normal(0.5, 0.2, 300)
    truth = 0.45
    st = _stats(est, truth)
    assert st.variance == pytest.approx(np.var(est), abs=1e-15)
    assert st.rmse ** 2 == pytest.approx(
        st.variance + (st.average - truth) ** 2, abs=1e-12)


def test_exclusion_accounting(monkeypatch):
    cfg = SimConfig(kind="binary", beta_x=0.9, n=200, replications=30,
                    seed=61)
    original = simulation._fit_tables

    def flaky(tables):
        *coefs, usable = original(tables)
        assert usable.all()
        usable[1] = False       # the second replication
        return (*coefs, usable)

    monkeypatch.setattr(simulation, "_fit_tables", flaky)
    result = run_cell(cfg)
    assert result.excluded == 1
    assert result.replications == 30

    def broken(tables):
        *coefs, usable = original(tables)
        usable[:3] = False      # the first three replications
        return (*coefs, usable)

    monkeypatch.setattr(simulation, "_fit_tables", broken)
    with pytest.raises(SimulationError, match="excluded"):
        run_cell(cfg)


def test_nonconvergent_single_replications_give_no_shares(monkeypatch):
    def never(r):
        return np.zeros((r, 2)), np.zeros((r, 3)), np.zeros(r), \
            np.zeros(r, dtype=bool)

    monkeypatch.setattr(simulation, "_fit_chunk",
                        lambda x, ws, ys: never(len(ws)))
    monkeypatch.setattr(simulation, "_fit_tables",
                        lambda tables: never(len(tables)))
    for kind in ("binary", "continuous"):
        cfg = SimConfig(kind=kind, beta_x=0.9, n=40, replications=1,
                        seed=3, pseudo_population=1000)
        with pytest.raises(SimulationError,
                           match="^1 of 1 replications excluded"):
            run_cell(cfg)


def test_separated_replications_are_excluded(monkeypatch):
    cfg = SimConfig(kind="binary", beta_x=0.9, n=200, replications=30,
                    seed=61)
    original = simulation.irls_stack
    stacks = []

    def separated_once(X, y, w):
        stacks.append(y.shape)
        out = original(X, y, w)
        if len(stacks) == 1:    # the Y stack: flag the second replication
            assert not out[-1].any()
            out[-1][1] = True
        return out

    monkeypatch.setattr(simulation, "irls_stack", separated_once)
    assert run_cell(cfg).excluded == 1
    # one Y stack of every replication in order (W takes no Newton fit)
    assert stacks == [(30, 8)]


def test_small_separated_cell_gives_no_nan():
    # at n = 5 a mediator or outcome is often constant: those fits
    # "converge" on a separation ray, and their shares are 0/0
    grid = {"seed": 83, "replications": 3, "treatment": ["binary"],
            "beta_x": [0.9], "n": [5]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimulationError, match="excluded"):
            run_study(grid)


def test_study_grid_and_csv():
    grid = {"seed": 71, "replications": 10, "treatment": ["binary"],
            "beta_x": [0.4, 0.9], "n": [200]}
    results = run_study(grid)
    assert len(results) == 2
    assert {r.beta_x for r in results} == {0.4, 0.9}

    text = results_to_csv(results)
    lines = text.strip().splitlines()
    assert lines[0] == ("method,treatment,beta_x,n,average,variance,rmse,"
                        "true_value,excluded")
    assert len(lines) == 1 + 2 * len(results)
    first = lines[1].split(",")
    assert first[0] == "khb" and first[1] == "binary"
    assert float(lines[1].split(",")[7]) == float(lines[2].split(",")[7])


def test_study_reports_each_cell_in_order():
    grid = {"seed": 73, "replications": 4, "treatment": ["binary"],
            "beta_x": [0.4, 1.8], "n": [150, 200]}
    seen = []
    results = run_study(grid, on_cell=seen.append)
    assert seen == results
    assert [(r.beta_x, r.n) for r in seen] == [(0.4, 150), (0.4, 200),
                                               (1.8, 150), (1.8, 200)]


def test_study_grid_with_overrides_and_bad_config():
    grid = {"seed": 72, "replications": 5, "treatment": ["continuous"],
            "beta_x": [0.9], "n": [150], "pseudo_population": 3000,
            "beta_w": 2.0}
    (result,) = run_study(grid)
    assert result.kind == "continuous"
    assert 0.0 < result.true_value < 1.0
    with pytest.raises(SimulationError, match="bad study config"):
        run_study({"seed": 1, "replications": 5})


@pytest.mark.parametrize("change,field", [
    ({"beta0": "x"}, "'beta0'"),
    ({"pseudo_population": "x"}, "'pseudo_population'"),
    ({"seed": 1.7}, "'seed'"),
    ({"replications": 2.5}, "'replications'"),
    ({"n": [60.5]}, "'n'"),
    ({"beta_x": 0.9}, "'beta_x'"),
    ({"treatment": "binary"}, "'treatment'"),
    ({"seed": True}, "'seed'"),
    ({"treatment": ["continuous"], "pseudo_population": 50},
     "pseudo_population"),
    ({"beta_xw": 0.0}, "unknown key 'beta_xw'"),
    ({"beta_xw": 0.5, "gama0": -1.0}, "unknown key 'beta_xw', 'gama0'"),
    ({"treatment": []}, "'treatment'"),
    ({"beta_x": []}, "'beta_x'"),
    ({"n": []}, "'n'"),
    ({"treatment": ["binary", "binary"]}, "'treatment'"),
    ({"beta_x": [0.4, 0.4]}, "'beta_x'"),
    ({"beta_x": [1, 1.0]}, "'beta_x'"),
    ({"n": [60, 80, 60.0]}, "'n'"),
], ids=["beta0", "pseudo_population", "fractional-seed", "fractional-reps",
        "fractional-n", "scalar-beta_x", "string-treatment", "boolean-seed",
        "small-population", "unknown-beta_xw", "unknown-keys",
        "empty-treatment", "empty-beta_x", "empty-n", "repeated-treatment",
        "repeated-beta_x", "repeated-beta_x-int-float", "repeated-n"])
def test_bad_study_config_names_the_field(change, field):
    grid = {"seed": 5, "replications": 3, "treatment": ["binary"],
            "beta_x": [0.9], "n": [60], **change}
    with pytest.raises(SimulationError, match=field):
        run_study(grid)
