"""logitpath benchmark: one closed-loop workload per run.

    python3 bench/run.py --workload {cli_records,effect_tables,study} \
        --seed N --seconds S --trace {0,1}

Run from anywhere; it measures the working tree under `src/` (children
get PYTHONPATH=src), never an installed copy.  One call is in flight at a
time.  `--trace 0` measures the end-to-end metrics with tracing off;
`--trace 1` makes the separate traced run that gives the per-layer
numbers.  End-to-end timings are scaled to a fixed machine speed, read
from a reference loop run between operations (see `Reference`).  The
last line of standard output is the result as JSON; everything above it
is the human-readable report.  Full results and the trace spans go to
`.bench_out/`.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
REFERENCE_S = 0.035
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark cannot run here, or measured the wrong code."""


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("cli_records", "effect_tables", "study"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def require_tree(module_file: str):
    """Fail unless logitpath was loaded from this tree's src/."""
    if not Path(module_file).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"logitpath loaded from {module_file}, not {SRC}")


# -- provenance ----------------------------------------------------------

def _git(*args):
    proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(logitpath_file: str) -> dict:
    git = (ROOT / ".git").exists()
    return {
        "git_sha": _git("rev-parse", "HEAD") if git else "not a git checkout",
        "git_dirty": bool(_git("status", "--porcelain", "-uno")) if git else None,
        "python": platform.python_version(),
        **{pkg: importlib.metadata.version(pkg)
           for pkg in ("numpy", "scipy", "click")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "logitpath_file": logitpath_file,
    }


# -- statistics ----------------------------------------------------------

def percentile(values, q):
    s = sorted(values)
    return s[min(len(s) - 1, int(q * len(s)))]


def describe(values, unit="s") -> str:
    """Median plus the highest percentile with at least ten samples
    beyond it, with the sample count."""
    text = f"p50 {statistics.median(values):.6g} {unit} (n={len(values)}"
    for q in (0.999, 0.99, 0.9):
        if len(values) * (1 - q) >= 10:
            return text + f", p{q * 100:g} {percentile(values, q):.6g} {unit})"
    return text + ", too few samples for a tail percentile)"


# -- machine speed -----------------------------------------------------------

class Reference:
    """A fixed piece of work that does not touch logitpath: Newton steps
    of a small logistic regression in numpy, then a pure-Python loop,
    the two kinds of work the operations do.

    The shared virtual machine this benchmark was built on changes speed
    by up to 1.5 times, in phases from seconds to tens of minutes, with
    identical work; CPU time follows wall time, so no clock inside the
    process can tell the two apart.  Timing this loop right before and
    right after each operation gives the machine's speed at that moment,
    and an operation's time is scaled to the speed at which the loop
    takes `REFERENCE_S`.  logitpath changes cannot move the loop, so
    they move the scaled time as they move the raw one."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.normal(size=(1000, 3))
        self.y = (rng.random(1000) < 0.5).astype(float)
        self.times = []

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for _ in range(100):
            b = np.zeros(3)
            for _ in range(8):
                p = 1.0 / (1.0 + np.exp(-self.a @ b))
                hess = self.a.T @ (self.a * (p * (1.0 - p))[:, None])
                b = b + np.linalg.solve(hess, self.a.T @ (self.y - p))
        x = 0
        for i in range(30_000):
            x += i * i % 7
        secs = time.perf_counter() - t0
        self.times.append(secs)
        return secs

    def around(self, fn):
        """Call `fn`; return its result and the factor that scales a time
        taken during the call to the reference speed, from the loops
        either side of it (the one before is shared with the previous
        call)."""
        before = self.times[-1] if self.times else self()
        out = fn()
        return out, REFERENCE_S / ((before + self()) / 2)


# -- set-up ----------------------------------------------------------------

def setup_child(args):
    """Child side of one set-up sample: make inputs (timed, to be taken
    off), import logitpath and prepare, then report."""
    import workloads
    w = workloads.WORKLOADS[args.workload](args.seed, OUT / f"setup-{os.getpid()}")
    t0 = time.perf_counter()
    if w.setup_needs_inputs:
        w.generate()
    gen_s = time.perf_counter() - t0
    w.setup()
    import logitpath
    print(json.dumps({"gen_s": gen_s, "file": logitpath.__file__}), flush=True)
    shutil.rmtree(w.workdir, ignore_errors=True)


def setup_sample(args) -> float:
    """Wall time from starting a fresh process to its being ready for the
    first timed operation, less the benchmark's own input generation."""
    import workloads
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, env=workloads.child_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=workloads.CHILD_TIMEOUT_S)
        except BaseException:
            proc.kill()
            raise
    if code != 0 or not line:
        raise BenchError(f"set-up child exited {code}")
    info = json.loads(line)
    require_tree(info["file"])
    return ready - t0 - info["gen_s"]


# -- runs ----------------------------------------------------------------

def run_op(fn, failures: list):
    """One op: (seconds, work, passed).  A raised error or a failed check
    fails the op; a raised error also leaves it without a time."""
    try:
        secs, work, problems = fn()
    except Exception as e:  # the op boundary: report and keep measuring
        secs, work, problems = None, 0, [f"{type(e).__name__}: {e}"]
    failures.extend(problems)
    return secs, work, not problems


def measured_run(args, workdir, report) -> tuple:
    """End-to-end metrics: closed-loop rounds of the workload's ops for
    `--seconds`, with the set-up samples in between.  A round always
    completes, so every run has the same mix of calls, and the call-time
    metrics are medians over rounds of the time a round spends in that
    kind of call.  Every time is scaled to the reference machine speed;
    the raw medians are in the report.  Timings come from every op that
    returned, so a build with wrong outputs is still measured; `correct`
    and `failed` report it."""
    import workloads
    w = workloads.WORKLOADS[args.workload](args.seed, workdir)
    w.generate()
    w.setup()
    ref = Reference()
    samples, failures, rounds, setups = [], [], [], []

    def sample_setup():
        secs, factor = ref.around(lambda: setup_sample(args))
        setups.append((secs * factor, secs))

    measured = 0.0
    while measured < args.seconds:
        # set-up samples are spread over the run, between rounds, so that
        # they meet the machine in as many states as the ops do
        if measured >= len(setups) * args.seconds / SETUP_SAMPLES:
            sample_setup()
        start, first = time.perf_counter(), len(samples)
        for kind, fn in w.round():
            (secs, work, ok), factor = ref.around(lambda: run_op(fn, failures))
            scaled = None if secs is None else secs * factor
            samples.append((kind, scaled, work, ok, secs))
        rounds.append(samples[first:])
        measured += time.perf_counter() - start
    while len(setups) < SETUP_SAMPLES:
        sample_setup()

    def per_round(kinds, time_at=1):
        spent = [[s for s in r if s[0] in kinds] for r in rounds]
        return [(sum(s[time_at] for s in r), sum(s[2] for s in r))
                for r in spent if all(s[1] is not None for s in r)]

    timed = [s for s in samples if s[1] is not None]
    worked = [s for s in timed if s[0] in w.work_kinds]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if w.name == "cli_records":
        rss_kb = max(rss_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    per_kind = {name: [secs for secs, _ in per_round((kind,))]
                for name, kind in w.kinds.items()}
    metrics = {
        "setup_s": (statistics.median(s[0] for s in setups), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "primary_s.p50": (statistics.median(per_kind["primary"]), "s"),
        "secondary_s.p50": (statistics.median(per_kind["secondary"]), "s"),
        "work_per_s": (statistics.median(
            work / secs for secs, work in per_round(w.work_kinds)), "1/s"),
    }
    report.append(f"reference loop: {describe(ref.times)}; times below are "
                  f"scaled to {REFERENCE_S} s per loop, raw in brackets")
    report.append(f"setup_s: {describe([s[0] for s in setups])} "
                  f"[{describe([s[1] for s in setups])}]; samples "
                  + " ".join(f"{a:.4g} [{b:.4g}]" for a, b in setups))
    for name, kind in w.kinds.items():
        raw = [secs for secs, _ in per_round((kind,), time_at=4)]
        report.append(f"{name} = {kind} per round: "
                      f"{describe(per_kind[name])} [{describe(raw)}]")
    for kind in dict.fromkeys(s[0] for s in samples):
        report.append(f"{w.name}.{kind} per call: "
                      f"{describe([s[1] for s in timed if s[0] == kind])} "
                      f"[{describe([s[4] for s in timed if s[0] == kind])}]")
        work = [s for s in worked if s[0] == kind]
        if sum(s[2] for s in work):
            rate = sum(s[2] for s in work) / sum(s[1] for s in work)
            report.append(f"{w.name}.{kind}: {rate:.6g} {w.work_unit}/s")
    report.append(f"work_per_s: median over rounds of {w.work_unit} per "
                  f"second in {', '.join(w.work_kinds)} calls")
    return metrics, samples, failures


def traced_run(args, workdir, report) -> tuple:
    """Per-layer numbers: the import split, the layer sweeps, one traced
    layer pass over every workload's ops (the same on every workload, so
    every layer is measured on each), then the tracing overhead of this
    workload's own ops, untraced and traced in alternation."""
    import layers
    import workloads
    failures, samples = [], []
    start = time.perf_counter()
    metrics = dict(layers.import_split())
    t0 = time.perf_counter()
    sweep, problems = layers.sweeps(args.seed)
    samples.append(("sweeps", time.perf_counter() - t0, 0, not problems))
    metrics.update(sweep)
    failures += problems

    tracer = layers.Tracer()
    sessions = {}
    for name, cls in workloads.WORKLOADS.items():
        extra = {"inprocess": True} if name == "cli_records" else {}
        session = cls(args.seed, workdir, **extra)
        session.generate()
        session.setup()
        sessions[name] = session
        tracer.install()
        try:
            for kind, fn in session.round(layer=True):
                op = f"{name}.{kind}"
                secs, work, ok = run_op(
                    lambda: tracer.run_op(op, fn), failures)
                samples.append((op, secs, work, ok))
        finally:
            tracer.uninstall()
    cli = sessions["cli_records"]
    artifact = json.loads(cli.fit_json.read_text())
    n_params = sum(len(v) for v in artifact["params"].values())
    per_layer, problems = layers.layer_metrics(tracer, cli.REQUESTS, n_params)
    samples.append(("trace.count_check", 0.0, 0, not problems))
    metrics.update(per_layer)
    failures += problems

    w = sessions[args.workload]
    plain, traced = 0.0, 0.0
    overhead = layers.Tracer()
    while True:
        for kind, fn in w.round(layer=True):
            secs, _, ok0 = run_op(fn, failures)
            overhead.install()
            try:
                secs_t, work, ok1 = run_op(fn, failures)
            finally:
                overhead.uninstall()
            if secs is not None and secs_t is not None:
                plain, traced = plain + secs, traced + secs_t
            samples.append((kind, secs_t, work, ok0 and ok1))
        if time.perf_counter() - start >= args.seconds:
            break
    metrics["trace.overhead_ratio"] = (traced / plain, "ratio")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    report.append("note: logitpath is a single-threaded library with no "
                  "queues, so no layer waits; no waiting time is reported")
    return metrics, samples, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "logitpath" / "__init__.py").is_file():
        print(f"error: no logitpath source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_child:
        setup_child(args)
        return 0
    import logitpath
    import workloads
    require_tree(logitpath.__file__)
    require_tree(workloads.cli_module_origin())
    prov = provenance(logitpath.__file__)
    prov["loadavg_before"] = os.getloadavg()
    workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    report = []
    try:
        run = traced_run if args.trace else measured_run
        metrics, samples, failures = run(args, workdir, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    prov["loadavg_after"] = os.getloadavg()

    attempted, failed = len(samples), sum(not s[3] for s in samples)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({**result, "provenance": prov,
                              "failures": failures[:50],
                              "samples": samples}, indent=1))
    print(f"# provenance {json.dumps(prov)}")
    for line in report:
        print(f"# {line}")
    for problem in failures[:20]:
        print(f"# FAILED {problem}")
    print(f"# error_rate {failed}/{attempted} = {failed / attempted:.4g}")
    for k, (v, u) in metrics.items():
        print(f"# {k} = {v:.6g} {u}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
