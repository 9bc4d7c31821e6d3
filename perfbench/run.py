#!/usr/bin/env python3
"""Benchmark of the ``activefoil run-all`` pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Each workload is one ``activefoil run-all`` invocation, run as a subprocess
of the interpreter running this script, with ``src/`` of this checkout on
PYTHONPATH.  ``--seed`` is passed through to the program and also seeds the
ridge dataset.  BLAS and thread settings are left as the environment has them
and are recorded.

* ``parsec-panel``: the parsec-table2 box, panel lift and drag, N=1000,
  nboot=100.  Decode-heavy: two 6x6 solves per design, decoded once per
  objective, no infeasible designs; plus two bootstrap chains and Pareto.
* ``cst-panel``: the same on cst-table3.  The closed-form decode is about 4x
  cheaper and about 16% of the designs are infeasible, so the row-drop path
  runs.  Separates decode gains from evaluation-loop gains.
* ``ridge-dataset``: reads an N=1000, m=11 CSV of f = u + 0.5 u^2 + 1e-3 noise,
  u = w'x, with a seeded unit w, and bootstraps it 1000 times.  No sampling,
  decode or QoI work; the answer is known (n=1, direction w).

``--trace 0`` times ``activefoil --version`` (set-up), then runs the workload
again and again while the next run still ends within S seconds, at least three
times, and reports medians.  ``--trace 1`` alternates untraced runs with runs
under ``tracer.py`` in the same way, at least one pair, and reports the per-layer metrics that
``layers.json`` defines, with the tracing overhead.  Every run's artifacts go
through ``gate.py``, and all runs of a set must produce the same bytes.
Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything the
benchmark writes goes under ``.perfbench/`` in the checkout; the full record
of a run, environment included, is ``.perfbench/results/*.json``.

``--self-check`` runs all three workloads at a tiny size, traced and
untraced, and checks that every wrapper fires, that a missing wrapped name
fails the tracer, and that the gate rejects broken artifacts.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gate
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Seed used while writing changes (the ROADMAP's measurements) and a seed kept
# out of that work, on which a claimed gain must also hold.
DEV_SEED = 7
HELD_OUT_SEED = 1702

MIN_RUNS = 3
SETUP_REPEATS = 11
DEADLINE_S = 170.0
GAMMAS = 101
RIDGE_DIM = 11
RIDGE_NOISE = 1e-3
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("outputs_ok", "count"),
)


class BenchmarkError(RuntimeError):
    """The benchmark cannot measure; it exits non-zero without a result."""


@dataclass(frozen=True)
class Workload:
    name: str
    flags: tuple
    n: int
    nboot: int
    chains: tuple
    pareto: bool

    @property
    def dataset(self) -> bool:
        return not self.pareto


def workloads(tiny: bool = False) -> dict:
    n, panel_boot, ridge_boot = (200, 4, 4) if tiny else (1000, 100, 1000)

    def panel(name, box):
        flags = ("--box", box, "--qoi", "panel", "--n", str(n),
                 "--nboot", str(panel_boot), "--skip-infeasible")
        return Workload(name, flags, n, panel_boot, ("lift_", "drag_"), True)

    ridge = Workload("ridge-dataset", ("--nboot", str(ridge_boot)), n, ridge_boot,
                     ("",), False)
    return {w.name: w for w in (panel("parsec-panel", "parsec-table2"),
                                panel("cst-panel", "cst-table3"), ridge)}


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("ACTIVEFOIL_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv, deadline: float, log_dir: Path) -> Invocation:
    """Run argv from the checkout root; wall, CPU and peak RSS of that child."""
    with open(log_dir / "stdout.txt", "w+") as out, open(log_dir / "stderr.txt", "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Invocation(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                          proc.returncode, out.read(), err.read())


def write_ridge_dataset(path: Path, n: int, seed: int) -> np.ndarray:
    """N x 11 uniform designs with f = u + 0.5 u^2 + noise, u = w'x; returns w."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(RIDGE_DIM)
    w /= np.linalg.norm(w)
    X = rng.uniform(-1.0, 1.0, (n, RIDGE_DIM))
    u = X @ w
    f = u + 0.5 * u * u + RIDGE_NOISE * rng.standard_normal(n)
    lines = [",".join([f"x{j}" for j in range(1, RIDGE_DIM + 1)] + ["f"])]
    lines += [",".join(f"{v:.17g}" for v in row) for row in np.column_stack([X, f])]
    path.write_text("\n".join(lines) + "\n")
    return w


class Session:
    """Working directory, inputs and command lines of one workload run."""

    def __init__(self, workload: Workload, seed: int, deadline: float, label: str = ""):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.dir = WORK / (label or workload.name)
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.out = self.dir / "out"
        self.direction = None
        self.argv = ["run-all", *workload.flags, "--seed", str(seed),
                     "--out", str(self.out.relative_to(ROOT))]
        if workload.dataset:
            data = self.dir / "dataset.csv"
            self.direction = write_ridge_dataset(data, workload.n, seed)
            self.argv += ["--qoi", f"dataset:{data.relative_to(ROOT)}"]
        self.runs = 0

    def run(self, traced: bool):
        """One run-all invocation: (Invocation, gate Outcome, spans path or None)."""
        shutil.rmtree(self.out, ignore_errors=True)
        spans = None
        if traced:
            spans = self.dir / f"spans-{self.runs}.jsonl"
            argv = [sys.executable, str(BENCH / "tracer.py"), str(spans), *self.argv]
        else:
            argv = [sys.executable, "-m", "activefoil", *self.argv]
        self.runs += 1
        inv = run_child(argv, self.deadline, self.dir)
        if traced and (inv.code == tracer.MISSING_NAME_EXIT or not spans.is_file()):
            raise BenchmarkError(f"traced run failed: {inv.stderr.strip()[-400:]}")
        if inv.code != 0:
            outcome = gate.Outcome(problems=[f"exit code {inv.code}: {inv.stderr.strip()[-400:]}"])
        else:
            outcome = gate.check_outputs(self.out, self.workload.chains, self.workload.pareto,
                                         GAMMAS if self.workload.pareto else None,
                                         self.direction)
        return inv, outcome, spans

    def fits(self, start: float, seconds: float, estimate: float) -> bool:
        """Whether another step of about ``estimate`` seconds ends within the budget."""
        now = time.monotonic()
        return now + estimate <= start + seconds and now + 1.5 * estimate < self.deadline


def agree(outcomes) -> None:
    """Marks every run whose artifacts differ from the first passing run's."""
    passing = [o for o in outcomes if not o.problems]
    for outcome in passing[1:]:
        differ = sorted(set(outcome.digests.items()) ^ set(passing[0].digests.items()))
        if differ:
            names = sorted({name for name, _ in differ})
            outcome.problems.append(f"artifacts differ from the first run: {names}")


# ---------------------------------------------------------------------------
# traces and per-layer metrics


class Trace:
    """Spans of one traced run, with self times."""

    def __init__(self, path: Path):
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        self.import_s = header["import_ns"] / 1e9
        self.spans = [json.loads(line) for line in lines[1:]]
        self.child_s = {}
        self.child_s_by_name = {}
        for span in self.spans:
            span["dur_s"] = (span["end_ns"] - span["start_ns"]) / 1e9
            parent = span["parent"]
            self.child_s[parent] = self.child_s.get(parent, 0.0) + span["dur_s"]
            key = (parent, span["name"])
            self.child_s_by_name[key] = self.child_s_by_name.get(key, 0.0) + span["dur_s"]
        self.names = {span["name"] for span in self.spans}

    def value(self, spec: dict):
        kind = spec["kind"]
        if kind == "import":
            return self.import_s
        if kind == "ratio":
            den = self.value(spec["den"])
            return 0.0 if den == 0 else spec.get("scale", 1) * self.value(spec["num"]) / den
        spans = [s for s in self.spans if s["name"] in spec["spans"]]
        if kind == "calls":
            return len(spans)
        if kind == "sum":
            return sum(s["attrs"].get(spec["attr"], 0) for s in spans)
        if kind == "errors":
            return sum(1 for s in spans if s["attrs"].get("error") == spec["error"])
        if kind == "self":
            return sum((s["dur_s"] - self.child_s.get(s["id"], 0.0) for s in spans), 0.0)
        if kind == "total":
            minus = spec.get("minus_children", ())
            return sum((s["dur_s"] - sum(self.child_s_by_name.get((s["id"], name), 0.0)
                                         for name in minus) for s in spans), 0.0)
        raise BenchmarkError(f"layers.json: unknown metric kind {kind!r}")


def span_lists(spec: dict):
    """Every 'spans' list a metric reads, nested ratios included."""
    if "spans" in spec:
        yield spec["spans"]
    for key in ("num", "den"):
        if key in spec:
            yield from span_lists(spec[key])


def load_layers() -> list:
    return json.loads((BENCH / "layers.json").read_text())["metrics"]


def per_layer(workload: str, traces, pairs, layers) -> tuple:
    """(metrics, problems) over the traced runs of one workload."""
    problems = []
    metrics = {}
    for layer in layers:
        spec = layer["from"]
        if workload in layer["on"]:
            for names in span_lists(spec):
                if not any(trace.names & set(names) for trace in traces):
                    raise BenchmarkError(
                        f"{layer['name']}: no span of {names} on {workload}; the call "
                        "path changed, so the tracer's wrap list is out of date")
        if spec["kind"] == "overhead":
            values = [traced.wall_s - plain.wall_s for plain, traced in pairs]
        else:
            values = [trace.value(spec) for trace in traces]
        if layer["exact"] and len(set(values)) > 1:
            problems.append(f"{layer['name']} did not repeat exactly: {values}")
        value = values[0] if layer["exact"] else statistics.median(values)
        metrics[layer["name"]] = {"value": value, "unit": layer["unit"]}
    return metrics, problems


# ---------------------------------------------------------------------------
# environment and reporting


def blas_threads():
    """Thread count the bundled OpenBLAS reports, or None when not found."""
    base = Path(np.__file__).resolve().parent.parent
    for lib in sorted(glob.glob(str(base / "numpy.libs" / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def commit_hash() -> str:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    setting = {k: os.environ[k] for k in BLAS_THREAD_VARIABLES if k in os.environ}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_setting": setting or "library default",
        "commit": commit_hash(),
        "seed": seed,
        "dev_seed": DEV_SEED,
        "held_out_seed": HELD_OUT_SEED,
    }


def tail_percentile(values):
    """Highest of p50..p99.9 with at least ten samples above it: (p, value) or None."""
    n = len(values)
    fitting = [p for p in (50, 75, 90, 95, 99, 99.9) if n * (100 - p) / 100 >= 10]
    if not fitting:
        return None
    p = fitting[-1]
    return p, sorted(values)[math.ceil(p / 100 * n) - 1]


def summary_line(name, values, unit) -> str:
    tail = tail_percentile(values)
    tail_text = (f"p{tail[0]:g}={tail[1]:.6g}" if tail
                 else "no percentile with ten samples beyond it")
    return (f"  {name:<24} median={statistics.median(values):.6g} {unit}  "
            f"n={len(values)}  {tail_text}")


# ---------------------------------------------------------------------------
# the two measuring modes


def measure_end_to_end(session: Session, seconds: float):
    version = [sys.executable, "-m", "activefoil", "--version"]
    setup, operations = [], []
    for k in range(SETUP_REPEATS + 1):
        inv = run_child(version, session.deadline, session.dir)
        ok = inv.code == 0 and inv.stdout.startswith("activefoil")
        operations.append(ok)
        if k > 0:  # the first call fills the page cache and writes bytecode
            setup.append(inv.wall_s)

    runs = []
    start = time.monotonic()
    while len(runs) < MIN_RUNS or session.fits(start, seconds, runs[-1][0].wall_s):
        inv, outcome, _ = session.run(traced=False)
        runs.append((inv, outcome))
    outcomes = [outcome for _, outcome in runs]
    agree(outcomes)
    operations += [not o.problems for o in outcomes]
    outputs_ok = int(all(operations))
    invs = [inv for inv, _ in runs]
    samples = {
        "wall_s": [inv.wall_s for inv in invs],
        "cpu_s": [inv.cpu_s for inv in invs],
        "setup_s": setup,
        "peak_rss_mb": [inv.rss_mb for inv in invs],
        "outputs_ok": [outputs_ok],
    }
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in END_TO_END}
    return operations, outcomes, samples, metrics


def measure_traced(session: Session, seconds: float, layers):
    pairs, traces, outcomes = [], [], []
    start = time.monotonic()
    while not pairs or session.fits(start, seconds, pairs[-1][0].wall_s + pairs[-1][1].wall_s):
        order = (False, True) if len(pairs) % 2 == 0 else (True, False)
        done = {}
        for traced in order:
            inv, outcome, spans = session.run(traced)
            done[traced] = inv
            outcomes.append(outcome)
            if traced:
                traces.append(Trace(spans))
        pairs.append((done[False], done[True]))
    agree(outcomes)
    metrics, problems = per_layer(session.workload.name, traces, pairs, layers)
    operations = [not o.problems for o in outcomes]
    if problems:
        operations.append(False)
    return operations, outcomes, problems, metrics, pairs


def fractions(workload: Workload, outcomes) -> dict:
    facts = next((o.facts for o in outcomes if not o.problems), None)
    if facts is None:
        return {}
    out = {
        "design_fail_frac": (workload.n - facts["rows_kept"]) / workload.n,
        "boot_skip_frac": facts["boot_skipped"] / (workload.nboot * len(workload.chains)),
    }
    if workload.pareto:
        out["pareto_infeasible_frac"] = facts["pareto_infeasible"] / facts["pareto_rows"]
    if "misalignment" in facts:
        out["ridge_misalignment"] = facts["misalignment"]
    return out


def run_benchmark(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    workload = workloads()[args.workload]
    session = Session(workload, args.seed, deadline)
    env = environment(args.seed)
    record = {"workload": workload.name, "argv": session.argv, "trace": args.trace,
              "seconds": args.seconds, "environment": env}
    print(f"activefoil benchmark: {workload.name}, seed {args.seed}, trace {args.trace}")
    print("  environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    if args.trace:
        layers = load_layers()
        operations, outcomes, problems, metrics, pairs = measure_traced(
            session, args.seconds, layers)
        record["pairs"] = [{"untraced_s": p.wall_s, "traced_s": t.wall_s} for p, t in pairs]
        print(f"  {len(pairs)} untraced/traced pairs; "
              f"tracing overhead {metrics['trace.overhead_s']['value']:.4f} s, "
              f"{metrics['trace.unaccounted_frac']['value']:.2%} of the run outside "
              "wrapped layers")
        seed_state = {l["name"]: l["seed_state"].get(workload.name)
                      for l in layers if "seed_state" in l}
        for name, metric in metrics.items():
            note = ""
            if args.seed == DEV_SEED and name in seed_state:
                note = "  (seed state %s)" % seed_state[name]
            print(f"  {name:<40} {metric['value']:.6g} {metric['unit']}{note}")
    else:
        operations, outcomes, samples, metrics = measure_end_to_end(session, args.seconds)
        problems = []
        record["samples"] = samples
        for name, unit in END_TO_END:
            print(summary_line(name, samples[name], unit))
    extra = fractions(workload, outcomes)
    for name, value in extra.items():
        print(f"  {name:<24} {value:.6g}")
    problems += [p for o in outcomes for p in o.problems]
    for problem in problems:
        print(f"  FAILED: {problem}")
    result = {"correct": all(operations), "attempted": len(operations),
              "failed": operations.count(False), "metrics": metrics}
    record.update(result=result, fractions=extra, problems=problems)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# self-check


def self_check() -> int:
    """Tiny runs through every wrapper and gate rule; returns the failure count."""
    started = time.monotonic()
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"  {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = load_layers()
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
           == [(m["name"], m["unit"], m["better"]) for m in layers],
           "BENCHMARK.json per_layer matches layers.json")
    expect([m["name"] for m in spec["end_to_end"]] == [name for name, _ in END_TO_END],
           "BENCHMARK.json end_to_end matches the metrics reported")
    expect([w["name"] for w in spec["workloads"]] == list(workloads()),
           "BENCHMARK.json workloads match the workloads defined")

    deadline = time.monotonic() + DEADLINE_S
    shutil.rmtree(WORK / "self-check", ignore_errors=True)
    seen, outputs = set(), {}
    for workload in workloads(tiny=True).values():
        session = Session(workload, DEV_SEED, deadline, label=f"self-check/{workload.name}")
        plain, plain_outcome, _ = session.run(traced=False)
        expect(not plain_outcome.problems,
               f"{workload.name}: an untraced run passes the gate {plain_outcome.problems}")
        if plain_outcome.problems:
            continue
        outputs[workload.name] = WORK / "self-check" / f"{workload.name}-out"
        shutil.copytree(session.out, outputs[workload.name])
        try:
            traced, traced_outcome, spans = session.run(traced=True)
            agree([plain_outcome, traced_outcome])
            expect(not traced_outcome.problems, f"{workload.name}: a traced run passes the "
                   f"gate with the same bytes {traced_outcome.problems}")
            trace = Trace(spans)
            seen |= trace.names
            per_layer(workload.name, [trace], [(plain, traced)], layers)
            expect(True, f"{workload.name}: every layer listed for it has spans")
        except BenchmarkError as exc:
            expect(False, f"{workload.name}: {exc}")
    wrapped = {tracer.span_name(m, n) for m, n, _ in tracer.WRAPS} | {tracer.ROOT_SPAN}
    expect(wrapped <= seen, f"every wrapper fired (never: {sorted(wrapped - seen)})")
    if len(outputs) < len(workloads()):
        print(f"self-check: {len(failures)} failure(s); gate checks skipped")
        return len(failures)

    sys.path.insert(0, str(SRC))
    try:
        tracer.Tracer().install([("activefoil.qoi", "no_such_function", None)])
        expect(False, "a missing wrapped name fails the tracer")
    except LookupError:
        expect(True, "a missing wrapped name fails the tracer")

    panel = workloads(tiny=True)["parsec-panel"]
    source = outputs["parsec-panel"]
    reference = gate.check_outputs(source, panel.chains, True, GAMMAS)

    def broken(what, edit, direction=None, workload=panel, src=source):
        copy = WORK / "self-check" / "broken"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(src, copy)
        edit(copy)
        outcome = gate.check_outputs(copy, workload.chains, workload.pareto,
                                     GAMMAS if workload.pareto else None, direction)
        agree([reference, outcome] if workload is panel else [outcome])
        expect(bool(outcome.problems), f"the gate rejects {what}: {outcome.problems[:1]}")

    def reverse_eigenvalues(out):
        path = out / "lift_eigs.json"
        payload = json.loads(path.read_text())
        payload["eigenvalues"].reverse()
        path.write_text(json.dumps(payload))

    def swap_bootstrap_bounds(out):
        path = out / "drag_bootstrap_eigenvalues.csv"
        lines = path.read_text().splitlines()
        row = lines[-1].split(",")
        row[2], row[4] = row[4], row[2]
        path.write_text("\n".join(lines[:-1] + [",".join(row)]) + "\n")

    def append_byte(out):
        with open(out / "pareto_grid.dat", "a") as fh:
            fh.write(" ")

    broken("reversed eigenvalues", reverse_eigenvalues)
    broken("bootstrap rows with min > max", swap_bootstrap_bounds)
    broken("a missing artifact", lambda out: (out / "pareto.gp").unlink())
    broken("artifacts that differ by one byte", append_byte)
    ridge = workloads(tiny=True)["ridge-dataset"]
    wrong = np.zeros(RIDGE_DIM)
    wrong[0] = 1.0
    broken("a ridge direction that is not the dataset's", lambda out: None, wrong,
           ridge, outputs["ridge-dataset"])

    elapsed = time.monotonic() - started
    print(f"self-check: {len(failures)} failure(s) in {elapsed:.1f} s")
    return len(failures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads()))
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="tiny runs that exercise every wrapper and gate rule")
    args = parser.parse_args(argv)
    if not (args.self_check or args.workload):
        parser.error("--workload is required")
    try:
        if not (SRC / "activefoil" / "__init__.py").is_file():
            raise BenchmarkError(f"no activefoil sources under {SRC}")
        if args.self_check:
            return 1 if self_check() else 0
        return run_benchmark(args)
    except BenchmarkError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
