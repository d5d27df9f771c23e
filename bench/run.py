"""The sgb benchmark: one workload of ``sgb`` CLI invocations, run in-process
through ``sgb.cli.run_command`` in a closed loop (one caller; the next
invocation starts when the previous one has returned).

    python3 bench/run.py --workload verify-generic --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds of
whole passes.  ``--trace 1`` alternates untraced and traced passes over the
first variant and reports the per-layer metrics (see ``tracing.py``).  Every
output is checked after the timed region; the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Spans, counts and
run metadata go to ``.bench_out/`` at the repository root.

``--record`` runs every item of the seed once and stores the digests of its
answers in ``expected.json``; later runs with that seed compare against them.
See NOTES.md for why each workload exists and what each metric predicts.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import control
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
DEFAULT_SEED = 1
SETUP_ROUNDS = 5

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "item_p50_s": "s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
COUNTS = (
    "engine.buchberger.calls", "engine.buchberger.basis_len",
    "engine.normal_form.calls",
    "engine.build_macaulay.calls", "engine.macaulay.rows", "engine.macaulay.cols",
    "engine.macaulay.cells",
    "engine.rref.calls", "engine.rref.rank", "engine.rref.zero_rows",
    "engine.gb_up_to.calls",
    "analysis.basis.input.calls", "analysis.basis.extension.calls",
    "analysis.basis.sigma.calls", "analysis.basis.sigma_xn.calls",
    "analysis.search.attempts", "analysis.sigma.nonidentity", "analysis.fallback.capped",
    "core.apply_to_system.calls",
    "hilbert.regularity_profile.calls", "hilbert.lm_gens",
    "trace.spans",
)
TIMES = (
    "engine.buchberger.self_s", "engine.normal_form.self_s",
    "engine.build_macaulay.self_s", "engine.rref.self_s", "engine.gb_up_to.self_s",
    "analysis.basis.input.total_s", "analysis.basis.extension.total_s",
    "analysis.basis.sigma.total_s", "analysis.basis.sigma_xn.total_s",
    "analysis.verify.self_s", "analysis.check_weakly_revlex.self_s",
    "core.apply_to_system.self_s",
    "hilbert.regularity_profile.self_s", "hilbert.hilbert_numerator.self_s",
    "io.parse_system_doc.self_s", "io.run_experiment.self_s", "io.write_csv.self_s",
    "cli.run_command.self_s",
) + tuple(f"layer.{layer}.self_s" for layer in tracing.LAYERS)
RATIOS = (
    "engine.normal_form.zero_frac", "engine.rref.rank_frac",
    "trace.overhead_frac", "trace.unattributed_frac",
)
# per-layer names that differ from the span name they are read from
SPAN_ALIASES = {
    "engine.rref.calls": "engine.rref_naive.calls",
    "engine.rref.self_s": "engine.rref_naive.self_s",
    "analysis.verify.self_s": "analysis.verify_main_theorem.self_s",
}


# ---------------------------------------------------------------------------
# run metadata
# ---------------------------------------------------------------------------


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            path = next(line.split()[-1] for line in maps if "openblas" in line)
        lib = ctypes.CDLL(path)
    except (OSError, StopIteration):
        return None
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return None


def metadata(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "SGB_THREADS": os.environ.get("SGB_THREADS"),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def oversubscribed(meta: dict) -> list:
    """Thread counts that are not numbers or exceed the CPUs this run may use."""
    counts = {"blas_threads": meta["blas_threads"]}
    for var in ("SGB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var)
        if value:
            counts[var] = int(value) if value.isdigit() else value
    return [f"{k}={v}" for k, v in counts.items()
            if v is not None and (not isinstance(v, int) or v > meta["nproc"])]


# ---------------------------------------------------------------------------
# invocations
# ---------------------------------------------------------------------------


@dataclass
class Output:
    """What one invocation produced, and how long it took."""

    item: workloads.Item
    start: float
    seconds: float
    rc: object  # exit code, or a description of how the call failed
    stdout: str
    stderr: str
    file_text: str | None

    def raw(self):
        return (self.rc, self.stdout, self.file_text)


def invoke(item) -> Output:
    import sgb.cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = sgb.cli.run_command(item.argv)
    except Exception:  # an escaped exception is a failed invocation, not a crash
        rc = "exception"
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    file_text = None
    if item.out is not None and rc == 0:
        try:
            file_text = item.out.read_text(encoding="utf-8")
        except OSError as e:
            rc = f"unreadable output: {e}"
    return Output(item, start, seconds, rc, out.getvalue(), err.getvalue(), file_text)


class Checker:
    """Verdicts on outputs, computed once per distinct output of an item."""

    def __init__(self, workload, seed):
        self.expected = workloads.load_expected(workload, seed)
        self.first = {}
        self.verdicts = {}

    def failure(self, out: Output):
        key = out.item.key
        first = self.first.setdefault(key, out.raw())
        if out.rc != 0:
            return f"exit {out.rc}: {out.stderr.strip()[-300:]}"
        if out.raw() != first:
            return "output differs from an earlier run of the same input"
        if key not in self.verdicts:
            self.verdicts[key] = self._judge(out)
        return self.verdicts[key]

    def _judge(self, out: Output):
        item = out.item
        want = self.expected.get(item.key)
        if want is not None:
            got = workloads.digest(workloads.answer(item, out.stdout, out.file_text))
            if got != want:
                return f"answer digest {got} differs from the recorded {want}"
        try:
            return workloads.check(item, out.stdout, out.file_text)
        except Exception:  # a check that crashes fails the output it checks
            return "check raised:\n" + traceback.format_exc()


def tally(outputs, checker) -> tuple:
    failed = 0
    for out in outputs:
        why = checker.failure(out)
        if why is not None:
            failed += 1
            print(f"FAILED {out.item.key} ({' '.join(out.item.argv[:1])}): {why}",
                  file=sys.stderr)
    return len(outputs), failed


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def timed_setup(workload, seed, workdir) -> tuple:
    """Median over rounds of: a fresh interpreter importing sgb, plus
    generating and writing the workload's inputs; scaled by the import
    control and also returned raw."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    ctl = control.Control("import")
    rounds = []
    variants = None
    for _ in range(SETUP_ROUNDS):
        ctl.sample()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import sgb"], env=env, cwd=ROOT,
                       check=True, timeout=120)
        variants = workloads.build(workload, seed, workdir)
        rounds.append((start, time.perf_counter() - start))
    ctl.sample()
    scaled = statistics.median(ctl.scale(t, s) for t, s in rounds)
    return scaled, statistics.median(s for _, s in rounds), variants


def import_sgb():
    sys.path.insert(0, str(SRC))
    import sgb.cli

    if Path(sgb.__file__).resolve().parent != SRC / "sgb":
        raise ImportError(f"sgb imported from {sgb.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def _geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def speed_metrics(outputs, durations) -> tuple:
    by_shape = {}
    for out, seconds in zip(outputs, durations):
        by_shape.setdefault(out.item.shape, []).append(seconds)
    medians = {shape: statistics.median(times) for shape, times in by_shape.items()}
    total = sum(durations)
    return {
        "items_per_s": len(outputs) / total,
        "item_p50_s": _geomean(medians.values()),
        "trials_per_s": sum(out.item.trials for out in outputs) / total,
    }, {shape: (med, len(by_shape[shape])) for shape, med in medians.items()}


def measure(variants, seconds, ctl) -> tuple:
    """Whole passes until ``seconds`` have gone by; pass k runs variant k.
    The control runs at most every half second, between invocations."""
    invoke(variants[0][0])  # warm-up: lazy imports and caches
    outputs = []
    passes = 0
    start = time.perf_counter()
    while True:
        for item in variants[passes % len(variants)]:
            if ctl.due():
                ctl.sample()
            outputs.append(invoke(item))
        passes += 1
        if time.perf_counter() - start >= seconds:
            break
    ctl.sample()
    wall = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scaled = [ctl.scale(out.start, out.seconds) for out in outputs]
    metrics, shapes = speed_metrics(outputs, scaled)
    metrics["peak_rss_mb"] = peak_mb
    raw, raw_shapes = speed_metrics(outputs, [out.seconds for out in outputs])
    notes = [f"passes={passes} invocations={len(outputs)} wall_s={wall:.3f} "
             f"control={ctl.kind} samples={len(ctl.seconds)} median={ctl.median_s():.4f} s "
             f"nominal={control.NOMINAL[ctl.kind]} s"]
    notes += [f"  {shape}: median {med:.4f} s scaled, {raw_shapes[shape][0]:.4f} s raw, "
              f"over {count} invocations" for shape, (med, count) in shapes.items()]
    notes += [f"  raw {name}={value:.6g}" for name, value in raw.items()]
    return outputs, metrics, notes


def run_pass(items, tracer=None) -> tuple:
    guard = tracing.instrument(tracer) if tracer else contextlib.nullcontext()
    outputs = []
    with guard:
        start = time.perf_counter()
        for i, item in enumerate(items):
            if tracer:
                tracer.item = i
            outputs.append(invoke(item))
        wall = time.perf_counter() - start
    return outputs, wall


def traced(variants, seconds) -> tuple:
    """Untraced and traced passes over variant 0, at least one untraced and
    two traced, alternating until ``seconds`` have gone by."""
    items = variants[0]
    plan = [False, True, True]
    outputs, plain_walls, runs = [], [], []
    start = time.perf_counter()
    while plan or time.perf_counter() - start < seconds:
        on = plan.pop(0) if plan else len(runs) <= len(plain_walls)
        tracer = tracing.Tracer() if on else None
        outs, wall = run_pass(items, tracer)
        outputs += outs
        if on:
            runs.append((tracer, wall))
        else:
            plain_walls.append(wall)
    counts = [tracer.all_counts() for tracer, _ in runs]
    repeat = all(c == counts[0] for c in counts)
    if not repeat:
        print("FAILED: per-layer counts differ between traced passes", file=sys.stderr)
    times = [tracer.times() for tracer, _ in runs]
    walls = [wall for _, wall in runs]
    metrics = layer_metrics(counts[0], times, walls, plain_walls, len(runs[0][0].spans))
    notes = [f"traced passes={len(runs)} untraced passes={len(plain_walls)} "
             f"counts repeat={repeat}"]
    detail = {"counts": counts[0], "first_pass_times": times[0]}
    return outputs, metrics, notes, repeat, runs, detail


def layer_metrics(counts, times, walls, plain_walls, spans) -> dict:
    def count(name):
        return counts.get(SPAN_ALIASES.get(name, name), 0)

    def median_time(name):
        name = SPAN_ALIASES.get(name, name)
        return statistics.median(t.get(name, 0.0) for t in times)

    metrics = {name: count(name) for name in COUNTS}
    metrics["trace.spans"] = spans
    metrics.update({name: median_time(name) for name in TIMES})
    calls = count("engine.normal_form.calls")
    metrics["engine.normal_form.zero_frac"] = (
        counts.get("engine.normal_form.zero", 0) / calls if calls else 0.0)
    rows = counts.get("engine.rref.rows", 0)
    metrics["engine.rref.rank_frac"] = count("engine.rref.rank") / rows if rows else 0.0
    wall = statistics.median(walls)
    metrics["trace.overhead_frac"] = wall / statistics.median(plain_walls) - 1
    unattributed = [w - t["trace.root_s"] for w, t in zip(walls, times)]
    metrics["trace.unattributed_frac"] = statistics.median(unattributed) / wall
    return metrics


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def write_spans(path, runs):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"fields": ["pass", "id", "parent", "item", "name",
                                        "start_s", "end_s"]}) + "\n")
        for k, (tracer, _) in enumerate(runs):
            origin = tracer.spans[0][4] if tracer.spans else 0.0
            for sid, parent, item, name, t0, t1 in tracer.spans:
                fh.write(json.dumps([k, sid, parent, item, name,
                                     round(t0 - origin, 7), round(t1 - origin, 7)]) + "\n")


def record(workload, seed, variants) -> None:
    """Store the answer digests of every item of this seed."""
    try:
        data = json.loads(workloads.EXPECTED_FILE.read_text(encoding="utf-8"))
    except FileNotFoundError:
        data = {"seed": seed, "workloads": {}}
    if data["seed"] != seed:
        raise SystemExit(f"expected.json holds seed {data['seed']}, not {seed}")
    checker = Checker(workload, None)
    table = {}
    for items in variants:
        for item in items:
            out = invoke(item)
            why = checker.failure(out)
            if why is not None:
                raise SystemExit(f"{item.key}: {why}")
            table[item.key] = workloads.digest(
                workloads.answer(item, out.stdout, out.file_text))
    data["workloads"][workload] = table
    workloads.EXPECTED_FILE.write_text(
        json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(table)} answers for {workload} seed {seed}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store answer digests for this seed in expected.json")
    args = parser.parse_args(argv)

    if not (SRC / "sgb" / "__init__.py").is_file():
        print(f"error: no sgb sources under {SRC}", file=sys.stderr)
        return 2
    meta = metadata(args.seed)
    too_many = oversubscribed(meta)
    if too_many:
        print(f"error: thread counts invalid or above nproc={meta['nproc']}: "
              f"{', '.join(too_many)}", file=sys.stderr)
        return 2
    # trials of `sgb experiment` run in this process, so the scheduler's
    # worker pool does not enter the numbers
    os.environ["SGB_THREADS"] = meta["SGB_THREADS"] = "1"

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, setup_raw_s, variants = timed_setup(args.workload, args.seed, workdir)
        import_sgb()
        if args.record:
            record(args.workload, args.seed, variants)
            return 0
        checker = Checker(args.workload, args.seed)
        if args.trace:
            outputs, metrics, notes, repeat, runs, detail = traced(variants, args.seconds)
        else:
            ctl = control.Control(workloads.CONTROL[args.workload])
            outputs, metrics, notes = measure(variants, args.seconds, ctl)
            metrics["setup_s"] = setup_s
            notes.append(f"  raw setup_s={setup_raw_s:.6g}")
            repeat = True
        attempted, failed = tally(outputs, checker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        write_spans(OUT_DIR / f"trace-{stem}.jsonl", runs)
        (OUT_DIR / f"counts-{stem}.json").write_text(
            json.dumps(detail, indent=1) + "\n", encoding="utf-8")
        units = {name: "count" for name in COUNTS}
        units.update({name: "s" for name in TIMES})
        units.update({name: "ratio" for name in RATIOS})
    else:
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0 and repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    (OUT_DIR / f"result-{stem}-trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "meta": meta, "notes": notes, **result},
                   indent=1) + "\n", encoding="utf-8")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} failed={failed} failed_frac={failed / attempted:.4f}")
    print("meta " + json.dumps(meta))
    for line in notes:
        print(line)
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
