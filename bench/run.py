"""Benchmark of the backrank pipeline.

    python3 bench/run.py --workload {train,sweep,audit} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a backrank checkout; the program is imported from
src/ of that checkout. One workload run sets up its inputs from the seed
several times (reporting the median set-up time), then repeats the
workload's subcommands, in this process and on one thread, until their
summed wall time reaches --seconds. Every exit code and output is checked.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 half of the window runs untraced and half traced, and the last
line carries the per-layer metrics computed from the spans (see spans.py).
The line before it is the full record: machine, sample counts, failures.
Records go to .bench_runs/results/ (compare.py reads them), spans of a
traced run to .bench_runs/spans/. `--workload all` runs each workload in a
child process and prints one table of every metric with its unit.
"""

from __future__ import annotations

import os

# Single-threaded BLAS/OpenMP, fixed before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_runs"
SETUPS = 5


def import_program() -> dict:
    """backrank from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "backrank" / "__init__.py").is_file():
        raise SystemExit(f"error: no backrank sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"backrank.{name}")
            for name in ("cli", "corpus", "backpack")}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: imported backrank from {mods['cli'].__file__}, not {src}")
    return mods


sys.path.insert(0, str(BENCH_DIR))
from probe import NOMINAL_S, SpeedProbe  # noqa: E402
from spans import SpanRecorder, Tracer, layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Checks, Session, numeric_rows, rows_match  # noqa: E402


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine(seed: int) -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict mode; the record says so
        blas = "unknown"
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _reference() -> dict:
    path = BENCH_DIR / "reference.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def check_reference(s: Session, wl, d: Path, reference: dict) -> None:
    """Outputs of iteration 0 against the values recorded for the default seed."""
    want = reference.get(wl.size, {}).get(wl.name, {})
    for fname in wl.reference_outputs:
        s.guarded(f"reference {wl.size}/{wl.name}/{fname}", lambda f=fname: s.checks.check(
            f in want and rows_match(numeric_rows(d / "it0" / f), want[f]),
            f"{wl.size} {wl.name} {f} differs from the reference by more than 1e-6"))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> dict:
    """One benchmark run; returns the full record."""
    s = Session(import_program(), Checks())
    wl = WORKLOADS[name](size, seed)
    work = OUT_DIR / "work" / f"{name}-{size}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    rec = SpanRecorder()
    tracer = Tracer(rec) if trace else None
    probe = SpeedProbe()
    record = {"workload": name, "size": size, "seed": seed, "seconds": seconds,
              "trace": int(trace), "machine": machine(seed)}
    probe.start()
    try:
        setups = []
        for i in range(SETUPS):
            with (tracer.active(f"setup{i}") if tracer else nullcontext()):
                t0 = time.perf_counter()
                wl.setup(s, work / f"setup{i}")
                setups.append((t0, time.perf_counter()))
        d = work / "setup0"
        for i in range(1, SETUPS):
            for fname in wl.setup_files:
                s.guarded(f"set-up {i} {fname}", lambda f=fname, i=i: s.checks.check(
                    (work / f"setup{i}" / f).read_bytes() == (d / f).read_bytes(),
                    f"set-up {i} wrote a different {f} than set-up 0"))
        wl.check_setup(s, d)

        iteration = 0

        def window(budget: float, traced: bool) -> tuple[int, list]:
            """Iterations until their subcommands' summed wall time reaches budget."""
            nonlocal iteration
            count, wall, calls = 0, 0.0, []
            while count == 0 or wall < budget:
                first = len(s.calls)
                with (tracer.active(f"iter{iteration}") if traced else nullcontext()):
                    wl.iterate(s, d, iteration)
                calls += s.calls[first:]
                wall = sum(b - a for a, b in calls)
                wl.check(s, d, iteration)
                iteration += 1
                count += 1
            return count, calls

        if trace:
            plain_n, plain_calls = window(seconds / 2, traced=False)
            first_traced = len(rec.run_labels)
            traced_n, traced_calls = window(seconds / 2, traced=True)
            window_runs = list(range(first_traced, len(rec.run_labels)))
        else:
            iterations, calls = window(seconds, traced=False)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        work_items = 0
        try:
            work_items = wl.work_per_iteration(s, d)
        except Exception as exc:  # a missing output already failed a check
            s.checks.check(False, f"work count: {type(exc).__name__}: {exc}")

        reference = _reference()
        if seed == DEFAULT_SEED:
            check_reference(s, wl, d, reference)
        if (size, seed) != ("toy", DEFAULT_SEED):
            toy = WORKLOADS[name]("toy", DEFAULT_SEED)
            td = work / "reference"
            toy.setup(s, td)
            toy.check_setup(s, td)
            toy.iterate(s, td, 0)
            toy.check(s, td, 0)
            check_reference(s, toy, td, reference)
    finally:
        probe.stop()
        shutil.rmtree(work, ignore_errors=True)

    def ref_seconds(intervals) -> float:
        return sum(probe.reference_seconds(a, b) for a, b in intervals)

    checks = s.checks
    record.update(correct=checks.failed == 0, attempted=checks.attempted,
                  failed=checks.failed, failed_frac=checks.failed / checks.attempted,
                  failures=checks.failures[:20],
                  probe={"samples": len(probe.samples), "busy_share": probe.busy_share(),
                         "median_burst_s": statistics.median(d for _, d in probe.samples),
                         "nominal_burst_s": NOMINAL_S})
    if trace:
        plain, traced = ref_seconds(plain_calls), ref_seconds(traced_calls)
        overhead = ((traced / traced_n) / (plain / plain_n) - 1.0) * 100.0
        record["iterations"] = {"untraced": plain_n, "traced": traced_n}
        record["missing_targets"] = tracer.missing
        record["metrics"] = layer_metrics(rec, window_runs, traced_n, overhead)
        spans = OUT_DIR / "spans" / f"{name}-{size}-s{seed}.csv"
        rec.write_csv(spans)
        record["spans_file"] = str(spans.relative_to(ROOT))
    else:
        setup_ref = [probe.reference_seconds(a, b) for a, b in setups]
        wall = sum(b - a for a, b in calls)
        items = work_items * iterations
        record["iterations"] = iterations
        record["metrics"] = {
            "setup_s": {"value": statistics.median(setup_ref), "unit": "s",
                        "samples": len(setup_ref), "each": setup_ref,
                        "wall_each": [b - a for a, b in setups]},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB", "samples": 1},
            "throughput": {"value": items / ref_seconds(calls), "unit": "items/s",
                           "samples": iterations, "alias": wl.work_metric,
                           "item": wl.work_item, "items": items,
                           "wall_s": wall, "wall_items_per_s": items / wall},
        }
    return record


def final_line(record: dict) -> dict:
    """The last stdout line: exactly correct, attempted, failed and metrics."""
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                        for k, v in record["metrics"].items()}}


def save(record: dict) -> Path:
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / (f"{record['workload']}-{record['size']}-s{record['seed']}"
                      f"-t{record['trace']}-{time.time_ns()}.json")
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def run_all(args) -> int:
    """Each workload in a child process; one table of every metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"{'workload':<8} {'metric':<32} {'value':>14}  {'unit':<8} better")
    status = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900, check=False)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or len(lines) < 2:
            print(f"{name:<8} failed to run (exit {child.returncode})")
            status = 1
            continue
        record = json.loads(lines[-2])
        rows = [("failed_frac", record["failed_frac"], "fraction", "lower")]
        rows += [(m.get("alias", metric), m["value"], m["unit"], better[metric])
                 for metric, m in record["metrics"].items()]
        for metric, value, unit, direction in rows:
            print(f"{name:<8} {metric:<32} {value:>14.6g}  {unit:<8} {direction}")
        status |= not record["correct"]
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    record["record_file"] = str(save(record).relative_to(ROOT))
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(final_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
