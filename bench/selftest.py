"""Self-test of the benchmark at toy size (about half a minute).

    python3 bench/selftest.py

Checks that
- every workload, traced and untraced, passes its checks at toy size and
  prints exactly the metric names and units of BENCHMARK.json;
- a corrupted output of each workload raises failed_frac;
- logits moved by 4e-16 still match the reference, while suppression that
  ignores its sense weights does not;
- run.py exits non-zero without printing a result where there is no
  program to measure.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import run

RESULTS: list[tuple[bool, str]] = []


def expect(ok: bool, what: str) -> None:
    RESULTS.append((ok, what))
    print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)


def toy(workload: str, trace: bool = False) -> dict:
    return run.run_workload(workload, run.DEFAULT_SEED, 0.01, trace, size="toy")


@contextmanager
def patched(owner, attr: str, replacement):
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def check_metric_names() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        for workload in run.WORKLOADS:
            record = toy(workload, trace)
            line = json.loads(json.dumps(run.final_line(record)))
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            expect(set(line) == {"correct", "attempted", "failed", "metrics"}
                   and all(set(m) == {"value", "unit"} for m in line["metrics"].values()),
                   f"{workload} trace={int(trace)}: last line has the contract's keys")
            expect(got == want, f"{workload} trace={int(trace)}: metric names and units "
                                f"equal BENCHMARK.json {section}")
            expect(record["correct"] and record["failed_frac"] == 0.0,
                   f"{workload} trace={int(trace)}: toy run passes its checks "
                   f"{record['failures']}")


def _corrupt_outputs(main):
    """cli.main that writes nan into the last cell of each CSV it produces."""
    def corrupting(argv):
        code = main(argv)
        for flag in ("--out", "--loss-csv"):
            if flag in argv and argv[argv.index(flag) + 1].endswith(".csv"):
                path = Path(argv[argv.index(flag) + 1])
                lines = path.read_text().splitlines()
                cells = lines[1].split(",")
                lines[1] = ",".join(cells[:-1] + ["nan"])
                path.write_text("\n".join(lines) + "\n")
        return code
    return corrupting


def check_corruption_counts() -> None:
    import backrank.cli
    for workload in run.WORKLOADS:
        with patched(backrank.cli, "main", _corrupt_outputs(backrank.cli.main)):
            record = toy(workload)
        expect(record["failed_frac"] > 0 and not record["correct"],
               f"{workload}: corrupted output raises failed_frac to "
               f"{record['failed_frac']:.3f}")


def check_reference_tolerance() -> None:
    import backrank.backpack as bp
    from backrank.numkernel import Tensor, add, reshape

    original = bp.Backpack.relevance_logit

    def nudged(self, query_ids, doc_ids, sense_map=None):
        z = original(self, query_ids, doc_ids, sense_map)
        return reshape(add(z, Tensor([4e-16 if sum(doc_ids) % 2 else -4e-16])), ())

    with patched(bp.Backpack, "relevance_logit", nudged):
        record = toy("sweep")
    expect(record["correct"], "sweep: logits moved by 4e-16 still match the reference")

    aggregate = bp.aggregate
    with patched(bp, "aggregate", lambda alpha, senses, weights=None: aggregate(alpha, senses)):
        record = toy("sweep")
    expect(not record["correct"] and any("reference" in f for f in record["failures"]),
           "sweep: suppression that ignores its sense weights fails the reference")


def check_bare_directory() -> None:
    bare = run.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    child = subprocess.run([sys.executable, "bench/run.py", "--workload", "train",
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    expect(child.returncode != 0 and not child.stdout.strip(),
           f"bare directory: exit {child.returncode} and no result printed")


def main() -> int:
    run.import_program()
    check_metric_names()
    check_corruption_counts()
    check_reference_tolerance()
    check_bare_directory()
    failed = [what for ok, what in RESULTS if not ok]
    print(f"{len(RESULTS) - len(failed)}/{len(RESULTS)} self-test checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
