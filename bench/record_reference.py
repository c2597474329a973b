"""Record the reference outputs the benchmark checks against.

    python3 bench/record_reference.py

Runs one set-up and one iteration of every workload at the default seed, at
toy and at full size, and writes their CSV values to bench/reference.json.
Rerun it only when a change is meant to alter those outputs by more than
one print unit (1e-6), and say so with the change.
"""

from __future__ import annotations

import json
import re
import shutil
import sys

import run
from workloads import DEFAULT_SEED, WORKLOADS, Checks, Session, numeric_rows


def main() -> int:
    s = Session(run.import_program(), Checks())
    reference: dict = {}
    for size in ("toy", "full"):
        for name, workload in WORKLOADS.items():
            wl = workload(size, DEFAULT_SEED)
            d = run.OUT_DIR / "work" / f"reference-{size}-{name}"
            shutil.rmtree(d, ignore_errors=True)
            wl.setup(s, d)
            wl.check_setup(s, d)
            wl.iterate(s, d, 0)
            wl.check(s, d, 0)
            reference.setdefault(size, {})[name] = {
                f: numeric_rows(d / "it0" / f) for f in wl.reference_outputs}
            shutil.rmtree(d)
    if s.checks.failures:
        print("not recorded, checks failed:", *s.checks.failures, sep="\n  ", file=sys.stderr)
        return 1
    path = run.BENCH_DIR / "reference.json"
    text = json.dumps(reference, indent=1)
    # one CSV row per line
    text = re.sub(r"\[\s+([^\[\]]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    path.write_text(text + "\n")
    print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
