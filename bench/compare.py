"""Compare two result sets of the benchmark.

    python3 bench/compare.py BASE NEW

BASE and NEW are directories of run records (the JSON files run.py writes to
.bench_runs/results/) or single record files. Records are grouped by
workload and mode; each workload gets its own rows, one per metric, with
the median and quartiles of each side, the ratio NEW/BASE with its base
value, and a verdict against the metric's bound from BENCHMARK.json.
A metric whose spread (quartile distance over median) exceeds its bound on
either side is labelled unresolved, unless every NEW run beats every BASE
run. Per-layer metrics have no bound and get no verdict.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict[tuple[str, int], list[dict]]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    groups: dict[tuple[str, int], list[dict]] = {}
    for f in files:
        record = json.loads(f.read_text())
        groups.setdefault((record["workload"], record["trace"]), []).append(record)
    return groups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def bounds() -> dict[str, tuple[str, float | None]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"]}
    out.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    return out


def verdict(base: list[float], new: list[float], better: str, bound: float | None) -> str:
    if bound is None:
        return ""
    sign = 1.0 if better == "higher" else -1.0
    if max(spread(base), spread(new)) > bound:
        if min(sign * v for v in new) > max(sign * v for v in base):
            return "better in every run"
        return f"unresolved (spread > bound {bound:.0%})"
    b, n = statistics.median(base), statistics.median(new)
    worse = sign * (b - n) / abs(b) if b else 0.0
    if worse > bound:
        return f"WORSE by {worse:.1%} (bound {bound:.0%})"
    return f"within bound {bound:.0%}"


def fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    spec = bounds()
    print(f"{'workload':<8} {'mode':<5} {'metric':<30} {'unit':<8} "
          f"{'base median [q1, q3]':<36} {'new median [q1, q3]':<36} new/base (base)  verdict")
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        mode = "trace" if trace else "e2e"
        rows = {"failed_frac": ("fraction", [r["failed_frac"] for r in base[key]],
                                [r["failed_frac"] for r in new[key]])}
        for metric, m in base[key][0]["metrics"].items():
            rows[metric] = (m["unit"], [r["metrics"][metric]["value"] for r in base[key]],
                            [r["metrics"][metric]["value"] for r in new[key]
                             if metric in r["metrics"]])
        for metric, (unit, b, n) in rows.items():
            if not n:
                print(f"{workload:<8} {mode:<5} {metric:<30} missing from NEW")
                continue
            better, bound = spec.get(metric, ("lower", None))
            bm, nm = statistics.median(b), statistics.median(n)
            ratio = f"{nm / bm:.4f} (base {bm:.6g})" if bm else f"n/a (base {bm:.6g})"
            if metric == "failed_frac":
                judged = "MORE FAILURES" if max(n) > max(b) else "no more failures"
            else:
                judged = verdict(b, n, better, bound)
            print(f"{workload:<8} {mode:<5} {metric:<30} {unit:<8} {fmt(b):<36} "
                  f"{fmt(n):<36} {ratio}  {judged}")
    for key in sorted(set(base) ^ set(new)):
        print(f"{key[0]:<8} only in {'BASE' if key in base else 'NEW'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
