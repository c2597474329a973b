"""In-memory span recorder for the traced benchmark run, and the per-layer
metrics computed from its spans.

The layers are backrank's modules. Spans are recorded from outside the
program: `Tracer.active` swaps each target function in `TARGETS` for a timing
wrapper, in every loaded backrank module namespace that binds it (so
`from .corpus import build_eval_set` callers see the wrapper too), and puts
the originals back on exit. Code that calls no target is charged to the
enclosing span; in particular numkernel primitives called from model code
count as backpack time, because wrapping each of them would cost more than
the work they do.

Each span has a name, a start and an end (perf_counter seconds), the index
of its parent span and a run id. A run id groups the spans of one set-up or
one workload iteration. Spans live in flat arrays and are written out as CSV
when the benchmark ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

LAYERS = ("cli", "corpus", "backpack", "numkernel", "ranker", "senses", "metrics")

# layer -> public functions ("Class.method" for methods) wrapped in a span.
TARGETS = {
    "cli": ("main",),
    "corpus": ("generate_synthetic", "write_collection", "load_collection",
               "read_corpus_tsv", "read_queries_tsv", "read_qrels",
               "Vocab.build", "bm25_retrieve", "build_train_examples",
               "build_eval_set", "write_run", "read_run", "group_run"),
    "backpack": ("Backpack.__init__", "Backpack.relevance_logit",
                 "SenseTable.senses_for", "ContextEncoder.alpha", "aggregate",
                 "RelevanceHead.logit", "save_checkpoint", "load_checkpoint"),
    "numkernel": ("Tape", "backward", "reset_grads"),
    "ranker": ("train", "listwise_loss", "rank", "rank_all", "sweep_lambda"),
    "senses": ("load_polarity_lexicon", "attribute_scores", "build_sense_map"),
    "metrics": ("mean_metric", "bias_report"),
}


class SpanRecorder:
    """Spans in parallel arrays; a stack gives each new span its parent."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.run_labels: list[str] = []
        self.counts: dict[str, list[tuple[int, int]]] = {}
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def new_run(self, label: str) -> None:
        self.run_labels.append(label)

    def begin(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(len(self.run_labels) - 1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: int) -> None:
        """A count made at a span boundary, kept with the current run id."""
        self.counts.setdefault(name, []).append((len(self.run_labels) - 1, int(value)))

    def write_csv(self, path: Path) -> None:
        """One line per span: run id, run label, span id, parent, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run_id,run_label,span_id,parent_id,name,start_s,end_s\n")
            for i in range(len(self.start)):
                r = self.run[i]
                fh.write(f"{r},{self.run_labels[r]},{i},{self.parent[i]},"
                         f"{self.names[self.name[i]]},{self.start[i]!r},{self.end[i]!r}\n")


def _span(rec: SpanRecorder, name: str, fn, counter=None):
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = rec.begin(nid)
        try:
            out = fn(*args, **kwargs)
            if counter is not None:
                counter(args, out)
            return out
        finally:
            rec.finish(i)
    return wrapper


class Tracer:
    """Installs span wrappers around `TARGETS` while a phase is traced."""

    def __init__(self, recorder: SpanRecorder):
        self.rec = recorder
        self.missing: list[str] = []

    def _counter(self, name: str):
        rec = self.rec
        if name == "numkernel.backward":
            return lambda args, out: rec.count("tape_nodes", len(args[0]))
        if name == "ranker.rank":
            return lambda args, out: rec.count("pairs_scored", len(out))
        return None

    def _tape_patches(self, cls):
        """Span from Tape.__enter__ to Tape.__exit__: the recorded forward."""
        rec, nid = self.rec, self.rec.name_id("numkernel.Tape")
        enter, leave = cls.__dict__["__enter__"], cls.__dict__["__exit__"]
        open_spans: dict[int, int] = {}

        def traced_enter(tape):
            open_spans[id(tape)] = rec.begin(nid)
            return enter(tape)

        def traced_exit(tape, *exc):
            try:
                return leave(tape, *exc)
            finally:
                rec.finish(open_spans.pop(id(tape)))
        return [(cls, "__enter__", enter, traced_enter),
                (cls, "__exit__", leave, traced_exit)]

    def _patches(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, replacement) for every target found."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "backrank" or n.startswith("backrank."))]
        patches = []
        self.missing = []
        for layer, targets in TARGETS.items():
            mod = sys.modules.get(f"backrank.{layer}")
            for target in targets:
                name = f"{layer}.{target}"
                owner_name, _, attr = target.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                raw = (owner.__dict__.get(attr) if owner_name
                       else getattr(mod, attr, None)) if owner is not None else None
                if raw is None:
                    self.missing.append(name)
                elif target == "Tape":
                    patches += self._tape_patches(raw)
                elif isinstance(raw, classmethod):
                    wrapped = classmethod(_span(self.rec, name, raw.__func__))
                    patches.append((owner, attr, raw, wrapped))
                elif owner_name:
                    patches.append((owner, attr, raw,
                                    _span(self.rec, name, raw, self._counter(name))))
                else:
                    wrapped = _span(self.rec, name, raw, self._counter(name))
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is raw:
                                patches.append((m, key, raw, wrapped))
        return patches

    @contextmanager
    def active(self, label: str):
        """Trace one phase (a set-up or an iteration) under a new run id."""
        self.rec.new_run(label)
        patches = self._patches()
        for owner, attr, _orig, new in patches:
            setattr(owner, attr, new)
        try:
            yield
        finally:
            for owner, attr, orig, _new in reversed(patches):
                setattr(owner, attr, orig)


# ---------------------------------------------------------------------------
# per-layer metrics

# metric name -> (span name, unit, scale from seconds); the value is the
# median span duration over every traced call, set-ups included.
MEDIAN_SPAN_METRICS = {
    "backpack.sense_table_us": ("backpack.SenseTable.senses_for", "us", 1e6),
    "backpack.context_alpha_us": ("backpack.ContextEncoder.alpha", "us", 1e6),
    "backpack.aggregate_us": ("backpack.aggregate", "us", 1e6),
    "backpack.head_us": ("backpack.RelevanceHead.logit", "us", 1e6),
    "backpack.relevance_logit_us": ("backpack.Backpack.relevance_logit", "us", 1e6),
    "numkernel.forward_ms_per_step": ("numkernel.Tape", "ms", 1e3),
    "numkernel.backward_ms_per_step": ("numkernel.backward", "ms", 1e3),
    "ranker.rank_ms_p50": ("ranker.rank", "ms", 1e3),
    "ranker.rank_all_s_per_lambda": ("ranker.rank_all", "s", 1.0),
    "senses.attribute_scores_ms": ("senses.attribute_scores", "ms", 1e3),
    "metrics.bias_report_s": ("metrics.bias_report", "s", 1.0),
    "metrics.mean_metric_ms": ("metrics.mean_metric", "ms", 1e3),
    "corpus.synth_s": ("corpus.generate_synthetic", "s", 1.0),
    "corpus.bm25_ms_per_query": ("corpus.bm25_retrieve", "ms", 1e3),
    "corpus.build_train_examples_s": ("corpus.build_train_examples", "s", 1.0),
    "corpus.build_eval_set_s": ("corpus.build_eval_set", "s", 1.0),
    "backpack.checkpoint_save_ms": ("backpack.save_checkpoint", "ms", 1e3),
    "backpack.checkpoint_load_ms": ("backpack.load_checkpoint", "ms", 1e3),
}
RUN_IO_SPANS = ("corpus.write_run", "corpus.read_run", "corpus.group_run")


def _metric(value: float, unit: str, samples: int, **extra) -> dict:
    return {"value": float(value), "unit": unit, "samples": int(samples), **extra}


def layer_metrics(rec: SpanRecorder, window_runs: list[int], iterations: int,
                  overhead_pct: float) -> dict:
    """Every per-layer metric, each with its sample count.

    A metric whose layer the workload never called reads 0 with 0 samples.
    Self times cover the traced iterations only; call statistics cover every
    traced call.
    """
    names = np.frombuffer(rec.name, dtype=np.int32)
    parent = np.frombuffer(rec.parent, dtype=np.int32)
    run = np.frombuffer(rec.run, dtype=np.int32)
    dur = np.frombuffer(rec.end, dtype=np.float64) - np.frombuffer(rec.start, dtype=np.float64)
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child

    def select(span_name: str) -> np.ndarray:
        return names == rec._ids.get(span_name, -1)

    def durations(span_name: str) -> np.ndarray:
        return dur[select(span_name)]

    out: dict[str, dict] = {}
    for metric, (span_name, unit, scale) in MEDIAN_SPAN_METRICS.items():
        d = durations(span_name)
        out[metric] = _metric(np.median(d) * scale if d.size else 0.0, unit, d.size)

    ranks = durations("ranker.rank")
    out["ranker.rank_ms_p99"] = _metric(
        np.percentile(ranks, 99) * 1e3 if ranks.size else 0.0, "ms", ranks.size,
        resolved=bool(ranks.size >= 1000))
    in_window = np.isin(run, window_runs)
    pairs = [v for r, v in rec.counts.get("pairs_scored", []) if r in window_runs]
    out["ranker.pairs_scored"] = _metric(sum(pairs) / max(1, iterations), "count",
                                         len(pairs))
    nodes = [v for _r, v in rec.counts.get("tape_nodes", [])]
    out["numkernel.tape_nodes_per_step"] = _metric(
        float(np.median(nodes)) if nodes else 0.0, "count", len(nodes),
        distinct=sorted(set(nodes)))

    io_total = sum(durations(n).sum() for n in RUN_IO_SPANS)
    io_rounds = durations("corpus.write_run").size + durations("corpus.read_run").size
    out["corpus.run_io_ms"] = _metric(io_total / io_rounds * 1e3 if io_rounds else 0.0,
                                      "ms", io_rounds)

    cli_self = self_time[select("cli.main")]
    out["cli.overhead_ms"] = _metric(np.median(cli_self) * 1e3 if cli_self.size else 0.0,
                                     "ms", cli_self.size)

    layer_of = np.array([n.split(".", 1)[0] for n in rec.names] or [""])
    span_layer = layer_of[names] if names.size else np.zeros(0, dtype=layer_of.dtype)
    for layer in LAYERS:
        mask = in_window & (span_layer == layer)
        out[f"{layer}.self_s"] = _metric(self_time[mask].sum() / max(1, iterations),
                                         "s", int(mask.sum()))
    out["trace.overhead_pct"] = _metric(overhead_pct, "%", iterations)
    return out
