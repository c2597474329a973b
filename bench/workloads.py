"""The benchmark's three workloads: set-up, one measured iteration, and the
checks on every output.

Every workload runs on the criterion-6 collection (skew 0.9, 500 queries x
20 documents, vocabulary 200) generated at set-up from the workload seed,
and drives backrank the way a user does: subcommands run in-process through
`backrank.cli.main` on files. README.md in this directory says why each
workload exists.
"""

from __future__ import annotations

import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 1
SIZES = {
    # collection shape, plus how many queries the sweep set-up trains on
    "full": {"num_queries": 500, "docs_per_query": 20, "train_queries": 50},
    "toy": {"num_queries": 12, "docs_per_query": 20, "train_queries": 6},
}
MODEL_ARGS = ["--senses", "4", "--embed-dim", "24", "--heads", "2", "--max-seq-len", "32"]
TRAIN_ARGS = MODEL_ARGS + ["--lr", "0.015", "--negatives", "7", "--depth", "20",
                           "--epochs", "1"]
SWEEP_ARGS = ["--lambdas", "1.0,0.7,0.5", "--top-senses", "3", "--cutoffs", "10",
              "--depth", "20"]
SWEEP_LAMBDAS = (1.0, 0.7, 0.5)
SWEEP_DEPTH = 20
AUDIT_CUTOFFS = "10,20,30,40"
AUDIT_RUN_DEPTH = 100
# One print unit of the CSV writers (6 decimals), plus float slack for the
# subtraction of two printed values.
PRINT_UNIT = 1e-6 + 1e-9


@dataclass
class Checks:
    """Subcommands and output checks attempted, with every failure named."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


class Session:
    """One benchmark process: the program under test and the check tally."""

    def __init__(self, backrank_modules: dict, checks: Checks):
        self.cli = backrank_modules["cli"]
        self.corpus = backrank_modules["corpus"]
        self.backpack = backrank_modules["backpack"]
        self.checks = checks
        self.calls: list[tuple[float, float]] = []   # (start, end) of each subcommand

    def call(self, argv: list[str]) -> None:
        """Run one subcommand, record its interval and check its exit code."""
        t0 = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        self.calls.append((t0, time.perf_counter()))
        self.checks.check(code == 0, f"`backrank {argv[0]}` exited {code}")

    def guarded(self, what: str, fn) -> None:
        """Run a check whose inputs may be missing or malformed."""
        try:
            fn()
        except Exception as exc:  # a broken output is a failed check, not a crash
            self.checks.check(False, f"{what}: {type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# output parsing shared by the checks


def read_csv_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a backrank CSV, without the metadata comment."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def numeric_rows(path: Path) -> list[list[float | str]]:
    """CSV rows with every numeric cell parsed as float."""
    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text
    _header, rows = read_csv_rows(path)
    return [[cell(c) for c in row] for row in rows]


def rows_match(got: list, want: list) -> bool:
    """Same shape, equal text cells, numbers within one print unit."""
    if len(got) != len(want):
        return False
    for g_row, w_row in zip(got, want):
        if len(g_row) != len(w_row):
            return False
        for g, w in zip(g_row, w_row):
            if isinstance(w, str) or isinstance(g, str):
                if g != w:
                    return False
            elif not abs(g - w) <= PRINT_UNIT:
                return False
    return True


def all_finite(rows: list) -> bool:
    return all(math.isfinite(c) for row in rows for c in row if isinstance(c, float))


def in_range(path: Path) -> bool:
    """Every number finite; MRR/NDCG in [0, 1]; bias magnitudes >= 0."""
    header, _ = read_csv_rows(path)
    rows = numeric_rows(path)
    for row in rows:
        for col, value in zip(header, row):
            if isinstance(value, str):
                continue
            if not math.isfinite(value):
                return False
            if col.startswith(("mrr", "ndcg")) and not 0.0 <= value <= 1.0:
                return False
            if col.startswith(("rab", "arab")) and value < 0.0:
                return False
    return bool(rows)


def same_bytes(a: Path, b: Path) -> bool:
    return a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# workloads


def _write_synth_config(path: Path, size: str) -> None:
    shape = SIZES[size]
    path.write_text(
        "skew=0.9\n"
        f"num_queries={shape['num_queries']}\n"
        f"docs_per_query={shape['docs_per_query']}\n"
        "relevant_per_query=2\n"
        "vocab_size=200\n", encoding="utf-8")


def synth(s: Session, d: Path, size: str, seed: int) -> None:
    """`backrank synth` into d/coll."""
    d.mkdir(parents=True, exist_ok=True)
    _write_synth_config(d / "synth.cfg", size)
    s.call(["synth", "--config", str(d / "synth.cfg"), "--seed", str(seed),
            "--out", str(d / "coll")])


def collection(d: Path) -> dict[str, str]:
    """Paths of the collection `synth` wrote under d."""
    return {name: str(d / "coll" / fname) for name, fname in
            (("corpus", "corpus.tsv"), ("queries", "queries.tsv"), ("qrels", "qrels.txt"))}


class Workload:
    """Base: `setup` writes inputs under a directory, `iterate` runs them once.

    Both take the set-up directory d and derive every path from it, so any
    of the identical set-ups can feed the iterations. `iterate` runs the
    subcommands only (Session.calls records their intervals); `check` then
    checks their outputs, untimed and untraced. Outputs of iteration 0 are kept
    under d/it0, later ones are compared to them byte for byte and removed.
    `work_per_iteration` counts, after the timed window, the items one
    iteration processes. `reference_outputs` are the CSVs compared to the
    recorded reference.
    """

    name = ""
    work_metric = ""        # the workload's own name for its throughput
    work_item = ""
    setup_files: tuple[str, ...] = ()
    reference_outputs: tuple[str, ...] = ()

    def __init__(self, size: str, seed: int):
        self.size = size
        self.seed = seed

    def setup(self, s: Session, d: Path) -> None:
        raise NotImplementedError

    def check_setup(self, s: Session, d: Path) -> None:
        """Checks on set-up outputs; run once, outside the timed set-ups."""

    def iterate(self, s: Session, d: Path, it: int) -> None:
        raise NotImplementedError

    def check(self, s: Session, d: Path, it: int) -> None:
        raise NotImplementedError

    def work_per_iteration(self, s: Session, d: Path) -> int:
        raise NotImplementedError

    @staticmethod
    def out_dir(d: Path, it: int) -> Path:
        out = d / f"it{it}"
        out.mkdir(parents=True, exist_ok=True)
        return out

    @staticmethod
    def compare_to_first(s: Session, d: Path, it: int, files: tuple[str, ...]) -> None:
        if it == 0:
            return
        for fname in files:
            s.guarded(f"iteration {it} {fname}", lambda f=fname: s.checks.check(
                same_bytes(d / f"it{it}" / f, d / "it0" / f),
                f"rerun {it} wrote a different {f} than iteration 0"))
        shutil.rmtree(d / f"it{it}")


class TrainWorkload(Workload):
    """`backrank train`, one epoch from scratch: 1,000 listwise examples x 8."""

    name = "train"
    work_metric = "train.examples_per_s"
    work_item = "listwise example"
    setup_files = ("coll/corpus.tsv", "coll/queries.tsv", "coll/qrels.txt")
    reference_outputs = ("loss.csv",)

    def setup(self, s, d):
        synth(s, d, self.size, self.seed)

    def iterate(self, s, d, it):
        out = self.out_dir(d, it)
        coll = collection(d)
        s.call(["train", "--corpus", coll["corpus"], "--queries", coll["queries"],
                "--qrels", coll["qrels"], "--out", str(out / "model.ckpt"),
                "--loss-csv", str(out / "loss.csv"), "--seed", str(self.seed)]
               + TRAIN_ARGS)

    def check(self, s, d, it):
        out = d / f"it{it}"
        steps = 0

        def check_loss():
            nonlocal steps
            rows = numeric_rows(out / "loss.csv")
            losses = [r[1] for r in rows]
            steps = len(losses)
            s.checks.check(steps > 0 and all_finite(rows), "train: loss values not finite")
            # One step's loss depends on its example, so the end of the epoch
            # is judged by the mean over its last tenth.
            tail = losses[-max(1, steps // 10):]
            s.checks.check(sum(tail) / len(tail) < losses[0],
                           "train: final losses not below the first")

        def check_reload():
            model, tokens, meta = s.backpack.load_checkpoint(out / "model.ckpt")
            s.checks.check(
                model.config.num_senses == 4 and model.config.embed_dim == 24
                and meta.get("steps") == steps and len(tokens) == model.config.vocab_size
                and all(math.isfinite(float(p.data.sum()))
                        for p in model.parameters().values()),
                "train: checkpoint does not reload to the trained config")

        s.guarded("train loss.csv", check_loss)
        s.guarded("train checkpoint", check_reload)
        self.compare_to_first(s, d, it, ("loss.csv", "model.ckpt"))

    def work_per_iteration(self, s, d):
        return len(numeric_rows(d / "it0" / "loss.csv"))


class SweepWorkload(Workload):
    """`backrank sweep` over 3 lambdas on a checkpoint trained at set-up."""

    name = "sweep"
    work_metric = "sweep.pairs_per_s"
    work_item = "(query, document) pair x lambda"
    setup_files = ("coll/corpus.tsv", "coll/queries.tsv", "coll/qrels.txt",
                   "model.ckpt", "setup_loss.csv")
    reference_outputs = ("sweep.csv",)

    def setup(self, s, d):
        synth(s, d, self.size, self.seed)
        coll = collection(d)
        # The short fixed training run: the first queries only, one epoch.
        keep = SIZES[self.size]["train_queries"]
        lines = Path(coll["queries"]).read_text(encoding="utf-8").splitlines()[:keep]
        qids = {ln.split("\t", 1)[0] for ln in lines}
        (d / "train_queries.tsv").write_text("".join(ln + "\n" for ln in lines),
                                             encoding="utf-8")
        qrels = Path(coll["qrels"]).read_text(encoding="utf-8").splitlines()
        (d / "train_qrels.txt").write_text(
            "".join(ln + "\n" for ln in qrels if ln.split()[0] in qids), encoding="utf-8")
        s.call(["train", "--corpus", coll["corpus"], "--queries", str(d / "train_queries.tsv"),
                "--qrels", str(d / "train_qrels.txt"), "--out", str(d / "model.ckpt"),
                "--loss-csv", str(d / "setup_loss.csv"), "--seed", str(self.seed)]
               + TRAIN_ARGS)

    def iterate(self, s, d, it):
        out = self.out_dir(d, it)
        coll = collection(d)
        s.call(["sweep", "--checkpoint", str(d / "model.ckpt"),
                "--corpus", coll["corpus"], "--queries", coll["queries"],
                "--qrels", coll["qrels"], "--out", str(out / "sweep.csv")]
               + SWEEP_ARGS)

    def check(self, s, d, it):
        out = d / f"it{it}"

        def check_csv():
            rows = numeric_rows(out / "sweep.csv")
            s.checks.check(
                [r[0] for r in rows] == list(SWEEP_LAMBDAS) and in_range(out / "sweep.csv"),
                "sweep: CSV rows are not one in-range row per lambda")

        s.guarded("sweep.csv", check_csv)
        self.compare_to_first(s, d, it, ("sweep.csv",))

    def work_per_iteration(self, s, d):
        """Candidates over all queries, as the sweep retrieves them, x lambdas."""
        coll = collection(d)
        collection_ = s.corpus.load_collection(coll["corpus"], coll["queries"], coll["qrels"])
        _model, tokens, _meta = s.backpack.load_checkpoint(d / "model.ckpt")
        eval_set = s.corpus.build_eval_set(collection_, s.corpus.Vocab(tokens),
                                           candidate_depth=SWEEP_DEPTH)
        return sum(len(c) for c in eval_set.candidates.values()) * len(SWEEP_LAMBDAS)


class AuditWorkload(Workload):
    """`backrank eval` and `backrank bias` on a depth-100 BM25 run file."""

    name = "audit"
    work_metric = "audit.queries_per_s"
    work_item = "query (eval and bias)"
    setup_files = ("coll/corpus.tsv", "coll/queries.tsv", "coll/qrels.txt", "bm25.run")
    reference_outputs = ("eval.csv", "bias.csv")

    def setup(self, s, d):
        synth(s, d, self.size, self.seed)
        corpus = s.corpus
        paths = collection(d)
        coll = corpus.load_collection(paths["corpus"], paths["queries"])
        records = []
        for qid in sorted(coll.queries):
            ranked = corpus.bm25_retrieve(coll.queries[qid], coll, AUDIT_RUN_DEPTH,
                                          query_id=qid)
            records.extend(corpus.records_from_ranking(ranked, tag="bm25"))
        corpus.write_run(d / "bm25.run", records)

    @staticmethod
    def _run_by_query(d: Path) -> dict[str, list[tuple[int, str, float]]]:
        per_query: dict[str, list[tuple[int, str, float]]] = {}
        for line in (d / "bm25.run").read_text(encoding="utf-8").splitlines():
            qid, _q0, did, rank, score, _tag = line.split()
            per_query.setdefault(qid, []).append((int(rank), did, float(score)))
        return per_query

    def check_setup(self, s, d):
        """Each query's candidates exactly once, ranks 1..n, scores finite and
        non-increasing; every query of the collection present."""
        def check_run():
            per_query = self._run_by_query(d)
            queries = {ln.split("\t", 1)[0] for ln in
                       Path(collection(d)["queries"]).read_text(encoding="utf-8").splitlines()}
            s.checks.check(set(per_query) == queries, "audit: run file misses queries")
            ok = True
            for entries in per_query.values():
                ranks = [r for r, _, _ in entries]
                dids = [did for _, did, _ in entries]
                scores = [sc for _, _, sc in entries]
                ok &= ranks == list(range(1, len(entries) + 1))
                ok &= len(set(dids)) == len(dids)
                ok &= all(math.isfinite(sc) for sc in scores)
                ok &= all(a >= b for a, b in zip(scores, scores[1:]))
            s.checks.check(ok, "audit: run file lists a candidate twice, "
                               "or its ranks or scores are out of order")

        s.guarded("audit run file", check_run)

    def iterate(self, s, d, it):
        out = self.out_dir(d, it)
        coll = collection(d)
        run = str(d / "bm25.run")
        s.call(["eval", "--run", run, "--qrels", coll["qrels"],
                "--out", str(out / "eval.csv"), "--cutoffs", AUDIT_CUTOFFS])
        s.call(["bias", "--run", run, "--corpus", coll["corpus"],
                "--out", str(out / "bias.csv"), "--cutoffs", AUDIT_CUTOFFS,
                "--variant", "both"])

    def check(self, s, d, it):
        out = d / f"it{it}"

        def check_csvs():
            for fname, n_rows in (("eval.csv", 4), ("bias.csv", 8)):
                s.checks.check(
                    len(numeric_rows(out / fname)) == n_rows and in_range(out / fname),
                    f"audit: {fname} rows missing or out of range")

        s.guarded("audit CSVs", check_csvs)
        self.compare_to_first(s, d, it, ("eval.csv", "bias.csv"))

    def work_per_iteration(self, s, d):
        return len(self._run_by_query(d))


WORKLOADS = {w.name: w for w in (TrainWorkload, SweepWorkload, AuditWorkload)}
