"""Command-line front end for the full pipeline.

Subcommands: synth (build a synthetic collection), train (fit the ranker),
rank (produce a TREC run, optionally with sense suppression), eval
(MRR/NDCG), bias (RaB/ARaB report), senses (per-sense attribute scores), and
sweep (the effectiveness/bias trade-off table).

Exit codes: 0 success, 1 runtime failure, 2 usage or validation error. Every
CSV output ends with a metadata comment recording package version, seed, and
lambda. Verbosity comes from the BACKRANK_LOG environment variable
(debug/info/warning/error).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import os
import sys
from pathlib import Path

from . import __version__
from .backpack import Backpack, BackpackConfig, load_checkpoint, save_checkpoint
from .corpus import (SynthConfig, Vocab, build_train_examples, generate_synthetic, load_collection,
                     RUN_QUERY_END, parse_ranking, read_gender_tokens, read_qrels, read_ranking,
                     records_from_ranking, write_collection, write_run)
from .errors import BackrankError, DomainError, ParseError, read_lines
from .metrics import (VARIANTS, bias_report, distinct, effectiveness_means,
                      effectiveness_per_query)
from .parallel import run_forked, usable_cores
from .ranker import SWEEP_COLUMNS, TrainConfig, rank_collection, sweep_collection, train
from .senses import attribute_scores, build_sense_map, default_pairs_path, load_polarity_lexicon

log = logging.getLogger("backrank.cli")


def _make_parents(*outputs) -> None:
    """Before any work starts, create each missing output directory (None: an
    option not given). A file where a directory should be is left alone, so
    opening that output fails naming it."""
    for path in outputs:
        if path is not None and not Path(path).parent.exists():
            Path(path).parent.mkdir(parents=True)


def _meta_comment(seed, lambdas) -> str:
    # a checkpoint's meta.seed is free-form: json keeps it on the comment line
    seed_s = "-" if seed is None else json.dumps(seed)
    lam_s = "-" if lambdas is None else "|".join(repr(float(v)) for v in lambdas)
    return f"# backrank={__version__} seed={seed_s} lambda={lam_s}\n"


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _write_csv(path, columns, rows, seed=None, lambdas=None) -> None:
    """Header + rows + one trailing metadata comment; floats at 6 decimals."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_cell(row[c]) for c in columns) + "\n")
        fh.write(_meta_comment(seed, lambdas))


def _checked(convert, ok, rule: str):
    """An argparse type: ``convert`` the text, then require ``ok`` of the
    value. Every option is checked as it parses, so a subcommand starts with
    final values and reads or creates nothing for a bad one."""
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value
    parse.__name__ = convert.__name__    # argparse names it in "invalid int value"
    return parse


def _list_of(item):
    """A comma-separated list of ``item`` values, as a tuple, under
    ``metrics.distinct``'s rule; an empty list is named by its text."""
    def parse(text):
        values = tuple(item(part) for part in text.split(",") if part.strip())
        if not values:
            raise argparse.ArgumentTypeError(f"must list at least one value, got {text!r}")
        try:
            return distinct("list", values)
        except DomainError as exc:    # main puts the option's name in front
            raise argparse.ArgumentTypeError(str(exc).removeprefix("list ")) from None
    parse.__name__ = f"{item.__name__} list"
    return parse


def _tag(text: str) -> str:
    """A run tag; whitespace in it would write run lines that do not parse back."""
    if any(ch.isspace() for ch in text):
        raise argparse.ArgumentTypeError(f"{text!r} must not contain whitespace")
    return text


_COUNT = _checked(int, lambda v: v >= 1, ">= 1")
_TOP_SENSES = _checked(int, lambda v: v >= 0, ">= 0")
_TOP_SENSES_HELP = "how many senses to suppress (default 2, or 0 when every lambda is 1)"
_LAMBDA = _checked(float, lambda v: 0.0 < v <= 1.0, "in (0, 1]")
_INPUT = _checked(str, os.path.exists, "an existing path")
# train's model-shape options and the BackpackConfig fields they set
_SHAPE_OPTIONS = (("--embed-dim", "embed_dim"), ("--senses", "num_senses"),
                  ("--sense-hidden", "sense_hidden"), ("--layers", "context_layers"),
                  ("--heads", "context_heads"), ("--max-seq-len", "max_seq_len"))


def _load_model(path):
    model, vocab_tokens, meta = load_checkpoint(path)
    return model, Vocab(vocab_tokens), meta


def _read_run(path):
    """A run file's rankings (``read_ranking``); one with no records is an error."""
    grouped = read_ranking(path)
    if not grouped:
        raise DomainError(f"run file {path} holds no records")
    return grouped


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    cfg = SynthConfig.from_file(args.config) if args.config else SynthConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    outdir = Path(args.out)
    coll = generate_synthetic(cfg)
    paths = write_collection(coll, outdir)
    cfg.to_file(outdir / "synth.cfg")
    record = {
        "subcommand": "synth",
        "inputs": {"config": args.config} if args.config else {},
        "outputs": {k: str(v) for k, v in paths.items()},
        "seed": cfg.seed,
        "config": args.config,
        "config_values": dataclasses.asdict(cfg),
        "version": __version__,
    }
    (outdir / "manifest.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    log.info("wrote %d docs / %d queries under %s",
             len(coll.docs), len(coll.queries), outdir)
    return 0


def cmd_train(args) -> int:
    tcfg = TrainConfig(epochs=args.epochs, learning_rate=args.lr, seed=args.seed)
    shape = {field: getattr(args, field) for _flag, field in _SHAPE_OPTIONS
             if getattr(args, field) is not None}
    if args.resume:    # the model comes from the checkpoint: a shape option must match it
        model, vocab, meta = _load_model(args.resume)
        for flag, field in _SHAPE_OPTIONS:
            saved = getattr(model.config, field)
            if shape.get(field, saved) != saved:
                raise DomainError(f"{flag} {shape[field]} does not match {field} {saved} "
                                  f"of {args.resume}")
        step_base = meta.get("steps", 0)
        if type(step_base) is not int or step_base < 0:
            raise ParseError(f"checkpoint meta 'steps' must be a non-negative integer, "
                             f"got {step_base!r}", path=args.resume)
    else:    # vocab_size is filled in once the vocabulary is built
        cfg = BackpackConfig(vocab_size=1, **shape)
        step_base = 0
    _make_parents(args.out, args.loss_csv)

    coll = load_collection(args.corpus, args.queries, args.qrels)
    if not args.resume:
        vocab = Vocab.build(list(coll.docs.values()) + list(coll.queries.values()))
        model = Backpack(dataclasses.replace(cfg, vocab_size=len(vocab)), seed=args.seed)

    examples = build_train_examples(coll, vocab, num_negatives=args.negatives,
                                    seed=args.seed, candidate_depth=args.depth)
    model, history = train(examples, tcfg, model)

    meta = {"seed": args.seed, "steps": step_base + len(history),
            "final_loss": history[-1]}
    save_checkpoint(args.out, model, vocab.tokens, meta)
    rows = [{"step": step_base + i + 1, "loss": loss}
            for i, loss in enumerate(history)]
    _write_csv(args.loss_csv, ("step", "loss"), rows, seed=args.seed)
    log.info("trained %d steps, final loss %.6f", len(history), history[-1])
    return 0


def cmd_rank(args) -> int:
    _make_parents(args.out)

    model, vocab, meta = _load_model(args.checkpoint)
    tag = args.tag or f"backrank-s{meta.get('seed', 0)}"
    if any(ch.isspace() for ch in tag):    # only a default tag: --tag is checked as it parses
        raise ParseError(f"run tag {tag!r} must not contain whitespace", path=args.checkpoint)
    pairs = load_polarity_lexicon(args.pairs or default_pairs_path())
    maps = build_sense_map(model, pairs, vocab, (args.lam,), args.top_senses)
    coll = load_collection(args.corpus, args.queries)
    lists = rank_collection(model, coll, vocab, maps[args.lam], candidate_depth=args.depth)
    write_run(args.out, (rec for ranked in lists for rec in records_from_ranking(ranked, tag=tag)))
    log.info("ranked %d queries into %s", len(lists), args.out)
    return 0


def _effectiveness_by_run_block(path, qrels, cutoffs: tuple[int, ...]) -> dict:
    """``eval``'s means of a run file, parsed and scored by ``run_forked`` in
    one block of whole queries per usable core, joined in sorted id order,
    so bit for bit one process's. After a failed block, a query in two blocks
    or no records, ``_read_run`` reads the whole file: it names any fault as
    one process does."""
    try:
        data = Path(path).read_bytes()
    except OSError:    # no records here: _read_run names the path
        data = b""

    def block(start, end):    # None if it does not parse: its lines count from its start
        try:
            text = str(memoryview(data)[start:end], "utf-8")
            ranked = parse_ranking(enumerate(text.splitlines(), 1), path)
        except ValueError:    # a ParseError or a UnicodeDecodeError
            return None
        return sorted(ranked), effectiveness_per_query([ranked], qrels, cutoffs)[0]

    n = usable_cores()    # block i ends at the first query end from byte len * i / n on
    ends = [RUN_QUERY_END.search(data, len(data) * i // n).end() for i in range(1, n + 1)]
    blocks = run_forked([functools.partial(block, *span) for span in zip([0] + ends, ends)])
    qids = [qid for done in blocks if done for qid in done[0]]
    if None in blocks or not qids or len(set(qids)) < len(qids):
        grouped = _read_run(path)
        blocks = [(sorted(grouped), effectiveness_per_query([grouped], qrels, cutoffs)[0])]
        qids = blocks[0][0]
    order = sorted(range(len(qids)), key=qids.__getitem__)
    columns = {key: [v for _, values in blocks for v in values[key]] for key in blocks[0][1]}
    joined = {key: [column[i] for i in order] for key, column in columns.items()}
    return effectiveness_means([joined], [qids[i] for i in order], qrels)[0]


def cmd_eval(args) -> int:
    _make_parents(args.out)
    try:
        qrels = read_qrels(args.qrels)
    except ParseError:    # a faulty run, or an empty one, is the error reported
        _read_run(args.run)
        raise
    means = _effectiveness_by_run_block(args.run, qrels, args.cutoffs)
    rows = [{"cutoff": c, "mrr": means[("mrr", c)], "ndcg": means[("ndcg", c)]}
            for c in args.cutoffs]
    _write_csv(args.out, ("cutoff", "mrr", "ndcg"), rows)
    return 0


def cmd_bias(args) -> int:
    variants = VARIANTS if args.variant == "both" else (args.variant,)    # the rows written
    _make_parents(args.out)
    # a helper reads the corpus (all RaB/ARaB read of a document) while this process reads the run
    grouped, doc_tokens = run_forked([functools.partial(_read_run, args.run),
                                      functools.partial(read_gender_tokens, args.corpus)])
    if any(did not in doc_tokens for ids in grouped.values() for did in ids):
        for lineno, raw in read_lines(args.run):
            parts = raw.split()
            if parts and parts[2] not in doc_tokens:
                raise ParseError(f"run document {parts[2]!r} (query {parts[0]}) missing "
                                 "from corpus", path=args.run, line=lineno)
    [report] = bias_report([grouped], doc_tokens, cutoffs=args.cutoffs)
    rows = [{"variant": v, "cutoff": c, "rab": report.mean_rab[(v, c)],
             "arab": report.mean_arab[(v, c)]}
            for v in variants for c in report.cutoffs]
    _write_csv(args.out, ("variant", "cutoff", "rab", "arab"), rows)
    return 0


def cmd_senses(args) -> int:
    _make_parents(args.out)
    model, vocab, meta = _load_model(args.checkpoint)
    pairs = load_polarity_lexicon(args.pairs or default_pairs_path())
    scores = attribute_scores(model, pairs, vocab)
    rows = [{"sense": i, "score": s} for i, s in enumerate(scores.s)]
    if args.out:
        _write_csv(args.out, ("sense", "score"), rows,
                   seed=meta.get("seed"))
    else:
        print("sense  score")
        for row in rows:
            print(f"{row['sense']:>5}  {row['score']:+.6f}")
        order = ", ".join(str(i) for i in scores.ranked())
        print(f"most gender-sensitive first: {order}")
    return 0


def cmd_sweep(args) -> int:
    _make_parents(args.out)

    model, vocab, meta = _load_model(args.checkpoint)
    pairs = load_polarity_lexicon(args.pairs or default_pairs_path())
    maps = build_sense_map(model, pairs, vocab, args.lambdas, args.top_senses)
    coll = load_collection(args.corpus, args.queries, args.qrels)
    rows = sweep_collection(model, coll, vocab, maps, args.cutoffs, candidate_depth=args.depth)
    _write_csv(args.out, SWEEP_COLUMNS, rows, seed=meta.get("seed"), lambdas=args.lambdas)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="backrank", exit_on_error=False,
        description="Bias-controllable ranking pipeline on a sense-vector model.")
    parser.add_argument("--version", action="version",
                        version=f"backrank {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    sub_parser = functools.partial(sub.add_parser, exit_on_error=False)

    p = sub_parser("synth", help="generate a synthetic collection")
    p.add_argument("--config", type=_INPUT, help="key=value synthesis config file")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub_parser("train", help="train the ranker on a collection")
    p.add_argument("--corpus", type=_INPUT, required=True)
    p.add_argument("--queries", type=_INPUT, required=True)
    p.add_argument("--qrels", type=_INPUT, required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--loss-csv", default="loss.csv")
    p.add_argument("--resume", type=_INPUT, help="checkpoint to continue training from")
    p.add_argument("--epochs", type=int, default=4)
    p.add_argument("--lr", type=float, default=0.015)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--negatives", type=_COUNT, default=7)
    p.add_argument("--depth", type=_COUNT, default=100,
                   help="first-stage candidate depth")
    for flag, field in _SHAPE_OPTIONS:    # default: BackpackConfig's, or --resume's
        p.add_argument(flag, dest=field, type=int, metavar=flag[2:].upper().replace("-", "_"))
    p.set_defaults(func=cmd_train)

    p = sub_parser("rank", help="write a TREC run, optionally debiased")
    p.add_argument("--checkpoint", type=_INPUT, required=True)
    p.add_argument("--corpus", type=_INPUT, required=True)
    p.add_argument("--queries", type=_INPUT, required=True)
    p.add_argument("--out", required=True, help="run file path")
    p.add_argument("--lambda", dest="lam", type=_LAMBDA, default=1.0,
                   help="sense suppression factor in (0, 1]")
    p.add_argument("--top-senses", type=_TOP_SENSES, help=_TOP_SENSES_HELP)
    p.add_argument("--pairs", type=_INPUT, help="polarity pair lexicon (default built-in)")
    p.add_argument("--depth", type=_COUNT, default=100)
    p.add_argument("--tag", type=_tag, help="run tag (default backrank-s<seed>)")
    p.set_defaults(func=cmd_rank)

    p = sub_parser("eval", help="MRR/NDCG of a run against qrels")
    p.add_argument("--run", type=_INPUT, required=True)
    p.add_argument("--qrels", type=_INPUT, required=True)
    p.add_argument("--out", required=True, help="CSV path")
    p.add_argument("--cutoffs", type=_list_of(_COUNT), default=(10, 20, 30, 40))
    p.set_defaults(func=cmd_eval)

    p = sub_parser("bias", help="RaB/ARaB bias report for a run")
    p.add_argument("--run", type=_INPUT, required=True)
    p.add_argument("--corpus", type=_INPUT, required=True)
    p.add_argument("--out", required=True, help="CSV path")
    p.add_argument("--cutoffs", type=_list_of(_COUNT), default=(10, 20, 30, 40))
    p.add_argument("--variant", choices=("tf", "bool", "both"), default="both")
    p.set_defaults(func=cmd_bias)

    p = sub_parser("senses", help="per-sense gender sensitivity scores")
    p.add_argument("--checkpoint", type=_INPUT, required=True)
    p.add_argument("--pairs", type=_INPUT, help="polarity pair lexicon (default built-in)")
    p.add_argument("--out", help="CSV path (prints a table when omitted)")
    p.set_defaults(func=cmd_senses)

    p = sub_parser("sweep", help="lambda sweep: effectiveness vs bias CSV")
    p.add_argument("--checkpoint", type=_INPUT, required=True)
    p.add_argument("--corpus", type=_INPUT, required=True)
    p.add_argument("--queries", type=_INPUT, required=True)
    p.add_argument("--qrels", type=_INPUT, required=True)
    p.add_argument("--out", required=True, help="CSV path")
    p.add_argument("--lambdas", type=_list_of(_LAMBDA), default=(1.0, 0.7, 0.5))
    p.add_argument("--top-senses", type=_TOP_SENSES, help=_TOP_SENSES_HELP)
    p.add_argument("--cutoffs", type=_list_of(_COUNT), default=(10, 20, 30, 40))
    p.add_argument("--pairs", type=_INPUT, help="polarity pair lexicon (default built-in)")
    p.add_argument("--depth", type=_COUNT, default=100)
    p.set_defaults(func=cmd_sweep)

    return parser


def _configure_logging() -> None:
    level = os.environ.get("BACKRANK_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except argparse.ArgumentError as exc:
        if not (exc.argument_name or "").startswith("-"):
            parser.error(str(exc))    # a bad subcommand: usage, SystemExit(2)
        print(f"error: {exc.argument_name} {exc.message}", file=sys.stderr)
        return 2
    except (DomainError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BackrankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - last-resort guard
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
