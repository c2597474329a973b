"""Metamorphic relations: how the pipeline's outputs must relate across
transformed inputs, with no oracle value (Chen et al., *Metamorphic Testing:
A Review of Challenges and Opportunities*, ACM CSUR 2018).

The golden digests pin one output per seed, so they cannot tell a bug from a
deliberate change; each relation here holds for any correct version of the
code. Every case runs at toy size: synth at 60 queries and skew 0.9.

- Line order: permuting the lines of the corpus, queries and qrels leaves
  every output byte-identical.
- Gender swap: swapping he/she, him/her and man/woman in every document keeps
  every BM25 list and negates every per-query signed RaB and ARaB.
- Id renaming: renaming every document and query id by an order-preserving
  map gives the same outputs up to that renaming.
- Duplicate queries: a run and its qrels with every query repeated under a
  new id keep every effectiveness and bias mean, up to summation rounding.
- Sense permutation: renumbering the senses of a trained model permutes its
  sense scores and sense maps, and keeps every sweep value and ranked list,
  up to summation rounding.
- Weight-set batching: scoring a batch under several sense-weight sets at
  once gives each set the logits it gets alone, bit for bit.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from backrank import (Vocab, attribute_scores, build_eval_set, build_sense_map,
                      default_pairs_path, load_checkpoint, load_polarity_lexicon, rank_all,
                      sweep_lambda)
from backrank.cli import main
from backrank.corpus import (bm25_retrieve, load_collection, read_gender_tokens, read_qrels,
                             read_ranking, records_from_ranking, write_run)
from backrank.metrics import Qrels, bias_report
from backrank.rng import SplitMix64
from helpers import effectiveness

SYNTH_CFG = "skew = 0.9\nnum_queries = 60\n"
TRAIN = ["--senses", "4", "--lr", "0.015", "--depth", "20", "--epochs", "1"]
INPUTS = ("corpus.tsv", "queries.tsv", "qrels.txt")
SWAP = {"he": "she", "she": "he", "him": "her", "her": "him", "man": "woman", "woman": "man"}
CUTOFFS = (1, 5, 10, 20)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _synth(root: Path, seed: int) -> Path:
    """A synthetic collection at ``root``: corpus.tsv, queries.tsv, qrels.txt."""
    cfg = root.with_suffix(".cfg")
    cfg.write_text(SYNTH_CFG)
    assert main(["synth", "--config", str(cfg), "--seed", str(seed), "--out", str(root)]) == 0
    return root


def _pipeline(data: Path, out: Path) -> dict[str, bytes]:
    """Train, then rank at lambda 0.5, eval, bias and a 2-lambda sweep on the
    collection in ``data``: each output's bytes by file name."""
    corpus, queries, qrels = (str(data / name) for name in INPUTS)
    coll = ["--corpus", corpus, "--queries", queries]
    ckpt, run = str(out / "model.ckpt"), str(out / "damped.run")
    steps = [
        ["train", *coll, "--qrels", qrels, "--out", ckpt,
         "--loss-csv", str(out / "loss.csv"), *TRAIN],
        ["rank", "--checkpoint", ckpt, *coll, "--depth", "20", "--lambda", "0.5",
         "--out", run],
        ["eval", "--run", run, "--qrels", qrels, "--out", str(out / "eval.csv")],
        ["bias", "--run", run, "--corpus", corpus, "--variant", "both", "--cutoffs", "5,10,20",
         "--out", str(out / "bias.csv")],
        ["sweep", "--checkpoint", ckpt, *coll, "--qrels", qrels, "--depth", "20",
         "--lambdas", "1.0,0.5", "--cutoffs", "5,10,20", "--out", str(out / "sweep.csv")],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """The seed-1 collection and its pipeline outputs."""
    root = tmp_path_factory.mktemp("relations")
    data = _synth(root / "data", 1)
    return data, _pipeline(data, root / "out")


def _rewrite(data: Path, dest: Path, edit) -> Path:
    """A copy of the three input files, each line list passed through
    ``edit(name, lines)``."""
    dest.mkdir()
    for name in INPUTS:
        lines = (data / name).read_text(encoding="utf-8").splitlines(keepends=True)
        (dest / name).write_text("".join(edit(name, lines)), encoding="utf-8")
    return dest


# ---------------------------------------------------------------------------
# line order


def test_outputs_do_not_depend_on_the_line_order_of_any_input(base, tmp_path):
    data, outputs = base
    rng = SplitMix64(26)

    def permute(_name, lines):
        shuffled = list(lines)
        rng.shuffle(shuffled)
        assert shuffled != lines
        return shuffled

    permuted = _rewrite(data, tmp_path / "data", permute)
    got = _pipeline(permuted, tmp_path / "out")
    assert {"model.ckpt", "loss.csv", "damped.run", "sweep.csv"} <= set(got)
    assert ({name: _sha256(b) for name, b in got.items()}
            == {name: _sha256(b) for name, b in outputs.items()})


# ---------------------------------------------------------------------------
# gender swap


def _swap_words(text: str) -> str:
    return " ".join(SWAP.get(t, t) for t in text.split(" "))


@pytest.mark.parametrize("seed", (1, 4))
def test_gender_swap_keeps_bm25_lists_and_negates_every_query_bias(tmp_path, seed):
    data = _synth(tmp_path / "data", seed)

    def swap(name, lines):
        if name != "corpus.tsv":
            return lines
        return [f"{rid}\t{_swap_words(text.rstrip())}\n"
                for rid, _, text in (line.partition("\t") for line in lines)]

    swapped = _rewrite(data, tmp_path / "swapped", swap)
    colls = [load_collection(*(d / name for name in INPUTS)) for d in (data, swapped)]
    assert colls[0].docs != colls[1].docs
    lists = [{qid: bm25_retrieve(tokens, coll, 20, query_id=qid)
              for qid, tokens in sorted(coll.queries.items())} for coll in colls]
    assert lists[0] == lists[1]

    ranked = {qid: list(r.doc_ids) for qid, r in lists[0].items()}
    orig, flipped = (bias_report([ranked], read_gender_tokens(d / "corpus.tsv"), CUTOFFS)[0]
                     for d in (data, swapped))
    assert orig.per_query.keys() == flipped.per_query.keys()
    for key, values in orig.per_query.items():
        assert flipped.per_query[key] == [(-rab, -arab) for rab, arab in values], key
        assert any(rab != 0.0 for rab, _ in values), key
    assert flipped.mean_rab == orig.mean_rab and flipped.mean_arab == orig.mean_arab

    run = tmp_path / "bm25.run"
    write_run(run, (rec for r in lists[0].values() for rec in records_from_ranking(r, "bm25")))
    csvs = []
    for d in (data, swapped):
        out = tmp_path / f"{d.name}.bias.csv"
        assert main(["bias", "--run", str(run), "--corpus", str(d / "corpus.tsv"),
                     "--variant", "both", "--cutoffs", "5,10,20", "--out", str(out)]) == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]


# ---------------------------------------------------------------------------
# id renaming


def _order_preserving_map(ids, prefix: str, step: int) -> dict[str, str]:
    """Each id -> prefix + a zero-padded multiple of ``step``, rising in the
    ids' sorted order, so the new ids sort as the old ones did."""
    mapping = {old: f"{prefix}{step * (i + 1):08d}" for i, old in enumerate(sorted(ids))}
    assert sorted(mapping.values()) == [mapping[old] for old in sorted(ids)]
    return mapping


def test_renaming_ids_in_order_renames_the_outputs_and_nothing_else(base, tmp_path):
    data, outputs = base
    coll = load_collection(*(data / name for name in INPUTS))
    docs = _order_preserving_map(coll.docs, "doc-", 3)
    queries = _order_preserving_map(coll.queries, "topic-", 7)

    def rename(name, lines):
        if name == "qrels.txt":
            return [f"{queries[q]} {it} {docs[d]} {rel}\n"
                    for q, it, d, rel in (line.split() for line in lines)]
        ids = docs if name == "corpus.tsv" else queries
        return [f"{ids[rid]}\t{text}" for rid, _, text in (line.partition("\t") for line in lines)]

    got = _pipeline(_rewrite(data, tmp_path / "data", rename), tmp_path / "out")
    assert got.keys() == outputs.keys()
    back = {new: old for old, new in (*docs.items(), *queries.items())}
    run = [line.split(" ") for line in got.pop("damped.run").decode().splitlines(keepends=True)]
    assert all(fields[0] in queries.values() and fields[2] in docs.values() for fields in run)
    restored = "".join(" ".join([back[q], q0, back[d], *rest]) for q, q0, d, *rest in run)
    assert restored.encode() == outputs["damped.run"]
    for name, data_bytes in got.items():
        assert _sha256(data_bytes) == _sha256(outputs[name]), name


# ---------------------------------------------------------------------------
# duplicate queries


def test_duplicating_every_query_keeps_every_mean(base, tmp_path):
    data, outputs = base
    run = tmp_path / "damped.run"
    run.write_bytes(outputs["damped.run"])
    ranked = read_ranking(run)
    qrels = read_qrels(data / "qrels.txt")
    assert len(ranked) == 60
    doubled = {**ranked, **{f"{qid}-dup": docs for qid, docs in ranked.items()}}
    grades = dict(qrels.items())
    doubled_qrels = Qrels({**grades, **{(f"{q}-dup", d): g for (q, d), g in grades.items()}})

    means = effectiveness(ranked, qrels, CUTOFFS)
    doubled_means = effectiveness(doubled, doubled_qrels, CUTOFFS)
    assert means.keys() == doubled_means.keys()
    for key, value in means.items():
        assert abs(doubled_means[key] - value) <= 1e-12, key

    doc_tokens = read_gender_tokens(data / "corpus.tsv")
    report, doubled_report = bias_report([ranked, doubled], doc_tokens, CUTOFFS)
    assert doubled_report.num_queries == 2 * report.num_queries
    for field in ("mean_rab", "mean_arab"):
        single, double = getattr(report, field), getattr(doubled_report, field)
        assert single.keys() == double.keys()
        for key, value in single.items():
            assert abs(double[key] - value) <= 1e-12, (field, key)


# ---------------------------------------------------------------------------
# sense permutation

# A 3-cycle: unlike [2, 0, 3, 1] it does not commute with reversing the
# senses, so weights applied in reverse order move every sense's weight. Sense
# maps put one weight on a set, which reversal can still map onto itself
# ({0, 1} here), so the lists are also ranked under distinct weights per sense.
PERM = (1, 2, 0, 3)
LAMBDAS = (1.0, 0.5)
DISTINCT = (0.9, 0.7, 0.4, 0.2)


def _permute_senses(model, perm):
    """Renumber the senses in place: new sense i is old sense perm[i]. A
    sense owns a column block of the sense table's first layer and of the
    sense attention's projections, and a slice of the second layer along k."""
    k = model.config.num_senses
    for name, p in model.parameters().items():
        if name in ("sense.w2", "sense.b2"):
            p.data[...] = p.data[list(perm)]
        elif name in ("sense.w1", "sense.b1", "ctx.aq", "ctx.abq", "ctx.ak", "ctx.abk"):
            blocks = p.data.reshape(*p.data.shape[:-1], k, -1)
            blocks[...] = blocks[..., list(perm), :]


def test_permuting_the_senses_permutes_their_scores_and_keeps_every_output(base, tmp_path):
    data, outputs = base
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(outputs["model.ckpt"])
    model, tokens, _ = load_checkpoint(ckpt)
    permuted = load_checkpoint(ckpt)[0]
    _permute_senses(permuted, PERM)
    assert model.config.num_senses == len(PERM)
    vocab = Vocab(tokens)
    pairs = load_polarity_lexicon(default_pairs_path())
    scores, perm_scores = (attribute_scores(net, pairs, vocab) for net in (model, permuted))
    # each sense's cosines are computed alone: the scores move bit for bit
    assert perm_scores.s == tuple(scores.s[i] for i in PERM)
    assert len(set(scores.s)) == len(PERM)    # no tie, so only the scores pick
    by_m, perm_by_m = ({m: build_sense_map(net, pairs, vocab, LAMBDAS, m) for m in (1, 2)}
                       for net in (model, permuted))
    maps = [w for per_lambda in by_m.values() for w in per_lambda.values()]
    perm_maps = [w for per_lambda in perm_by_m.values() for w in per_lambda.values()]
    assert perm_maps == [tuple(w[i] for i in PERM) for w in maps]

    eval_set = build_eval_set(load_collection(*(data / name for name in INPUTS[:2])), vocab,
                              candidate_depth=20)
    for m in (1, 2):
        rows, perm_rows = (sweep_lambda(net, eval_set, per_m[m], cutoffs=(5, 10, 20))
                           for net, per_m in ((model, by_m), (permuted, perm_by_m)))
        assert len(rows) == len(perm_rows) == 3 * len(LAMBDAS)
        for row, perm_row in zip(rows, perm_rows):
            assert row.keys() == perm_row.keys()
            for column, value in row.items():
                assert abs(perm_row[column] - value) <= 1e-12, (m, row["lambda"],
                                                                row["cutoff"], column)

    separated = 0
    distinct = tuple(DISTINCT[i] for i in PERM)
    for (qid, lists), (_, perm_lists) in zip(rank_all(model, eval_set, [*maps, DISTINCT]),
                                            rank_all(permuted, eval_set, [*perm_maps, distinct])):
        for ranked, perm_ranked in zip(lists, perm_lists):
            perm_score = dict(perm_ranked.items)
            assert all(abs(perm_score[did] - s) <= 1e-12 for did, s in ranked.items), qid
            s = [score for _, score in ranked.items]
            if all(a - b > 1e-12 for a, b in zip(s, s[1:])):
                assert perm_ranked.doc_ids == ranked.doc_ids, qid
                separated += 1
    assert separated >= len(eval_set.queries)    # the order check ran on many lists


# ---------------------------------------------------------------------------
# weight-set batching


def test_weight_sets_scored_together_each_equal_that_set_scored_alone(base, tmp_path):
    """Row w of a 3-set relevance_logits call is the 1-set call under row w,
    bit for bit, on every query's ragged candidate batch of a trained model:
    the sets share one encoder pass and one a @ s, and none moves another."""
    data, outputs = base
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(outputs["model.ckpt"])
    model, tokens, _ = load_checkpoint(ckpt)
    eval_set = build_eval_set(load_collection(*(data / name for name in INPUTS[:2])),
                              Vocab(tokens), candidate_depth=20)
    weights = np.array([(1.0,) * len(PERM), DISTINCT, (1.0, 0.05, 1.0, 0.5)])
    for qid, query in sorted(eval_set.queries.items()):
        seqs = [model.pack_sequence(query, doc) for _, doc in eval_set.candidates[qid]]
        together = model.relevance_logits(seqs, weights)[0]
        assert together.shape == (3, len(seqs))
        for w, row in zip(weights, together):
            assert np.array_equal(row, model.relevance_logits(seqs, w[None])[0][0]), qid
