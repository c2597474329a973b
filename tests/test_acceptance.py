"""Acceptance gate: one test per advertised guarantee, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v`` to see a pass/fail line per
criterion. Every expected value is computed by an independent in-test oracle
(triple loops, central differences, direct definition transcriptions), never
copied from package output.
"""

import math
import time

import numpy as np
import pytest

from backrank import (Backpack, BackpackConfig, PolarityPair,
                      Qrels, SplitMix64, SynthConfig,
                      TrainConfig, TrainExample, Vocab, attribute_scores,
                      bias_report, build_eval_set, build_sense_map,
                      build_train_examples, bm25_retrieve, generate_synthetic,
                      listwise_loss, load_checkpoint,
                      rank_all, read_qrels, read_ranking, save_checkpoint,
                      sweep_lambda, train, write_qrels, write_run)
from backrank import numkernel as nk
from backrank.metrics import FEMALE_TERMS, MALE_TERMS
from backrank.senses import default_pairs_path, load_polarity_lexicon
from helpers import (build_planted_model, central_diff_error, effectiveness, forward_triple_loop,
                     logits, read_run)


def _verdict(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. the all-ones sense map is the identity


def test_criterion_1_identity_map():
    """All-ones reweighting equals the plain forward pass, elementwise and
    in end-to-end rankings, across 100 random (model, input) pairs."""
    t0 = time.monotonic()
    worst = 0.0
    for trial in range(100):
        rng = SplitMix64(trial)
        heads = 1 + rng.randint(2)
        d = heads * (2 + rng.randint(6))
        k = 1 + rng.randint(6)
        cfg = BackpackConfig(vocab_size=12, embed_dim=d, num_senses=k,
                             sense_hidden=1 + rng.randint(3),
                             context_heads=heads, max_seq_len=8)
        model = Backpack(cfg, seed=trial)
        ids = [rng.randint(12) for _ in range(1 + rng.randint(8))]
        plain = model.forward([ids])
        ones = model.forward([ids], (1.0,) * k)
        worst = max(worst, float(np.max(np.abs(plain - ones))))
    assert worst <= 1e-12

    # end-to-end: rankings under the identity map are the same permutation
    mismatched = 0
    for trial in range(10):
        cfg = SynthConfig(seed=trial, num_queries=10, docs_per_query=6,
                          relevant_per_query=1, vocab_size=40)
        coll = generate_synthetic(cfg)
        vocab = Vocab.build(list(coll.docs.values()) + list(coll.queries.values()))
        mcfg = BackpackConfig(vocab_size=len(vocab), embed_dim=8, num_senses=4,
                              sense_hidden=2, context_heads=2, max_seq_len=24)
        model = Backpack(mcfg, seed=trial)
        es = build_eval_set(coll, vocab, candidate_depth=6)
        # lambda 1 on every sense: the identity map, built with no pair scored
        [identity] = build_sense_map(model, (), vocab, (1.0,), m=4).values()
        plain = {q: rl for q, (rl,) in rank_all(model, es, ((1.0,) * 4,))}
        ones = {q: rl for q, (rl,) in rank_all(model, es, (identity,))}
        if any(plain[q].doc_ids != ones[q].doc_ids for q in plain):
            mismatched += 1
    elapsed = time.monotonic() - t0
    _verdict("criterion 1 (all-ones map is the identity)",
             worst <= 1e-12 and mismatched == 0 and elapsed < 10.0,
             f"max |diff|={worst:.2e}, ranking mismatches={mismatched}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. the aggregation equation against a scalar triple loop


def test_criterion_2_forward_oracle():
    """forward matches an independent triple-loop evaluation within 1e-12 for
    every config with n <= 3, k <= 2, d <= 4."""
    t0 = time.monotonic()
    worst = 0.0
    tried = 0
    for n in (1, 2, 3):
        for k in (1, 2):
            for d in (1, 2, 3, 4):
                for seed in range(3):
                    cfg = BackpackConfig(vocab_size=5, embed_dim=d, num_senses=k,
                                         sense_hidden=2, context_heads=1,
                                         max_seq_len=4)
                    model = Backpack(cfg, seed=seed)
                    rng = SplitMix64(1000 * n + 100 * k + 10 * d + seed)
                    ids = [rng.randint(5) for _ in range(n)]
                    got = model.forward([ids])[0]
                    want = forward_triple_loop(model, ids)
                    worst = max(worst, float(np.max(np.abs(got - want))))
                    tried += 1
    elapsed = time.monotonic() - t0
    _verdict("criterion 2 (forward equals the triple-loop oracle)",
             worst <= 1e-12 and tried >= 50 and elapsed < 5.0,
             f"{tried} parameterizations, max |diff|={worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. gradients against central finite differences


def _central_diff_param_grads(model, q, doc):
    """Max relative error of d(sigmoid(logit))/d(theta) over every parameter
    coordinate, analytic gradient vs central differences."""
    params = list(model.parameters().values())
    z, back = model.relevance_logits([model.pack_sequence(q, doc)],
                                     np.ones((1, model.config.num_senses)))
    s = nk.sigmoid(z)
    analytic = np.split(back(s * (1.0 - s)), np.cumsum([p.data.size for p in params])[:-1])
    return max(central_diff_error(lambda: nk.sigmoid(logits(model, q, [doc]))[0], p.data, a)
               for p, a in zip(params, analytic))


def test_criterion_3_gradient_suite():
    """Listwise-loss and full relevance-score gradients match central
    differences with max relative error <= 1e-4 at 20 random points."""
    t0 = time.monotonic()
    worst = 0.0

    for seed in range(10):
        rng = SplitMix64(seed)
        m = 2 + rng.randint(6)
        y = tuple(1.0 if i == rng.randint(m) else 0.0 for i in range(m))
        y = y if any(y) else (1.0,) + (0.0,) * (m - 1)
        z = rng.normal_array((m,))
        worst = max(worst, central_diff_error(lambda: listwise_loss(y, z)[0], z,
                                              listwise_loss(y, z)[1]))

    cfg = BackpackConfig(vocab_size=6, embed_dim=4, num_senses=2, sense_hidden=2,
                         context_heads=1, max_seq_len=5, head_hidden=3)
    for seed in range(10):
        rng = SplitMix64(100 + seed)
        model = Backpack(cfg, seed=seed)
        q = [rng.randint(6) for _ in range(2)]
        doc = [rng.randint(6) for _ in range(2)]
        worst = max(worst, _central_diff_param_grads(model, q, doc))

    elapsed = time.monotonic() - t0
    _verdict("criterion 3 (gradients vs central differences)",
             worst <= 1e-4 and elapsed < 30.0,
             f"max rel err={worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. metric implementations against direct definition transcriptions


def _oracle_delta(doc, variant):
    if variant == "bool":
        return float(any(t in FEMALE_TERMS for t in doc)) - float(
            any(t in MALE_TERMS for t in doc))
    fem = 0.0
    for term in sorted({t for t in doc if t in FEMALE_TERMS}):
        fem += math.log(doc.count(term))
    mal = 0.0
    for term in sorted({t for t in doc if t in MALE_TERMS}):
        mal += math.log(doc.count(term))
    return fem - mal


def _oracle_rab(docs, variant, t):
    return sum(_oracle_delta(d, variant) for d in docs[:t]) / t


def _oracle_arab(docs, variant, t):
    return sum(_oracle_rab(docs, variant, x) for x in range(1, t + 1)) / t


def _reported(docs, variant, t):
    """The signed (RaB, ARaB) at cutoff t that bias_report keeps for one
    query ranking the token lists docs: what bias and sweep compute."""
    ids = [f"d{i}" for i in range(len(docs))]
    [report] = bias_report([{"q": ids}], dict(zip(ids, docs)), cutoffs=(t,))
    return report.per_query[(variant, t)][0]


def test_criterion_4_metric_oracles():
    """RaB/ARaB bit-equal, MRR exact, NDCG within 1e-12 of direct-definition
    oracles over 200 random lists, plus the worked two-document fixture."""
    t0 = time.monotonic()

    # worked fixture: ln(2)/2 and the prefix mean [DERIVED]
    fixture = [["she", "she", "runs"], ["the", "program", "ends"]]
    ok = _reported(fixture, "tf", 2) == (0.34657359027997264, 0.5198603854199589)

    words = ["she", "he", "her", "him", "woman", "man", "alpha", "beta", "gamma"]
    rng = SplitMix64(4242)
    rab_exact = mrr_exact = True
    ndcg_worst = 0.0
    for _ in range(200):
        docs = [[words[rng.randint(len(words))] for _ in range(1 + rng.randint(10))]
                for _d in range(1 + rng.randint(10))]
        t = 1 + rng.randint(len(docs))
        for variant in ("tf", "bool"):
            rab_value, arab_value = _reported(docs, variant, t)
            rab_exact &= rab_value == _oracle_rab(docs, variant, t)
            rab_exact &= arab_value == _oracle_arab(docs, variant, t)

        n = len(docs)
        ids = [f"d{i}" for i in range(n)]
        grades = {("q", d): rng.randint(3) for d in ids}
        if not any(grades.values()):
            grades[("q", ids[0])] = 1
        qr = Qrels(grades)
        order = list(ids)
        rng.shuffle(order)
        k = 1 + rng.randint(n)

        oracle_mrr = 0.0
        for i, d in enumerate(order[:k]):
            if grades[("q", d)] > 0:
                oracle_mrr = 1.0 / (i + 1)
                break
        means = effectiveness({"q": order}, qr, (k,))
        mrr_exact &= means[("mrr", k)] == oracle_mrr

        dcg = sum((2.0 ** grades[("q", d)] - 1.0) / math.log2(i + 2)
                  for i, d in enumerate(order[:k]))
        best = sorted((g for g in grades.values() if g > 0), reverse=True)
        idcg = sum((2.0 ** g - 1.0) / math.log2(i + 2) for i, g in enumerate(best[:k]))
        oracle_ndcg = dcg / idcg if idcg > 0 else 0.0
        ndcg_worst = max(ndcg_worst, abs(means[("ndcg", k)] - oracle_ndcg))

    elapsed = time.monotonic() - t0
    _verdict("criterion 4 (metrics equal direct-definition oracles)",
             ok and rab_exact and mrr_exact and ndcg_worst <= 1e-12 and elapsed < 10.0,
             f"fixture={ok}, rab/arab bit-equal={rab_exact}, mrr exact={mrr_exact}, "
             f"ndcg max |diff|={ndcg_worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. a planted gender direction is found and suppressed


def test_criterion_5_sense_detection():
    """With the contrast planted into exactly one sense, attribute scoring
    gives that sense the unique minimum and m=1 suppression picks exactly it,
    for 20 construction seeds."""
    t0 = time.monotonic()
    failures = []
    for seed in range(20):
        model, vocab, planted = build_planted_model(seed)
        scores = attribute_scores(model, [PolarityPair("she", "he")], vocab)
        others = [v for i, v in enumerate(scores.s) if i != planted]
        unique_min = scores.s[planted] < min(others) - 1e-9
        [weights] = build_sense_map(model, [PolarityPair("she", "he")], vocab, (0.5,),
                                    m=1).values()
        want = tuple(0.5 if i == planted else 1.0 for i in range(len(scores.s)))
        if not (unique_min and weights == want):
            failures.append(seed)
    elapsed = time.monotonic() - t0
    _verdict("criterion 5 (planted sense detected and suppressed)",
             not failures and elapsed < 10.0,
             f"20 seeds, failures={failures or 'none'}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. the desk-scale bias/effectiveness trade-off


def _tradeoff_for_seed(seed):
    cfg = SynthConfig(seed=seed, skew=0.9, num_queries=500, docs_per_query=20,
                      relevant_per_query=2, vocab_size=200)
    coll = generate_synthetic(cfg)
    vocab = Vocab.build(list(coll.docs.values()) + list(coll.queries.values()))
    examples = build_train_examples(coll, vocab, num_negatives=7, seed=seed,
                                    candidate_depth=20)
    mcfg = BackpackConfig(vocab_size=len(vocab), embed_dim=24, num_senses=4,
                          sense_hidden=4, context_heads=2, max_seq_len=32)
    model = Backpack(mcfg, seed=seed)
    model, _ = train(examples,
                     TrainConfig(epochs=2, learning_rate=0.015, seed=seed), model)
    maps = build_sense_map(model, load_polarity_lexicon(default_pairs_path()), vocab,
                           [1.0, 0.5], m=3)
    es = build_eval_set(coll, vocab, candidate_depth=20)
    base, damped = sweep_lambda(model, es, maps, cutoffs=(10,))
    return base, damped


def test_criterion_6_desk_scale_tradeoff():
    """On the skew-0.9 synthetic corpus (10k docs / 500 queries), suppressing
    the 3 most gender-sensitive senses at lambda 0.5 strictly lowers mean
    |ARaB|@10 (TF) in at least 4 of 5 seeds while NDCG@10 stays within 10%."""
    t0 = time.monotonic()
    wins = 0
    lines = []
    for seed in (1, 2, 3, 4, 5):
        base, damped = _tradeoff_for_seed(seed)
        bias_down = damped["arab_tf"] < base["arab_tf"]
        ndcg_ok = damped["ndcg@10"] >= 0.9 * base["ndcg@10"]
        wins += bias_down and ndcg_ok
        lines.append(
            f"seed {seed}: arab_tf {base['arab_tf']:.4f}->{damped['arab_tf']:.4f} "
            f"ndcg {base['ndcg@10']:.4f}->{damped['ndcg@10']:.4f} "
            f"{'ok' if bias_down and ndcg_ok else 'MISS'}")
    elapsed = time.monotonic() - t0
    _verdict("criterion 6 (bias drops at lambda=0.5 in >=4/5 seeds)",
             wins >= 4, f"{wins}/5 seeds, {elapsed:.0f}s\n  " + "\n  ".join(lines))


# ---------------------------------------------------------------------------
# 7. a single example can be overfit


def test_criterion_7_overfit_sanity():
    """Training on one listwise example drives the loss below 0.01 within
    500 steps."""
    t0 = time.monotonic()
    cfg = BackpackConfig(vocab_size=20, embed_dim=16, num_senses=4,
                         sense_hidden=4, context_heads=2, max_seq_len=16)
    model = Backpack(cfg, seed=0)
    rng = SplitMix64(1)
    q = tuple(3 + rng.randint(17) for _ in range(3))
    docs = tuple(tuple(3 + rng.randint(17) for _ in range(6)) for _ in range(4))
    ex = TrainExample("q", q, ("p", "n1", "n2", "n3"), docs, (1.0, 0.0, 0.0, 0.0))
    _, history = train([ex], TrainConfig(epochs=500, learning_rate=0.3, seed=0),
                       model)
    first_below = next((i + 1 for i, v in enumerate(history) if v < 0.01), None)
    elapsed = time.monotonic() - t0
    _verdict("criterion 7 (single-example overfit)",
             first_below is not None and first_below <= 500 and elapsed < 30.0,
             f"loss<0.01 at step {first_below}, final={history[-1]:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8. formats round-trip without loss


def test_criterion_8_format_round_trips(tmp_path):
    """Run and qrels files round-trip byte-identically, and read_ranking reads
    each query's written documents back in rank order; checkpoints reload to
    bit-identical scores."""
    cfg = SynthConfig(seed=6, num_queries=10, docs_per_query=8,
                      relevant_per_query=2, vocab_size=50)
    coll = generate_synthetic(cfg)

    records = []
    written = {}
    for qid in sorted(coll.queries):
        ranked = bm25_retrieve(coll.queries[qid], coll, top_n=8, query_id=qid)
        for i, (did, score) in enumerate(ranked.items):
            records.append((qid, did, i + 1, score, "accept"))
        written[qid] = ranked.doc_ids
    run_a = tmp_path / "a.run"
    run_b = tmp_path / "b.run"
    write_run(run_a, records)
    write_run(run_b, read_run(run_a))
    run_ok = run_a.read_bytes() == run_b.read_bytes()
    ranking_ok = read_ranking(run_a) == written

    qrels_a = tmp_path / "a.qrels"
    qrels_b = tmp_path / "b.qrels"
    write_qrels(qrels_a, coll.qrels)
    write_qrels(qrels_b, read_qrels(qrels_a))
    qrels_ok = qrels_a.read_bytes() == qrels_b.read_bytes()

    mcfg = BackpackConfig(vocab_size=30, embed_dim=8, num_senses=3,
                          sense_hidden=2, context_heads=2, max_seq_len=12)
    model = Backpack(mcfg, seed=9)
    path = tmp_path / "model.ckpt"
    tokens = ["<pad>", "<unk>", "<sep>"] + [f"w{i}" for i in range(3, 30)]
    save_checkpoint(path, model, tokens, {"seed": 9})
    back, _tokens, _meta = load_checkpoint(path)
    rng = SplitMix64(2)
    ckpt_ok = True
    for _ in range(20):
        q = [rng.randint(30) for _ in range(3)]
        d = [rng.randint(30) for _ in range(5)]
        ckpt_ok &= (nk.sigmoid(logits(back, q, [d]))[0]
                    == nk.sigmoid(logits(model, q, [d]))[0])

    _verdict("criterion 8 (format round-trips)",
             run_ok and ranking_ok and qrels_ok and ckpt_ok,
             f"run={run_ok}, read_ranking={ranking_ok}, qrels={qrels_ok}, "
             f"checkpoint scores bit-equal={ckpt_ok}")
