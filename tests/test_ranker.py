"""Listwise training loop, ranking, and the lambda sweep."""

import numpy as np
import pytest

from backrank import (Backpack, BackpackConfig, DomainError, RankedList,
                      ShapeError, SplitMix64, SynthConfig, Tensor, TrainConfig,
                      TrainExample, Vocab, attribute_scores, bias_report,
                      build_eval_set, build_sense_map, build_train_examples,
                      generate_synthetic, listwise_loss, mean_metric, rank,
                      rank_all, sweep_lambda, train)
from backrank.backpack import ContextEncoder
from backrank.ranker import SWEEP_COLUMNS
from backrank.senses import PolarityPair
from backrank import Tape, backward, finite_diff_check
from backrank.numkernel import reset_grads


@pytest.fixture
def tiny_model():
    cfg = BackpackConfig(vocab_size=30, embed_dim=8, num_senses=2,
                         sense_hidden=2, context_heads=2, max_seq_len=16)
    return Backpack(cfg, seed=3)


def make_example(rng, vocab_size=30, n_docs=4):
    q = tuple(3 + rng.randint(vocab_size - 3) for _ in range(3))
    docs = tuple(tuple(3 + rng.randint(vocab_size - 3) for _ in range(5))
                 for _ in range(n_docs))
    ids = tuple(f"d{i}" for i in range(n_docs))
    labels = (1.0,) + (0.0,) * (n_docs - 1)
    return TrainExample("q", q, ids, docs, labels)


# ---------------------------------------------------------------------------
# value types


def test_train_example_validation():
    with pytest.raises(DomainError):
        TrainExample("q", (1,), ("a",), ((1, 2),), (1.0,))           # 1 candidate
    with pytest.raises(DomainError):
        TrainExample("q", (1,), ("a", "b"), ((1,), (2,)), (0.0, 0.0))  # no positive
    with pytest.raises(DomainError):
        TrainExample("q", (1,), ("a", "b"), ((1,), (2,)), (1.0, -1.0))
    with pytest.raises(DomainError):
        TrainExample("q", (1,), ("a", "b"), ((1,), (2,)), (1.0,))    # misaligned


def test_train_config_validation():
    TrainConfig(learning_rate=0.0)    # zero is allowed: a no-op run
    with pytest.raises(DomainError):
        TrainConfig(epochs=0)
    with pytest.raises(DomainError):
        TrainConfig(learning_rate=-1e-3)
    with pytest.raises(DomainError):
        TrainConfig(batch_size=0)


def test_ranked_list_validation():
    RankedList("q", (("a", 2.0), ("b", 1.0), ("c", 1.0)))
    with pytest.raises(DomainError):
        RankedList("q", (("a", 1.0), ("a", 0.5)))
    with pytest.raises(DomainError):
        RankedList("q", (("a", 1.0), ("b", 2.0)))
    # every comparison with NaN is false, so the ordering check alone passes it
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(DomainError):
            RankedList("q", (("a", 1.0), ("b", bad), ("c", 2.0)))


# ---------------------------------------------------------------------------
# loss


def test_listwise_loss_hand_value():
    # two equal scores, one positive label: -log(1/2)
    loss = listwise_loss((1.0, 0.0), Tensor(np.array([0.0, 0.0])))
    assert loss.item() == pytest.approx(np.log(2.0), abs=1e-15)


def test_listwise_loss_matches_manual_softmax():
    rng = SplitMix64(9)
    for _ in range(20):
        n = 2 + rng.randint(6)
        y = np.array([1.0] + [0.0] * (n - 1))
        z = rng.normal_array((n,))
        manual = -float(y @ (z - np.log(np.exp(z - z.max()).sum()) - z.max()))
        got = listwise_loss(tuple(y), Tensor(z)).item()
        assert got == pytest.approx(manual, abs=1e-12)


def test_listwise_loss_validation():
    with pytest.raises(DomainError):
        listwise_loss((0.0, 0.0), Tensor(np.zeros(2)))
    with pytest.raises(DomainError):
        listwise_loss((1.0, -1.0), Tensor(np.zeros(2)))
    with pytest.raises(ShapeError):
        listwise_loss((1.0, 0.0), Tensor(np.zeros(3)))
    with pytest.raises(ShapeError):
        listwise_loss((1.0, 0.0), Tensor(np.zeros((2, 2))))


def test_listwise_loss_gradient():
    y = (0.0, 1.0, 0.0)
    for seed in range(5):
        z = Tensor(SplitMix64(seed).normal_array((3,)))
        assert finite_diff_check(lambda t: listwise_loss(y, t), z) < 1e-8


# ---------------------------------------------------------------------------
# training loop


def test_train_reduces_loss(tiny_model):
    rng = SplitMix64(4)
    dataset = [make_example(rng) for _ in range(6)]
    _, history = train(dataset, TrainConfig(epochs=8, learning_rate=0.1, seed=0),
                       tiny_model)
    assert len(history) == 8 * len(dataset)
    first = sum(history[:6]) / 6
    last = sum(history[-6:]) / 6
    assert last < first * 0.8


def test_train_is_deterministic():
    def run():
        cfg = BackpackConfig(vocab_size=30, embed_dim=8, num_senses=2,
                             sense_hidden=2, context_heads=2, max_seq_len=16)
        model = Backpack(cfg, seed=3)
        rng = SplitMix64(4)
        dataset = [make_example(rng) for _ in range(4)]
        model, history = train(dataset, TrainConfig(epochs=2, learning_rate=0.05,
                                                    seed=7), model)
        return history, {n: t.data.copy() for n, t in model.parameters().items()}

    h1, p1 = run()
    h2, p2 = run()
    assert h1 == h2
    assert all(np.array_equal(p1[n], p2[n]) for n in p1)


def test_zero_learning_rate_changes_nothing(tiny_model):
    rng = SplitMix64(4)
    dataset = [make_example(rng) for _ in range(3)]
    before = {n: t.data.copy() for n, t in tiny_model.parameters().items()}
    _, history = train(dataset, TrainConfig(epochs=2, learning_rate=0.0, seed=0),
                       tiny_model)
    after = tiny_model.parameters()
    assert all(np.array_equal(before[n], after[n].data) for n in before)
    # same parameters every step: per-example losses repeat across epochs
    assert sorted(history[:3]) == sorted(history[3:])


def test_listwise_gradient_through_ragged_batch():
    """The tape gradient of the listwise loss over one ragged 3-document
    batch (one document past the budget) matches central differences."""
    cfg = BackpackConfig(vocab_size=6, embed_dim=4, num_senses=2, sense_hidden=2,
                         context_heads=1, max_seq_len=6, head_hidden=3)
    model = Backpack(cfg, seed=4)
    q, docs, y = (1, 2), ((3,), (4, 5, 3), (5, 4, 3, 2, 1)), (0.0, 1.0, 0.0)

    def loss():
        return listwise_loss(y, model.relevance_logit(q, docs))

    params = model.parameters()
    with Tape() as tape:
        value = loss()
    backward(tape, value)
    eps, worst = 1e-5, 0.0
    for p in params.values():
        analytic = (p.grad if p.grad is not None else np.zeros_like(p.data)).ravel()
        flat = p.data.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            hi = loss().item()
            flat[i] = keep - eps
            lo = loss().item()
            flat[i] = keep
            fd = (hi - lo) / (2.0 * eps)
            worst = max(worst, abs(analytic[i] - fd) / max(1.0, abs(analytic[i])))
    reset_grads(list(params.values()))
    assert worst <= 1e-4


def test_train_rejects_empty_dataset(tiny_model):
    with pytest.raises(DomainError):
        train([], TrainConfig(), tiny_model)


# ---------------------------------------------------------------------------
# ranking


def test_rank_orders_by_score_then_id(tiny_model):
    cands = [("b", (5, 6)), ("a", (5, 6)), ("c", (9, 9))]
    ranked = rank(tiny_model, "q1", (3, 4), cands)
    assert len(ranked) == 3
    # identical token lists score identically; id breaks the tie
    pos_a, pos_b = ranked.doc_ids.index("a"), ranked.doc_ids.index("b")
    assert pos_a < pos_b
    assert ranked.scores == sorted(ranked.scores, reverse=True)


def test_rank_requires_candidates(tiny_model):
    with pytest.raises(DomainError):
        rank(tiny_model, "q1", (3,), [])


@pytest.fixture(scope="module")
def synth_setup():
    cfg = SynthConfig(seed=2, num_queries=20, docs_per_query=8,
                      relevant_per_query=2, vocab_size=60)
    coll = generate_synthetic(cfg)
    vocab = Vocab.build(list(coll.docs.values()) + list(coll.queries.values()))
    mcfg = BackpackConfig(vocab_size=len(vocab), embed_dim=8, num_senses=4,
                          sense_hidden=2, context_heads=2, max_seq_len=24)
    model = Backpack(mcfg, seed=1)
    eval_set = build_eval_set(coll, vocab, candidate_depth=8)
    return model, vocab, coll, eval_set


def test_rank_all_covers_sorted_queries(synth_setup):
    model, _, _, eval_set = synth_setup
    ranked = rank_all(model, eval_set)
    assert list(ranked) == sorted(eval_set.queries)
    for qid, rl in ranked.items():
        assert rl.query_id == qid
        assert set(rl.doc_ids) == {d for d, _ in eval_set.candidates[qid]}


def test_sweep_identity_row_equals_direct_evaluation(synth_setup):
    """The lambda=1.0 sweep row must be bit-equal to an unmitigated eval."""
    model, vocab, _, eval_set = synth_setup
    scores = attribute_scores(model, [PolarityPair("she", "he")], vocab)
    rows = sweep_lambda(model, eval_set, scores, [1.0, 0.5], cutoffs=(5,), m=2)
    assert len(rows) == 2
    assert set(rows[0]) == set(SWEEP_COLUMNS)

    ranked = {qid: rl.doc_ids for qid, rl in rank_all(model, eval_set).items()}
    report = bias_report(ranked, eval_set.doc_tokens, cutoffs=(5,))
    base = rows[0]
    assert base["lambda"] == 1.0
    assert base["mrr@10"] == mean_metric(ranked, eval_set.qrels, "mrr", 10)
    assert base["ndcg@10"] == mean_metric(ranked, eval_set.qrels, "ndcg", 10)
    assert base["rab_tf"] == report.mean_rab[("tf", 5)]
    assert base["arab_tf"] == report.mean_arab[("tf", 5)]
    assert base["rab_bool"] == report.mean_rab[("bool", 5)]
    assert base["arab_bool"] == report.mean_arab[("bool", 5)]


def test_sweep_rows_equal_rank_all_under_each_lambda(synth_setup):
    """Every row of a 3-lambda sweep is bit-equal to ranking the whole eval
    set under that lambda's sense map and evaluating it directly."""
    model, vocab, _, eval_set = synth_setup
    scores = attribute_scores(model, [PolarityPair("she", "he")], vocab)
    lambdas, cutoffs = [1.0, 0.6, 0.3], (3, 5)
    rows = sweep_lambda(model, eval_set, scores, lambdas, cutoffs=cutoffs, m=2)

    expected = []
    for lam in lambdas:
        ranked = {qid: rl.doc_ids for qid, rl in
                  rank_all(model, eval_set, build_sense_map(scores, lam, 2)).items()}
        mrr = mean_metric(ranked, eval_set.qrels, "mrr", 10)
        ndcg = mean_metric(ranked, eval_set.qrels, "ndcg", 10)
        report = bias_report(ranked, eval_set.doc_tokens, cutoffs=cutoffs)
        for cutoff in cutoffs:
            expected.append({
                "lambda": lam, "mrr@10": mrr, "ndcg@10": ndcg,
                "rab_tf": report.mean_rab[("tf", cutoff)],
                "arab_tf": report.mean_arab[("tf", cutoff)],
                "rab_bool": report.mean_rab[("bool", cutoff)],
                "arab_bool": report.mean_arab[("bool", cutoff)],
                "cutoff": cutoff,
            })
    assert rows == expected
    assert len({(r["rab_tf"], r["arab_tf"]) for r in rows}) > 2   # the lambdas differ


def test_sweep_runs_the_encoder_once_per_query(synth_setup, monkeypatch):
    """The encoder's cost does not grow with the number of lambdas."""
    model, vocab, _, eval_set = synth_setup
    scores = attribute_scores(model, [PolarityPair("she", "he")], vocab)
    calls = []
    alpha = ContextEncoder.alpha

    def counting(self, ids):
        calls.append(len(ids))
        return alpha(self, ids)

    monkeypatch.setattr(ContextEncoder, "alpha", counting)
    for lambdas in ([1.0], [1.0, 0.7, 0.5, 0.3]):
        calls.clear()
        sweep_lambda(model, eval_set, scores, lambdas, cutoffs=(5,), m=2)
        assert calls == [len(eval_set.candidates[q]) for q in sorted(eval_set.queries)]


def test_sweep_suppression_changes_rankings(synth_setup):
    model, vocab, _, eval_set = synth_setup
    scores = attribute_scores(model, [PolarityPair("she", "he")], vocab)
    smap = build_sense_map(scores, 0.3, m=2)
    plain = rank_all(model, eval_set)
    damped = rank_all(model, eval_set, smap)
    changed = sum(plain[q].scores != damped[q].scores for q in plain)
    assert changed > 0


def test_sweep_validates_lambdas(synth_setup):
    model, vocab, _, eval_set = synth_setup
    scores = attribute_scores(model, [PolarityPair("she", "he")], vocab)
    with pytest.raises(DomainError):
        sweep_lambda(model, eval_set, scores, [])
    with pytest.raises(DomainError):
        sweep_lambda(model, eval_set, scores, [0.0])


def test_training_example_pipeline_end_to_end(synth_setup):
    """Queries gain effectiveness after a few epochs on their own corpus."""
    model, vocab, coll, eval_set = synth_setup
    examples = build_train_examples(coll, vocab, num_negatives=3, seed=2,
                                    candidate_depth=8)
    fresh = Backpack(model.config, seed=6)
    before = mean_metric({q: r.doc_ids for q, r in rank_all(fresh, eval_set).items()},
                         eval_set.qrels, "ndcg", 10)
    fresh, _ = train(examples, TrainConfig(epochs=3, learning_rate=0.05, seed=2), fresh)
    after = mean_metric({q: r.doc_ids for q, r in rank_all(fresh, eval_set).items()},
                        eval_set.qrels, "ndcg", 10)
    assert after > before
