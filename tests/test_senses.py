"""Per-sense attribute scoring and suppression maps."""

import logging

import numpy as np
import pytest

from backrank import (AttributeScores, Backpack, BackpackConfig, DomainError,
                      ParseError, PolarityPair, SenseTable, SplitMix64, Vocab,
                      attribute_scores, build_sense_map, default_pairs_path,
                      load_polarity_lexicon)
from backrank import senses
from helpers import attribute_scores_reference, build_planted_model


# ---------------------------------------------------------------------------
# value types


def test_polarity_pair_terms_must_differ():
    PolarityPair("she", "he")
    with pytest.raises(DomainError):
        PolarityPair("he", "he")


def test_attribute_scores_bounds_and_ranking():
    s = AttributeScores((0.2, -0.9, 0.2, -0.9))
    assert s.ranked() == [1, 3, 0, 2]    # ties resolve to the lower index
    with pytest.raises(DomainError):
        AttributeScores(())
    with pytest.raises(DomainError):
        AttributeScores((1.5,))


# ---------------------------------------------------------------------------
# similarity and scoring


@pytest.fixture
def toy():
    vocab = Vocab(["<pad>", "<unk>", "<sep>", "he", "she", "king", "queen"])
    cfg = BackpackConfig(vocab_size=len(vocab), embed_dim=8, num_senses=3,
                         sense_hidden=2, context_heads=2, max_seq_len=8)
    return Backpack(cfg, seed=5), vocab


def _manual_cosine(model, a, b, sense):
    va = model.senses.senses_for([[a]])[0][0, sense, 0]
    vb = model.senses.senses_for([[b]])[0][0, sense, 0]
    return float(va @ vb) / (np.linalg.norm(va) * np.linalg.norm(vb))


def test_attribute_scores_match_manual_cosine(toy):
    """Each sense's score is the mean over pairs of the cosine between the
    two words' vectors, each word looked up on its own."""
    model, vocab = toy
    pairs = [PolarityPair("she", "he"), PolarityPair("queen", "king")]
    ids = [(vocab.token_id(p.negative), vocab.token_id(p.positive)) for p in pairs]
    got = attribute_scores(model, pairs, vocab).s
    assert len(got) == 3
    for sense in range(3):
        want = np.mean([_manual_cosine(model, a, b, sense) for a, b in ids])
        assert got[sense] == pytest.approx(want, abs=1e-12)


def test_attribute_scores_run_the_sense_table_once(toy, monkeypatch):
    model, vocab = toy
    calls = []
    senses_for = SenseTable.senses_for

    def counting(self, ids):
        calls.append(np.shape(ids))
        return senses_for(self, ids)

    monkeypatch.setattr(SenseTable, "senses_for", counting)
    pairs = [PolarityPair("she", "he"), PolarityPair("queen", "king")]
    attribute_scores(model, pairs, vocab)
    assert calls == [(2, 2)]


def test_zero_sense_vectors_score_zero_with_a_warning(toy, caplog):
    model, vocab = toy
    model.senses.w2.data[...] = 0.0
    model.senses.b2.data[...] = 0.0
    pairs = [PolarityPair("she", "he"), PolarityPair("queen", "king")]
    with caplog.at_level(logging.WARNING, logger="backrank.senses"):
        scores = attribute_scores(model, pairs, vocab)
    assert scores.s == (0.0, 0.0, 0.0)
    # one per (sense, pair), sense by sense, each pair in the given order
    assert [r.getMessage() for r in caplog.records] == [
        f"zero sense vector in similarity (tokens {ids}, sense {sense}); scoring 0"
        for sense in range(3) for ids in ("4/3", "6/5")]


def _random_model_and_pairs(seed, k):
    rng = SplitMix64(seed)
    words = [f"w{i}" for i in range(12)]
    vocab = Vocab(["<pad>", "<unk>", "<sep>", *words])
    model = Backpack(BackpackConfig(vocab_size=len(vocab), embed_dim=6, num_senses=k,
                                    sense_hidden=2, context_heads=1, max_seq_len=8), seed=seed)
    model.senses.b2.data[...] = rng.normal_array(model.senses.b2.data.shape, 0.3)
    return model, vocab, [PolarityPair(*rng.sample(words, 2)) for _ in range(1 + rng.randint(30))]


@pytest.mark.parametrize("k", [1, 4, 16])
def test_attribute_scores_equal_the_per_pair_cosine_loop(k, caplog):
    """The one array pass gives each score bit for bit as one 1-D cosine
    per (sense, pair) does, summed in sorted order: on random models with
    1 to 30 pairs, with a token whose every sense vector is zero, with the
    senses zeroed, and on the planted model, whose cosines reach the clamp."""
    for seed in range(12):
        model, vocab, pairs = _random_model_and_pairs(seed, k)
        assert attribute_scores(model, pairs, vocab).s == \
            attribute_scores_reference(model, pairs, vocab)
        # tanh(0) = 0 and b2 = 0: the token of the first pair's first term
        # has zero sense vectors, every other token (almost surely) has not
        model.senses.b1.data[...] = 0.0
        model.senses.b2.data[...] = 0.0
        model.senses.base.data[vocab.token_id(pairs[0].negative)] = 0.0
        with caplog.at_level(logging.WARNING, logger="backrank.senses"):
            got = attribute_scores(model, pairs, vocab).s
        assert got == attribute_scores_reference(model, pairs, vocab)
        assert caplog.records
        caplog.clear()
        model.senses.w2.data[...] = 0.0
        with caplog.at_level(logging.WARNING, logger="backrank.senses"):
            assert attribute_scores(model, pairs, vocab).s == (0.0,) * k
        assert len(caplog.records) == k * len(pairs)
        caplog.clear()
    model, vocab, _ = build_planted_model(seed=123, k=k)
    pairs = [PolarityPair("she", "he"), PolarityPair("cat", "dog"), PolarityPair("he", "dog")]
    assert attribute_scores(model, pairs, vocab).s == \
        attribute_scores_reference(model, pairs, vocab)


def test_attribute_scores_permutation_invariant(toy):
    model, vocab = toy
    pairs = [PolarityPair("she", "he"), PolarityPair("queen", "king")]
    fwd = attribute_scores(model, pairs, vocab)
    rev = attribute_scores(model, list(reversed(pairs)), vocab)
    assert fwd.s == rev.s


def test_attribute_scores_validates(toy):
    model, vocab = toy
    with pytest.raises(DomainError):
        attribute_scores(model, [], vocab)
    with pytest.raises(DomainError):
        attribute_scores(model, [PolarityPair("she", "ghost")], vocab)
    # a vocabulary larger than the model's: its ids never pass through Backpack._pad
    wider = Vocab([*vocab.tokens, "ghost"])
    with pytest.raises(DomainError, match="^vocabulary does not match the model$"):
        attribute_scores(model, [PolarityPair("she", "ghost")], wider)


def test_planted_sense_is_detected_and_suppressed():
    model, vocab, planted = build_planted_model(seed=123)
    scores = attribute_scores(model, [PolarityPair("she", "he")], vocab)
    assert scores.ranked()[0] == planted
    assert scores.s[planted] == pytest.approx(-1.0, abs=1e-9)
    others = [v for i, v in enumerate(scores.s) if i != planted]
    assert min(others) > scores.s[planted] + 0.5
    maps = build_sense_map(model, [PolarityPair("she", "he")], vocab, (0.4,), m=1)
    assert maps == {0.4: tuple(0.4 if i == planted else 1.0 for i in range(len(scores.s)))}


# ---------------------------------------------------------------------------
# map construction


def test_build_sense_map_selection_and_ties(monkeypatch):
    """One weight tuple per lambda, in the given order, from one scoring of
    the pairs; m defaults to 2 below lambda 1 and to 0 at 1, and the pairs
    are scored only when some sense is scaled."""
    model = Backpack(BackpackConfig(vocab_size=7, embed_dim=8, num_senses=4, sense_hidden=2,
                                    context_heads=2, max_seq_len=8), seed=5)
    calls = []
    monkeypatch.setattr(senses, "attribute_scores", lambda *args: calls.append(args)
                        or AttributeScores((-0.5, 0.9, -0.5, -0.8)))
    # most negative (3), then the tie at the lower index (0)
    maps = build_sense_map(model, "pairs", "vocab", (0.5, 1.0, 0.2), m=2)
    assert list(maps.items()) == [(0.5, (0.5, 1.0, 1.0, 0.5)), (1.0, (1.0,) * 4),
                                  (0.2, (0.2, 1.0, 1.0, 0.2))]
    assert calls == [(model, "pairs", "vocab")]
    assert build_sense_map(model, "pairs", "vocab", (0.5,)) == {0.5: (0.5, 1.0, 1.0, 0.5)}
    calls.clear()
    assert build_sense_map(model, "pairs", "vocab", (0.5,), m=0) == {0.5: (1.0,) * 4}
    assert build_sense_map(model, "pairs", "vocab", (1.0,), m=2) == {1.0: (1.0,) * 4}
    assert build_sense_map(model, "pairs", "vocab", (1.0,)) == {1.0: (1.0,) * 4}
    assert calls == []


def test_build_sense_map_validates(toy):
    """A lambda outside (0, 1], and an explicit m that is not an int in
    [0, k] at any lambda, are DomainErrors; at lambda 1 no pair need be in
    the vocabulary."""
    model, vocab = toy
    pairs = [PolarityPair("she", "he")]
    with pytest.raises(DomainError):
        build_sense_map(model, pairs, vocab, (0.0,), m=1)
    with pytest.raises(DomainError):
        build_sense_map(model, pairs, vocab, (1.1,), m=1)
    for lam in (0.5, 1.0):
        for m in (4, -1):
            with pytest.raises(DomainError, match=r"^m must be in \[0, 3\]$"):
                build_sense_map(model, pairs, vocab, (lam,), m=m)
        for m in (2.0, True):
            with pytest.raises(DomainError, match=rf"^m must be an int, got {m!r}$"):
                build_sense_map(model, pairs, vocab, (lam,), m=m)
    assert build_sense_map(model, [PolarityPair("witch", "wizard")], vocab, (1.0,), m=3) == {
        1.0: (1.0,) * 3}
    with pytest.raises(DomainError, match="needs at least one polarity pair"):
        build_sense_map(model, [PolarityPair("witch", "wizard")], vocab, (1.0, 0.5))


# ---------------------------------------------------------------------------
# lexicon parsing


def test_load_polarity_lexicon(tmp_path):
    p = tmp_path / "pairs.txt"
    p.write_text("# header comment\nshe he\n\nqueen king  # trailing\nshe he\n")
    pairs = load_polarity_lexicon(p)
    assert pairs == [PolarityPair("she", "he"), PolarityPair("queen", "king")]


def test_attribute_scores_drops_oov_pairs_with_one_warning(toy, tmp_path, caplog):
    """The lexicon keeps every pair; attribute_scores drops each pair with a
    term outside the vocabulary and counts the drops in one warning."""
    model, vocab = toy
    p = tmp_path / "pairs.txt"
    p.write_text("she he\nwitch wizard\nqueen ghost\n")
    pairs = load_polarity_lexicon(p)
    assert len(pairs) == 3
    want = attribute_scores(model, [PolarityPair("she", "he")], vocab)
    assert not caplog.records
    with caplog.at_level(logging.WARNING, logger="backrank.senses"):
        assert attribute_scores(model, pairs, vocab) == want
    assert [r.getMessage() for r in caplog.records] == [
        "dropped 2 polarity pairs with out-of-vocabulary terms"]


def test_load_polarity_lexicon_errors(tmp_path):
    p = tmp_path / "pairs.txt"
    p.write_text("she he extra\n")
    with pytest.raises(ParseError):
        load_polarity_lexicon(p)
    p.write_text("he he\n")
    with pytest.raises(ParseError):
        load_polarity_lexicon(p)


def test_default_pairs_ship_with_package():
    path = default_pairs_path()
    pairs = load_polarity_lexicon(path)
    assert len(pairs) >= 5
    assert PolarityPair("he", "she") in pairs
