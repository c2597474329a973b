"""Shared fixtures-in-code for the model-layer tests."""

import numpy as np

from backrank import Backpack, BackpackConfig, SplitMix64, Tensor, Vocab


def build_planted_model(seed, k=4, p=2, d=8):
    """A toy model where exactly one sense channel encodes the he/she contrast.

    The construction exploits the sense-table structure directly:

    - ``he`` and ``she`` get antipodal base embeddings along a random unit
      direction u.
    - The planted channel's first-layer columns read u with zero bias, so its
      tanh output flips sign between the two words and the resulting sense
      vectors are antipodal (pair cosine -1).
    - Every other channel's first-layer block is zeroed with a nonzero random
      bias, so its output is the same constant vector for every token (pair
      cosine +1).

    Returns (model, vocab, planted_sense_index).
    """
    rng = SplitMix64(seed)
    vocab = Vocab(["<pad>", "<unk>", "<sep>", "he", "she", "cat", "dog"])
    cfg = BackpackConfig(vocab_size=len(vocab), embed_dim=d, num_senses=k,
                         sense_hidden=p, context_heads=1, max_seq_len=8)
    model = Backpack(cfg, seed=seed)
    planted = rng.randint(k)

    u = rng.normal_array((d,), 1.0)
    u /= np.linalg.norm(u)
    base = rng.normal_array((len(vocab), d), 0.1)
    base[vocab.token_id("he")] = 2.0 * u
    base[vocab.token_id("she")] = -2.0 * u

    w1 = np.zeros((d, k * p))
    b1 = rng.normal_array((k * p,), 0.5)
    for col in range(p):
        w1[:, planted * p + col] = u * (1.0 + 0.5 * col)
    b1[planted * p:(planted + 1) * p] = 0.0
    w2 = rng.normal_array((k, p, d), 0.5)

    model.set_param("sense.base", Tensor(base, requires_grad=True))
    model.set_param("sense.w1", Tensor(w1, requires_grad=True))
    model.set_param("sense.b1", Tensor(b1, requires_grad=True))
    model.set_param("sense.w2", Tensor(w2, requires_grad=True))
    return model, vocab, planted


def forward_triple_loop(model, token_ids):
    """Independent evaluation of the aggregation sum, one scalar at a time."""
    alpha = model.context.alpha([list(token_ids)]).data[0]
    senses = model.senses.senses_for([list(token_ids)]).data[0]
    k, n, d = senses.shape
    out = np.zeros((n, d))
    for i in range(n):
        for l in range(k):
            for j in range(n):
                for c in range(d):
                    out[i, c] += alpha[l, i, j] * senses[l, j, c]
    return out
