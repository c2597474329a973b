"""Scoring sense vectors for attribute sensitivity and building sense maps.

For an opposite-gender word pair (negative, positive), the cosine between the
two words' l-th sense vectors says how that sense treats the pair: near +1
means the sense ignores the contrast, near -1 means the sense encodes it with
opposite signs. Averaging over a pair lexicon gives a per-sense score s_l;
the most negative senses are the most gender-sensitive, and a sense map, a
tuple of per-sense weights, gives those lambda < 1 (all others 1) for
inference-time suppression.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DomainError, ParseError, read_lines
from .metrics import distinct

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PolarityPair:
    """An opposite-attribute word pair; terms must differ."""

    negative: str
    positive: str

    def __post_init__(self):
        if self.negative == self.positive:
            raise DomainError(f"polarity pair terms must be distinct: {self.negative!r}")


@dataclass(frozen=True)
class AttributeScores:
    """Per-sense mean pair cosine; lower (more negative) = more sensitive."""

    s: tuple[float, ...]

    def __post_init__(self):
        if not self.s:
            raise DomainError("attribute scores must cover at least one sense")
        for v in self.s:
            if not -1.0 <= v <= 1.0:
                raise DomainError(f"attribute score {v} outside [-1, 1]")

    def ranked(self) -> list[int]:
        """Sense indices from most to least sensitive; ties favor lower index."""
        return sorted(range(len(self.s)), key=lambda i: (self.s[i], i))


def attribute_scores(model, pairs: Sequence[PolarityPair], vocab) -> AttributeScores:
    """Mean pair cosine per sense, from one sense-table pass over every pair.

    ``vocab`` is anything with ``__contains__`` and ``token_id``. A pair with
    a term outside it is dropped, and the drops are counted in one warning;
    at least one pair must remain. Pair order never matters: per-sense
    similarities are sorted before summation so the mean is reproducible bit
    for bit under permutation. A zero sense vector scores 0 with a warning:
    an untrained toy model can produce one, and 0 reads as "uninformative"
    rather than aborting.
    """
    kept = [p for p in pairs if p.negative in vocab and p.positive in vocab]
    if len(kept) < len(pairs):
        log.warning("dropped %d polarity pairs with out-of-vocabulary terms",
                    len(pairs) - len(kept))
    if not kept:
        raise DomainError("attribute_scores needs at least one polarity pair")
    ids = np.array([[vocab.token_id(p.negative), vocab.token_id(p.positive)] for p in kept])
    if ids.min() < 0 or ids.max() >= model.config.vocab_size:    # _pad is not on this path
        raise DomainError("vocabulary does not match the model")
    vecs = model.senses.senses_for(ids)[0]    # pairs x k x 2 x d
    a, b = vecs[:, :, 0, None, :], vecs[:, :, 1, None, :]    # pairs x k x 1 x d
    # a stacked 1 x d @ d x 1 product is the 1-D dot u @ v, bit for bit
    ab, aa, bb = ((u @ v.swapaxes(-1, -2))[..., 0, 0] for u, v in ((a, b), (a, a), (b, b)))
    na, nb = np.sqrt(aa), np.sqrt(bb)
    zero = (na == 0.0) | (nb == 0.0)    # pairs x k
    for sense, p in zip(*np.nonzero(zero.T)):
        log.warning("zero sense vector in similarity (tokens %d/%d, sense %d); scoring 0",
                    ids[p][0], ids[p][1], sense)
    cos = np.divide(ab, na * nb, out=np.zeros(zero.shape), where=~zero)
    scores = [sum(sorted(col)) / len(col) for col in np.clip(cos, -1.0, 1.0).T.tolist()]
    return AttributeScores(tuple(scores))


def build_sense_map(model, pairs: Sequence[PolarityPair], vocab, lambdas: Sequence[float],
                    m: int | None = None) -> dict[float, tuple[float, ...]]:
    """Per-sense weights for each of ``lambdas``, keyed by lambda in the given
    order: lambda on the m senses of ``model`` that ``attribute_scores``
    ranks most sensitive under ``pairs``, 1.0 on every other sense.

    The lambdas must be distinct and in (0, 1]. m defaults to 2 when some
    lambda is below 1 and to 0 when every lambda is 1, and must be an int
    in [0, k]. The pairs are scored only when some lambda is below 1 and m > 0,
    so lambda = 1 gives the all-ones (identity) weights whatever the
    vocabulary holds. Ties on the score go to the lower sense index.
    """
    lambdas = distinct("lambdas", lambdas)
    if not all(0.0 < lam <= 1.0 for lam in lambdas):
        raise DomainError(f"lambda must be in (0, 1], got {lambdas}")
    damped = min(lambdas) < 1.0
    k = model.config.num_senses
    m = (2 if damped else 0) if m is None else m
    if type(m) is not int:
        raise DomainError(f"m must be an int, got {m!r}")
    if not 0 <= m <= k:
        raise DomainError(f"m must be in [0, {k}]")
    suppressed = attribute_scores(model, pairs, vocab).ranked()[:m] if damped and m else ()
    return {lam: tuple(lam if i in suppressed else 1.0 for i in range(k)) for lam in lambdas}


# ---------------------------------------------------------------------------
# lexicon files


def load_polarity_lexicon(path) -> list[PolarityPair]:
    """Parse a pair-per-line lexicon: ``negative positive``, # comments allowed.

    Duplicate pairs collapse to the first occurrence. Every pair is kept:
    ``attribute_scores`` drops those a vocabulary does not hold.
    """
    pairs: list[PolarityPair] = []
    seen: set[tuple[str, str]] = set()
    for lineno, raw in read_lines(path):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'negative positive', got {len(parts)} fields",
                             path=str(path), line=lineno)
        neg, pos = parts[0].lower(), parts[1].lower()
        if neg == pos:
            raise ParseError(f"pair terms must be distinct: {neg!r}",
                             path=str(path), line=lineno)
        if (neg, pos) in seen:
            continue
        seen.add((neg, pos))
        pairs.append(PolarityPair(neg, pos))
    return pairs


def default_pairs_path() -> Path:
    """Location of the built-in English gendered pair list."""
    return Path(str(resources.files("backrank").joinpath("data/gender_pairs.txt")))
