"""backrank: a desk-scale Backpack-style neural ranker with an inference-time
gender-bias control, plus the retrieval and fairness evaluation tooling
around it (BM25 first stage, MRR/NDCG, RaB/ARaB, synthetic corpora)."""

from .backpack import (
    Backpack,
    BackpackConfig,
    RelevanceHead,
    SenseTable,
    aggregate,
    load_checkpoint,
    save_checkpoint,
)
from .corpus import (
    Collection,
    EvalSet,
    RankedList,
    SynthConfig,
    TrainExample,
    Vocab,
    bm25_retrieve,
    build_eval_set,
    build_train_examples,
    generate_synthetic,
    load_collection,
    read_qrels,
    read_ranking,
    tokenize,
    write_collection,
    write_qrels,
    write_run,
)
from .errors import BackrankError, DomainError, ParseError, ShapeError
from .metrics import (
    BiasReport,
    Qrels,
    bias_report,
    mag_bool,
)
from .numkernel import Tensor
from .ranker import (
    TrainConfig,
    listwise_loss,
    rank_all,
    sweep_lambda,
    train,
)
from .rng import SplitMix64
from .senses import (
    AttributeScores,
    PolarityPair,
    attribute_scores,
    build_sense_map,
    default_pairs_path,
    load_polarity_lexicon,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AttributeScores", "Backpack", "BackpackConfig", "BackrankError",
    "BiasReport", "Collection",
    "DomainError", "EvalSet", "ParseError",
    "PolarityPair", "Qrels", "RankedList", "RelevanceHead",
    "SenseTable", "ShapeError", "SplitMix64", "SynthConfig",
    "Tensor", "TrainConfig", "TrainExample", "Vocab",
    "aggregate", "attribute_scores", "bias_report",
    "bm25_retrieve", "build_eval_set", "build_sense_map",
    "build_train_examples", "default_pairs_path",
    "generate_synthetic", "listwise_loss", "load_checkpoint",
    "load_collection", "load_polarity_lexicon", "mag_bool", "rank_all",
    "read_qrels", "read_ranking", "save_checkpoint", "sweep_lambda",
    "tokenize", "train", "write_collection", "write_qrels", "write_run",
]
