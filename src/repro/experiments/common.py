"""Shared experiment harness: worlds, model factories, training wrappers.

A :class:`World` bundles everything one experiment needs — the synthesised
corpus, the seen/unseen domain split (§IV-B), the 80/10/10 random splits, the
vocabulary and (lazily) trained GloVe vectors.  Worlds are cached per scale so
a benchmark session builds each corpus once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..core.evaluation import (
    ExtractionMetrics,
    GenerationMetrics,
    evaluate_extraction,
    evaluate_generation,
)
from ..core.training import TrainConfig, Trainer
from ..data.corpus import Corpus, Document, SplitBundle
from ..data.embeddings import GloveModel, train_glove
from ..data.synthesizer import DatasetConfig, build_corpus
from ..data.vocab import Vocabulary
from ..distill.dual import DistillConfig
from ..distill.topics import TopicPhraseBank
from ..models.encoders import (
    BertEncoder,
    BertSumEncoder,
    DocumentEncoder,
    GloveEncoder,
    truncate_document,
)
from ..models.joint_wb import JointWBModel
from ..models.joint_baselines import make_joint_model
from ..models.single_task import SingleTaskExtractor, SingleTaskGenerator
from .config import ExperimentScale

__all__ = [
    "World",
    "build_world",
    "get_world",
    "clear_world_cache",
    "get_trained",
    "trained_joint",
    "compositional_topic_ids",
    "make_encoder",
    "make_single_extractor",
    "make_single_generator",
    "make_joint",
    "train_model",
    "make_topic_bank",
    "distill_config",
    "generation_metrics",
    "extraction_metrics",
]


@dataclass
class World:
    """Everything an experiment consumes, built once per scale."""

    scale: ExperimentScale
    corpus: Corpus
    seen: Corpus
    unseen: Corpus
    vocabulary: Vocabulary
    seen_split: SplitBundle
    unseen_split: SplitBundle
    _glove: Optional[GloveModel] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    @property
    def seen_topic_phrases(self) -> List[Tuple[str, ...]]:
        """Phrases of the seen topics — the ``r`` known topics of the bank."""
        return [self.corpus.topic_phrases[t] for t in self.seen.topic_ids]

    def glove(self) -> GloveModel:
        """Train (once) and return GloVe vectors aligned with the vocabulary."""
        if self._glove is None:
            sentences = [s for d in self.seen_split.train for s in d.sentences]
            self._glove = train_glove(
                sentences,
                self.vocabulary.as_dict(),
                dim=self.scale.glove_dim,
                epochs=8,
                seed=self.scale.seed,
            )
        return self._glove

    @property
    def mixture_train(self) -> List[Document]:
        """Distillation training pool: webpages covering seen + unseen topics.

        The paper distills on new webpages covering the ``r + k`` topics
        (§III-A).  At simulator scale we balance the pool — all unseen-topic
        training pages plus a same-order sample of seen-topic pages — so a
        distillation epoch stays cheap on CPU while both domains remain
        represented (DESIGN.md §5).
        """
        unseen = list(self.unseen_split.train)
        seen = list(self.seen_split.train)
        cap = max(len(unseen), int(1.2 * len(unseen)) + 1)
        rng = np.random.default_rng(self.scale.seed + 9)
        if len(seen) > cap:
            picks = rng.choice(len(seen), size=cap, replace=False)
            seen = [seen[int(i)] for i in picks]
        mixture = seen + unseen
        order = rng.permutation(len(mixture))
        return [mixture[int(i)] for i in order]

    @property
    def all_test(self) -> List[Document]:
        return list(self.seen_split.test) + list(self.unseen_split.test)


def compositional_topic_ids(num_seen: int, num_unseen: int) -> Tuple[List[int], List[int]]:
    """Pick seen/unseen topics as a (family × category) grid with held-out cells.

    The unseen topics are unseen *combinations* of a family pattern and a
    category token that each appear in several seen topics.  This is the
    structure implied by the paper's evaluation: the pre-trained teacher
    reaches 86% EM on unseen topics (Table IV), which requires that unseen
    topic phrases recombine known pieces rather than introduce unknown words.

    We build the smallest dense grid of consecutive families × shared
    categories covering ``num_seen + num_unseen`` cells, hold out
    ``num_unseen`` interior cells (never a whole row/column), and return
    ``(seen_ids, unseen_ids)``.
    """
    from collections import Counter

    from ..data.taxonomy import CATEGORIES_PER_FAMILY, FAMILY_SPECS, build_taxonomy

    taxonomy = build_taxonomy()
    total = num_seen + num_unseen
    if total > len(taxonomy):
        raise ValueError(f"requested {total} topics, taxonomy has {len(taxonomy)}")
    n_families = len(FAMILY_SPECS)
    # Use just enough families that the selection stays dense: with stride-1
    # category pools, few families × many category slots maximises category
    # overlap, which the holdout needs.
    active_families = min(n_families, max(2, -(-total // CATEGORIES_PER_FAMILY)))
    # Interleaved order: category slot j across active families before j+1.
    interleaved = [
        f * CATEGORIES_PER_FAMILY + j
        for j in range(CATEGORIES_PER_FAMILY)
        for f in range(active_families)
    ]
    selected = interleaved[:total]
    family_counts = Counter(taxonomy[t].family for t in selected)
    category_counts = Counter(taxonomy[t].category for t in selected)
    unseen: List[int] = []
    # Greedy holdout from the back: a topic may be unseen only if its family
    # pattern and category token both remain covered by seen topics.
    for candidate in reversed(selected):
        if len(unseen) == num_unseen:
            break
        topic = taxonomy[candidate]
        if family_counts[topic.family] >= 2 and category_counts[topic.category] >= 2:
            unseen.append(candidate)
            family_counts[topic.family] -= 1
            category_counts[topic.category] -= 1
    if len(unseen) < num_unseen:
        raise ValueError(
            f"cannot hold out {num_unseen} compositional topics from {total}; "
            "increase num_seen_topics"
        )
    unseen_set = set(unseen)
    seen = [t for t in selected if t not in unseen_set]
    return seen, unseen


def build_world(scale: ExperimentScale) -> World:
    """Synthesise the corpus and prepare all splits for ``scale``."""
    seen_ids, unseen_ids = compositional_topic_ids(
        scale.num_seen_topics, scale.num_unseen_topics
    )
    config = DatasetConfig(
        num_topics=scale.num_seen_topics + scale.num_unseen_topics,
        sites_per_topic=scale.sites_per_topic,
        pages_per_site=scale.pages_per_site,
        seed=scale.seed,
        source="jasmine",
        topic_ids=tuple(seen_ids + unseen_ids),
    )
    corpus = build_corpus(config)
    truncated = [truncate_document(d, scale.max_tokens) for d in corpus]
    corpus = Corpus(truncated, corpus.topic_phrases)
    seen = corpus.filter_topics(seen_ids)
    unseen = corpus.filter_topics(unseen_ids)
    vocabulary = Vocabulary.from_corpus(corpus)
    return World(
        scale=scale,
        corpus=corpus,
        seen=seen,
        unseen=unseen,
        vocabulary=vocabulary,
        seen_split=seen.random_split(np.random.default_rng(scale.seed + 1)),
        unseen_split=unseen.random_split(np.random.default_rng(scale.seed + 2)),
    )


_WORLD_CACHE: Dict[ExperimentScale, World] = {}


def get_world(scale: ExperimentScale) -> World:
    """Cached :func:`build_world` (scales are frozen dataclasses)."""
    if scale not in _WORLD_CACHE:
        _WORLD_CACHE[scale] = build_world(scale)
    return _WORLD_CACHE[scale]


def clear_world_cache() -> None:
    _WORLD_CACHE.clear()
    _MODEL_CACHE.clear()


_MODEL_CACHE: Dict[Tuple[ExperimentScale, str], nn.Module] = {}


def get_trained(scale: ExperimentScale, key: str, builder: Callable[[], nn.Module]) -> nn.Module:
    """Session-scoped cache of trained models.

    Several tables reuse the same trained teacher/baseline (e.g. Joint-WB on
    the seen split); ``builder`` is invoked once per ``(scale, key)``.
    """
    cache_key = (scale, key)
    if cache_key not in _MODEL_CACHE:
        _MODEL_CACHE[cache_key] = builder()
    return _MODEL_CACHE[cache_key]


# ---------------------------------------------------------------------------
# Model factories
# ---------------------------------------------------------------------------
def make_encoder(kind: str, world: World, rng: np.random.Generator) -> DocumentEncoder:
    """Build a document encoder: ``"glove" | "bert" | "bertsum"``."""
    scale = world.scale
    if kind == "glove":
        return GloveEncoder(
            world.vocabulary,
            dim=scale.glove_dim,
            rng=rng,
            pretrained=world.glove().vectors,
            trainable=False,
        )
    if kind in ("bert", "bertsum"):
        bert = nn.MiniBert(
            vocab_size=len(world.vocabulary),
            dim=scale.bert_dim,
            num_layers=scale.bert_layers,
            num_heads=scale.bert_heads,
            rng=rng,
            max_len=scale.max_tokens + 64,  # room for per-sentence [CLS]
            dropout=scale.dropout,
        )
        encoder_cls = BertEncoder if kind == "bert" else BertSumEncoder
        return encoder_cls(world.vocabulary, bert)
    raise KeyError(f"unknown encoder kind {kind!r}")


def make_single_extractor(
    world: World,
    encoder_kind: str,
    rng: np.random.Generator,
    prior_section: bool = False,
    prior_topic: bool = False,
) -> SingleTaskExtractor:
    return SingleTaskExtractor(
        make_encoder(encoder_kind, world, rng),
        world.vocabulary,
        world.scale.hidden_dim,
        rng,
        prior_section=prior_section,
        prior_topic=prior_topic,
        dropout=world.scale.dropout,
    )


def make_single_generator(
    world: World,
    encoder_kind: str,
    rng: np.random.Generator,
    prior_section: bool = False,
) -> SingleTaskGenerator:
    return SingleTaskGenerator(
        make_encoder(encoder_kind, world, rng),
        world.vocabulary,
        world.scale.hidden_dim,
        rng,
        prior_section=prior_section,
        dropout=world.scale.dropout,
    )


def make_joint(
    world: World,
    name: str,
    rng: np.random.Generator,
    encoder_kind: str = "bertsum",
) -> JointWBModel:
    return make_joint_model(
        name,
        make_encoder(encoder_kind, world, rng),
        world.vocabulary,
        world.scale.hidden_dim,
        rng,
        dropout=world.scale.dropout,
    )


# ---------------------------------------------------------------------------
# Training / evaluation wrappers
# ---------------------------------------------------------------------------
def train_model(
    model: nn.Module,
    documents: Sequence[Document],
    scale: ExperimentScale,
    epochs: Optional[int] = None,
    dev_documents: Optional[Sequence[Document]] = None,
) -> nn.Module:
    """Train any ``loss(document)`` model with the scale's recipe."""
    config = TrainConfig(
        epochs=epochs if epochs is not None else scale.epochs,
        learning_rate=scale.learning_rate,
        batch_size=scale.batch_size,
        seed=scale.seed,
        patience=2 if dev_documents is not None else None,
    )
    Trainer(model, config).train(documents, dev_documents=dev_documents)
    return model


def trained_joint(world: World, name: str, offset: int) -> JointWBModel:
    """Joint model ``name`` trained on the seen split from rng ``seed + offset``.

    The offset is part of the cache key, so runners that build the same
    model from different rngs each get their own, whatever order they run in.
    """
    scale = world.scale

    def build():
        model = make_joint(world, name, np.random.default_rng(scale.seed + offset))
        return train_model(model, world.seen_split.train, scale)

    return get_trained(scale, f"joint:{name}:seen:{offset}", build)


def make_topic_bank(
    world: World,
    teacher_generator_embedding: np.ndarray,
    rng: np.random.Generator,
    bank_dim: Optional[int] = None,
) -> TopicPhraseBank:
    """Build the frozen seen-topic matrix ``R`` from teacher embeddings."""
    embedding_dim = teacher_generator_embedding.shape[1]
    bank = TopicPhraseBank(embedding_dim, bank_dim or world.scale.hidden_dim, rng)
    bank.build(world.seen_topic_phrases, teacher_generator_embedding, world.vocabulary)
    return bank


def distill_config(scale: ExperimentScale, **overrides) -> DistillConfig:
    """The scale's calibrated distillation hyperparameters."""
    base = dict(
        learning_rate=scale.distill_learning_rate,
        epochs=scale.distill_epochs,
        seed=scale.seed,
        ud_weight=scale.distill_ud_weight,
    )
    base.update(overrides)
    return DistillConfig(**base)


def generation_metrics(
    model, documents: Sequence[Document], beam_size: int = 4
) -> GenerationMetrics:
    return evaluate_generation(
        lambda d: model.predict_topic(d, beam_size=beam_size), documents
    )


def extraction_metrics(model, documents: Sequence[Document]) -> ExtractionMetrics:
    return evaluate_extraction(lambda d: model.predict_attributes(d), documents)
