"""Reproduction of *Automatic Webpage Briefing* (Dai, Zhang & Qi, ICDE 2021).

Webpage Briefing (WB) summarises a webpage hierarchically: a generated broad
topic phrase on top, extracted key attributes below.  This package provides:

* :mod:`repro.nn` — from-scratch numpy autograd neural substrate;
* :mod:`repro.html` — HTML parser, visible-text renderer, structure-driven
  crawler (the Selenium/crawler substitute);
* :mod:`repro.data` — synthetic corpus construction (the dataset substitute),
  word tokenization, vocabulary, GloVe trainer;
* :mod:`repro.models` — Joint-WB and all single-task/joint baselines;
* :mod:`repro.distill` — Dual-Distill, Tri-Distill, Pip-Distill;
* :mod:`repro.core` — task API (briefing pipeline), metrics, statistics;
* :mod:`repro.runtime` — fault tolerance: error taxonomy, chaos injection,
  runtime stats;
* :mod:`repro.experiments` — one module per paper table/figure.

Quickstart::

    from repro import quick_brief
    brief, model = quick_brief()
    print(brief.render())
"""

from . import core, data, distill, html, models, nn, runtime
from .core import Brief, BriefingPipeline, Degradation, PartialBrief
from .runtime import ChaosModel, RuntimeStats
from .version import __version__

__all__ = [
    "nn",
    "html",
    "data",
    "models",
    "distill",
    "core",
    "runtime",
    "Brief",
    "Degradation",
    "PartialBrief",
    "BriefingPipeline",
    "ChaosModel",
    "RuntimeStats",
    "quick_brief",
    "__version__",
]


def quick_brief(seed: int = 0):
    """Train a tiny Joint-WB on a tiny corpus and brief one page.

    Returns ``(brief, model)``.  Intended for smoke tests and the README
    example; see :mod:`repro.experiments` for real configurations.
    """
    import numpy as np

    from .core import BriefingPipeline, TrainConfig, Trainer
    from .data import Vocabulary, build_jasmine_corpus
    from .models import BertSumEncoder, make_joint_model

    corpus = build_jasmine_corpus(num_topics=2, pages_per_site=4, seed=seed)
    vocabulary = Vocabulary.from_corpus(corpus)
    rng = np.random.default_rng(seed)
    bert = nn.MiniBert(
        vocab_size=len(vocabulary), dim=24, num_layers=1, num_heads=2, rng=rng, max_len=512
    )
    model = make_joint_model(
        "Joint-WB", BertSumEncoder(vocabulary, bert), vocabulary, hidden_dim=16, rng=rng
    )
    split = corpus.random_split(np.random.default_rng(seed))
    trainer = Trainer(model, TrainConfig(epochs=3, learning_rate=5e-3, batch_size=2, seed=seed))
    trainer.train(split.train)
    pipeline = BriefingPipeline(model)
    return pipeline.brief_document(split.test[0]), model
