"""The benchmark's trained model: one deterministic Joint-WB fixture.

The fixture is trained from a fixed recipe (its own seed, independent of the
workload seed), so every workload of every run serves the same weights.  It
is cached under ``perfbench/.cache`` keyed on the recipe plus a hash of every
source file of ``src/repro``: changing the program retrains it, re-running
the same code reuses it.  Training runs in a child interpreter so that the
measuring process is the same on a first run and on a cached one.

Run directly to (re)build one fixture file::

    python3 perfbench/fixture.py --out perfbench/.cache/fixture-<key>.pkl
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CACHE_DIR = BENCH_DIR / ".cache"

#: Everything that determines the trained weights.  4 seen topics from two
#: domain families, 4 sites x 3 pages per topic at two noise levels, a few
#: epochs of Joint-WB: about a minute of one CPU, seen-topic EM ~0.95 on held-out sites.
RECIPE = {
    "version": 1,
    "model": "Joint-WB",
    "topic_ids": [0, 1, 8, 9],
    "sites_per_topic": 4,
    "pages_per_site": 3,
    "noise_sentences": [2, 6],
    "bert_dim": 32,
    "bert_layers": 1,
    "bert_heads": 2,
    "max_len": 512,
    "hidden_dim": 20,
    "epochs": 6,
    "learning_rate": 5e-3,
    "batch_size": 2,
    "seed": 7,
}

TRAIN_TIMEOUT_S = 600


def source_hash(root: Path = SRC / "repro", pattern: str = "**/*.py") -> str:
    """SHA-256 over the path and bytes of every file under ``root`` matching ``pattern``."""
    digest = hashlib.sha256()
    for path in sorted(root.glob(pattern)):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fixture_key(recipe: dict = RECIPE) -> str:
    blob = json.dumps(recipe, sort_keys=True).encode() + source_hash().encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _corpus(recipe: dict):
    from repro.data.corpus import Corpus
    from repro.data.synthesizer import DatasetConfig, build_corpus

    documents, phrases = [], {}
    for offset, noise in enumerate(recipe["noise_sentences"]):
        corpus = build_corpus(
            DatasetConfig(
                num_topics=len(recipe["topic_ids"]),
                sites_per_topic=recipe["sites_per_topic"],
                pages_per_site=recipe["pages_per_site"],
                noise_sentences=noise,
                seed=recipe["seed"] + offset,
                topic_ids=tuple(recipe["topic_ids"]),
            )
        )
        documents.extend(corpus)
        phrases.update(corpus.topic_phrases)
    return Corpus(documents, phrases)


def build_model(recipe: dict = RECIPE, train: bool = True):
    """``(model, train_seconds)``; ``train=False`` returns the random init."""
    import numpy as np

    from repro import nn
    from repro.core.training import TrainConfig, Trainer
    from repro.data import Vocabulary
    from repro.models import BertSumEncoder, make_joint_model

    corpus = _corpus(recipe)
    vocabulary = Vocabulary.from_corpus(corpus)
    rng = np.random.default_rng(recipe["seed"])
    bert = nn.MiniBert(
        vocab_size=len(vocabulary),
        dim=recipe["bert_dim"],
        num_layers=recipe["bert_layers"],
        num_heads=recipe["bert_heads"],
        rng=rng,
        max_len=recipe["max_len"],
    )
    model = make_joint_model(
        recipe["model"], BertSumEncoder(vocabulary, bert), vocabulary, recipe["hidden_dim"], rng
    )
    start = time.perf_counter()
    if train:
        config = TrainConfig(
            epochs=recipe["epochs"],
            learning_rate=recipe["learning_rate"],
            batch_size=recipe["batch_size"],
            seed=recipe["seed"],
        )
        Trainer(model, config).train(list(corpus))
    model.eval()
    return model, time.perf_counter() - start


def ensure_fixture() -> Path:
    """Path of the cached fixture for this source tree, training it if absent."""
    path = CACHE_DIR / f"fixture-{fixture_key()}.pkl"
    if not path.exists():
        CACHE_DIR.mkdir(parents=True, exist_ok=True)
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--out", str(path)],
            check=True,
            timeout=TRAIN_TIMEOUT_S,
        )
    return path


def load_fixture(path: Path) -> dict:
    """Unpickle a fixture file this module wrote: ``{model, topic_ids, ...}``."""
    with open(path, "rb") as handle:
        return pickle.load(handle)


def untrained_fixture() -> dict:
    """The recipe's architecture at its random init: fails the quality floor."""
    model, _ = build_model(train=False)
    return {"model": model, "topic_ids": list(RECIPE["topic_ids"]), "train_seconds": 0.0,
            "key": "untrained", "recipe": dict(RECIPE)}


def _main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="fixture file to write")
    args = parser.parse_args()
    from envinfo import pin_blas_threads

    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    model, seconds = build_model()
    payload = {
        "model": model,
        "topic_ids": list(RECIPE["topic_ids"]),
        "train_seconds": seconds,
        "key": fixture_key(),
        "recipe": dict(RECIPE),
    }
    partial = Path(args.out).with_suffix(".tmp")
    with open(partial, "wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(partial, args.out)


if __name__ == "__main__":
    _main()
