"""World building / compositional split / factory tests (micro scale)."""

import numpy as np
import pytest

from repro.data.taxonomy import build_taxonomy
from repro.experiments import common
from repro.experiments import (
    ExperimentScale,
    build_world,
    clear_world_cache,
    compositional_topic_ids,
    get_trained,
    get_world,
    make_encoder,
    make_joint,
    make_single_extractor,
    make_single_generator,
    trained_joint,
)

MICRO = ExperimentScale(
    num_seen_topics=3,
    num_unseen_topics=1,
    pages_per_site=3,
    epochs=1,
    distill_epochs=1,
    bert_dim=12,
    hidden_dim=6,
    glove_dim=8,
)


@pytest.fixture(scope="module")
def world():
    return build_world(MICRO)


def test_compositional_split_properties():
    taxonomy = build_taxonomy()
    for num_seen, num_unseen in [(3, 1), (8, 3), (20, 5), (100, 20)]:
        seen, unseen = compositional_topic_ids(num_seen, num_unseen)
        assert len(seen) == num_seen and len(unseen) == num_unseen
        assert set(seen).isdisjoint(unseen)
        seen_families = {taxonomy[t].family for t in seen}
        seen_categories = {taxonomy[t].category for t in seen}
        for t in unseen:
            assert taxonomy[t].family in seen_families
            assert taxonomy[t].category in seen_categories


def test_compositional_split_rejects_oversize():
    with pytest.raises(ValueError):
        compositional_topic_ids(200, 100)


def test_world_shape(world):
    assert len(world.seen.topic_ids) == 3
    assert len(world.unseen.topic_ids) == 1
    assert set(world.seen.topic_ids).isdisjoint(world.unseen.topic_ids)
    assert len(world.seen_split.train) > 0
    assert len(world.unseen_split.test) > 0
    mixture = world.mixture_train
    assert set(d.doc_id for d in world.unseen_split.train) <= {d.doc_id for d in mixture}
    topics_in_mixture = {d.topic_id for d in mixture}
    assert topics_in_mixture & set(world.seen.topic_ids)
    assert topics_in_mixture & set(world.unseen.topic_ids)
    assert len(mixture) <= len(world.seen_split.train) + len(world.unseen_split.train)
    assert len(world.seen_topic_phrases) == 3


def test_world_documents_respect_max_tokens(world):
    assert all(d.num_tokens <= MICRO.max_tokens for d in world.corpus)


def test_world_cache_roundtrip():
    clear_world_cache()
    a = get_world(MICRO)
    b = get_world(MICRO)
    assert a is b
    clear_world_cache()
    assert get_world(MICRO) is not a


def test_get_trained_caches():
    clear_world_cache()
    calls = []

    def builder():
        calls.append(1)
        return object()

    first = get_trained(MICRO, "thing", builder)
    second = get_trained(MICRO, "thing", builder)
    assert first is second
    assert len(calls) == 1


def test_trained_joint_caches_per_rng_offset(world, monkeypatch):
    """Runners that build Joint-WB from different rngs get different models,
    whichever runs first; the same offset returns the cached object."""
    monkeypatch.setattr(common, "train_model", lambda model, *args, **kwargs: model)
    clear_world_cache()
    table6_row = trained_joint(world, "Joint-WB", 312)
    table8_row = trained_joint(world, "Joint-WB", 316)
    assert table6_row is not table8_row
    assert not np.array_equal(
        table6_row.generator.embedding.weight.data, table8_row.generator.embedding.weight.data
    )
    assert trained_joint(world, "Joint-WB", 312) is table6_row
    clear_world_cache()


def test_encoder_factory_kinds(world):
    rng = np.random.default_rng(0)
    for kind in ("glove", "bert", "bertsum"):
        encoder = make_encoder(kind, world, rng)
        out = encoder.encode(world.corpus[0])
        assert out.token_states.shape[0] == world.corpus[0].num_tokens
    with pytest.raises(KeyError):
        make_encoder("elmo", world, rng)


def test_model_factories_produce_working_models(world):
    rng = np.random.default_rng(0)
    doc = world.seen_split.train[0]
    ext = make_single_extractor(world, "glove", rng)
    gen = make_single_generator(world, "glove", rng)
    joint = make_joint(world, "Naive-Join", rng)
    assert np.isfinite(ext.loss(doc).item())
    assert np.isfinite(gen.loss(doc).item())
    assert np.isfinite(joint.loss(doc).item())


def test_glove_trained_lazily(world):
    model = world.glove()
    assert model is world.glove()  # cached
    assert model.vectors.shape[0] == len(world.vocabulary)
