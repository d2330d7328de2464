"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.data import Vocabulary, build_jasmine_corpus


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="rewrite the golden fixtures (tests/*/golden/) from current outputs",
    )


@pytest.fixture(scope="session")
def small_corpus():
    """A tiny but fully-formed corpus (3 topics, crawled + rendered)."""
    return build_jasmine_corpus(num_topics=3, pages_per_site=4, seed=13)


@pytest.fixture(scope="session")
def small_vocab(small_corpus):
    return Vocabulary.from_corpus(small_corpus)


@pytest.fixture()
def regen_golden(request):
    return request.config.getoption("--regen-golden")


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
