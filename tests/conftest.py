"""Shared fixtures: a small generated corpus and a briefly trained encoder.

Everything here is deliberately small — the heavyweight seed-averaged runs
live in test_acceptance.py behind their own session fixtures.
"""

import pytest

from glint.corpus import CorpusConfig, generate_corpus
from glint.encoder import Encoder, EncoderConfig
from glint.training import TrainerConfig, train

SMALL_SEED = 3


class DescriptorDerived(Exception):
    """Raised by generate_descriptor once a test has forbidden it."""


def forbid_descriptors(monkeypatch) -> None:
    """From here on, deriving any page's descriptor raises DescriptorDerived."""

    def refuse(page):
        raise DescriptorDerived(f"descriptor of page {page.page_id} derived")

    monkeypatch.setattr("glint.corpus.generate_descriptor", refuse)


def small_corpus_config(**overrides) -> CorpusConfig:
    base = dict(n_pages=40, n_queries=40, vocab_size=128, seed=SMALL_SEED)
    base.update(overrides)
    return CorpusConfig(**base)


def small_encoder_config(**overrides) -> EncoderConfig:
    base = dict(
        model_dim=32,
        retrieval_dim=16,
        layers=1,
        heads=2,
        vocab_size=128,
        max_seq=32,
        seed=SMALL_SEED,
    )
    base.update(overrides)
    return EncoderConfig(**base)


def small_trainer_config(**overrides) -> TrainerConfig:
    base = dict(
        batch_size=16,
        epochs=3,
        warmup_steps=5,
        early_stop_patience=3,
        eval_k=3,
        seed=SMALL_SEED,
    )
    base.update(overrides)
    return TrainerConfig(**base)


@pytest.fixture(scope="session")
def small_corpus():
    return generate_corpus(small_corpus_config())


@pytest.fixture(scope="session")
def trained_small(small_corpus):
    """A briefly trained encoder on the small corpus (speed over quality)."""
    cfg = small_encoder_config()
    result = train(small_corpus, cfg, small_trainer_config())
    return Encoder(cfg, result.params)
