"""Shared fixtures: a small generated corpus and a briefly trained encoder,
plus the unit rows and malformed files several test modules build.

Everything here is deliberately small — the heavyweight seed-averaged runs
live in test_acceptance.py behind their own session fixtures.
"""

import json
import struct
import zlib
from pathlib import Path

import numpy as np
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


def unit_rows(mat) -> np.ndarray:
    """Scale every row of `mat` to unit norm, the rows the encoder emits."""
    mat = np.asarray(mat, dtype=np.float64)
    return mat / np.linalg.norm(mat, axis=-1, keepdims=True)


def _first(records, kind, **fields):
    return next(r for r in records if r["kind"] == kind and all(r[k] == v for k, v in fields.items()))


#: Corpus files that must not load: (edit of the parsed records, in place;
#: what the error says after the file name).
MALFORMED_CORPORA = [
    pytest.param(lambda recs: _first(recs, "split")["query_ids"].append(10**6),
                 "split train names missing query 1000000", id="split-names-unknown-query"),
    pytest.param(lambda recs: _first(recs, "split")["page_ids"].append(10**6),
                 "split train names missing page 1000000", id="split-names-unknown-page"),
    pytest.param(lambda recs: recs[0].pop("config"),
                 "header record is missing field 'config'", id="header-without-config"),
    pytest.param(lambda recs: _first(recs, "page")["regions"][0].update(row="a"),
                 "malformed corpus: ", id="region-row-is-a-string"),
    pytest.param(lambda recs: _first(recs, "query", qtype="global").update(tokens="abc"),
                 "malformed corpus: ", id="query-tokens-is-a-string"),
]


def write_malformed_corpus(src, dst, edit) -> None:
    """Copy the corpus file src to dst with edit applied to its records."""
    records = [json.loads(line) for line in Path(src).read_text(encoding="utf-8").splitlines()]
    edit(records)
    dst.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


#: Checkpoint headers that must not load, each an edit of the parsed header.
MALFORMED_CHECKPOINT_HEADERS = [
    pytest.param(lambda header: header.pop("steps_trained"), id="steps-trained-missing"),
    pytest.param(lambda header: header.update(steps_trained="many"), id="steps-trained-is-a-string"),
]


def write_malformed_checkpoint(src, dst, edit) -> None:
    """Copy the checkpoint src to dst with edit applied to its JSON header and
    the checksum recomputed, so only the header is at fault."""
    blob = Path(src).read_bytes()
    (header_len,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12 : 12 + header_len])
    edit(header)
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = struct.pack("<I", len(raw)) + raw + blob[12 + header_len : -4]
    dst.write_bytes(blob[:8] + payload + struct.pack("<I", zlib.crc32(payload)))


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
