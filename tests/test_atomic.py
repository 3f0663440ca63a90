"""Artifact writers replace their target in one step: a failure mid-write
leaves the previous file's bytes intact and no temp file behind."""

import os

import pytest
from conftest import small_encoder_config

from glint.corpus import save_corpus
from glint.encoder import Encoder, save_checkpoint
from glint.index_store import write_index
from glint.training import TrainingLog


def _index(path, corpus):
    encoder = Encoder.initialize(small_encoder_config())
    write_index([encoder.encode_page(corpus.patch_features(0), 0)], path)


WRITERS = {
    "save_corpus": lambda path, corpus: save_corpus(corpus, path),
    "save_checkpoint": lambda path, corpus: save_checkpoint(
        path, small_encoder_config(), Encoder.initialize(small_encoder_config()).params
    ),
    "write_index": _index,
    "TrainingLog.save": lambda path, corpus: TrainingLog().save(path),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_failed_replace_keeps_the_previous_file(writer, small_corpus, tmp_path, monkeypatch):
    target = tmp_path / "artifact"
    WRITERS[writer](target, small_corpus)
    written = target.read_bytes()
    target.write_bytes(b"previous artifact")

    def crash(src, dst):
        raise OSError("simulated crash before the rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError, match="simulated crash"):
        WRITERS[writer](target, small_corpus)
    assert target.read_bytes() == b"previous artifact"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
    monkeypatch.undo()
    WRITERS[writer](target, small_corpus)
    assert target.read_bytes() == written
