"""Artifact writers replace their target in one step: a failure mid-write
leaves the previous file's bytes intact and no temp file behind."""

import os
from types import SimpleNamespace

import pytest
from conftest import small_encoder_config

from glint.cli import main
from glint.config import RunConfig, save_config
from glint.corpus import save_corpus
from glint.encoder import Encoder, save_checkpoint
from glint.index_store import write_index
from glint.training import TrainingLog


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, small_corpus):
    """The small corpus, plus a saved corpus and checkpoint for
    `eval --report-out`: written before any test makes os.replace fail, and
    outside the target's directory."""
    root = tmp_path_factory.mktemp("inputs")
    save_corpus(small_corpus, root / "corpus.jsonl")
    save_checkpoint(root / "model.ckpt", small_encoder_config(), Encoder.initialize(small_encoder_config()).params)
    return SimpleNamespace(
        corpus=small_corpus,
        eval_args=["--corpus", str(root / "corpus.jsonl"), "--checkpoint", str(root / "model.ckpt")],
    )


def _index(path, inputs):
    encoder = Encoder.initialize(small_encoder_config())
    write_index([encoder.encode_page(inputs.corpus.patch_features(0), 0)], path)


def _report(path, inputs):
    assert main(["eval", *inputs.eval_args, "--report-out", str(path)]) == 0


WRITERS = {
    "save_corpus": lambda path, inputs: save_corpus(inputs.corpus, path),
    "save_checkpoint": lambda path, inputs: save_checkpoint(
        path, small_encoder_config(), Encoder.initialize(small_encoder_config()).params
    ),
    "write_index": _index,
    "TrainingLog.save": lambda path, inputs: TrainingLog().save(path),
    "save_config": lambda path, inputs: save_config(RunConfig(), path),
    "eval --report-out": _report,
}


@pytest.mark.parametrize("writer", WRITERS)
def test_failed_replace_keeps_the_previous_file(writer, inputs, tmp_path, monkeypatch):
    target = tmp_path / "artifact"
    WRITERS[writer](target, inputs)
    written = target.read_bytes()
    target.write_bytes(b"previous artifact")

    def crash(src, dst):
        raise OSError("simulated crash before the rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError, match="simulated crash"):
        WRITERS[writer](target, inputs)
    assert target.read_bytes() == b"previous artifact"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
    monkeypatch.undo()
    WRITERS[writer](target, inputs)
    assert target.read_bytes() == written
