"""End-to-end CLI runs, driven in-process through main(argv)."""

import json
import re
import shutil

import numpy as np
import pytest
from conftest import small_corpus_config, small_encoder_config, small_trainer_config

from glint.cli import main
from glint.config import RunConfig, save_config
from glint.corpus import descriptor_path
from glint.encoder import Encoder, save_checkpoint
from glint.index_store import read_index

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _small_run_config(**overrides) -> RunConfig:
    base = dict(
        seed=3,
        corpus=small_corpus_config(),
        encoder=small_encoder_config(),
        trainer=small_trainer_config(),
        eval_k=3,
    )
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """One gen -> train -> index run shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "run.yaml"
    corpus = root / "corpus.jsonl"
    ckpt = root / "model.ckpt"
    index = root / "pages.idx"
    save_config(_small_run_config(), config)
    base = ["--config", str(config)]
    assert main(["gen", *base, "--out", str(corpus)]) == 0
    assert main(["train", *base, "--corpus", str(corpus), "--out", str(ckpt)]) == 0
    assert main(["index", *base, "--checkpoint", str(ckpt), "--corpus", str(corpus), "--out", str(index)]) == 0
    return {"root": root, "config": config, "corpus": corpus, "ckpt": ckpt, "index": index}


def _args(ws, command, *extra):
    return [command, "--config", str(ws["config"]), *extra]


class TestGen:
    def test_summary_and_artifacts(self, ws, tmp_path, capsys):
        out = tmp_path / "corpus.jsonl"
        assert main(_args(ws, "gen", "--out", str(out))) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_pages"] == 40
        assert summary["n_queries"] == 40
        assert summary["n_global"] + summary["n_local"] == 40
        assert out.exists()
        assert descriptor_path(out).exists()

    def test_deterministic_bytes(self, ws, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(_args(ws, "gen", "--out", str(a))) == 0
        assert main(_args(ws, "gen", "--out", str(b))) == 0
        assert a.read_bytes() == b.read_bytes()
        assert descriptor_path(a).read_bytes() == descriptor_path(b).read_bytes()

    def test_seed_flag_changes_the_corpus(self, ws, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(_args(ws, "gen", "--seed", "3", "--out", str(a))) == 0
        assert main(_args(ws, "gen", "--seed", "9", "--out", str(b))) == 0
        assert a.read_bytes() != b.read_bytes()


class TestTrain:
    def test_summary_checkpoint_and_log(self, ws, capsys):
        capsys.readouterr()
        assert main(_args(ws, "train", "--corpus", str(ws["corpus"]), "--out", str(ws["ckpt"]))) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["variant"] == "full"
        assert summary["steps_trained"] > 0
        log_path = ws["root"] / "model.ckpt.log.json"
        assert log_path.exists()
        log = json.loads(log_path.read_text())
        assert log["steps"][0]["step"] == 0

    def test_resume_continues_the_step_count(self, ws, tmp_path, capsys):
        capsys.readouterr()
        out = tmp_path / "more.ckpt"
        args = _args(ws, "train", "--corpus", str(ws["corpus"]), "--out", str(out),
                     "--resume", str(ws["ckpt"]))
        assert main(args) == 0
        summary = json.loads(capsys.readouterr().out)
        log = json.loads((tmp_path / "more.ckpt.log.json").read_text())
        first_step = log["steps"][0]["step"]
        assert first_step > 0
        assert summary["steps_trained"] > first_step

    def test_resume_rejects_a_mismatched_encoder(self, ws, tmp_path, capsys):
        other = tmp_path / "other.yaml"
        save_config(_small_run_config(encoder=small_encoder_config(model_dim=16, retrieval_dim=8)), other)
        args = ["train", "--config", str(other), "--corpus", str(ws["corpus"]),
                "--out", str(tmp_path / "x.ckpt"), "--resume", str(ws["ckpt"])]
        assert main(args) == 2
        assert "resume" in capsys.readouterr().err

    def test_divergence_exits_1_and_keeps_the_partial_log(self, ws, tmp_path, capsys):
        cfg = _small_run_config(trainer=small_trainer_config(
            epochs=40, learning_rate=1e30, weight_decay=1.0, warmup_steps=0))
        bad = tmp_path / "bad.yaml"
        save_config(cfg, bad)
        out = tmp_path / "diverged.ckpt"
        with np.errstate(all="ignore"):
            code = main(["train", "--config", str(bad), "--corpus", str(ws["corpus"]), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "training diverged" in err
        assert not out.exists()
        partial = json.loads((tmp_path / "diverged.ckpt.log.json").read_text())
        assert partial["steps"]


class TestIndex:
    def test_index_covers_every_page(self, ws):
        docs = read_index(ws["index"])
        assert len(docs) == 40
        assert [d.page_id for d in docs] == sorted(d.page_id for d in docs)

    def test_reindex_is_byte_identical(self, ws, tmp_path):
        out = tmp_path / "again.idx"
        args = _args(ws, "index", "--checkpoint", str(ws["ckpt"]), "--corpus", str(ws["corpus"]),
                     "--out", str(out))
        assert main(args) == 0
        assert out.read_bytes() == ws["index"].read_bytes()

    def test_corrupt_checkpoint_exits_3_without_writing(self, ws, tmp_path, capsys):
        bad_ckpt = tmp_path / "bad.ckpt"
        blob = bytearray(ws["ckpt"].read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        bad_ckpt.write_bytes(bytes(blob))
        out = tmp_path / "never.idx"
        args = _args(ws, "index", "--checkpoint", str(bad_ckpt), "--corpus", str(ws["corpus"]),
                     "--out", str(out))
        assert main(args) == 3
        assert "integrity error" in capsys.readouterr().err
        assert not out.exists()


class TestSearch:
    def test_prints_ranked_pages(self, ws, capsys):
        capsys.readouterr()
        args = _args(ws, "search", "--checkpoint", str(ws["ckpt"]), "--index", str(ws["index"]),
                     "--query", "64,65,66", "-k", "3")
        assert main(args) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert all(re.fullmatch(r"\s*\d+  page\s+\d+  score -?\d+\.\d{6}", ln) for ln in lines)

    def test_k_is_clamped_to_the_corpus(self, ws, capsys):
        capsys.readouterr()
        args = _args(ws, "search", "--checkpoint", str(ws["ckpt"]), "--index", str(ws["index"]),
                     "--query", "64", "-k", "500")
        assert main(args) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 40

    def test_dropping_every_row_kind_is_an_error(self, ws, capsys):
        args = _args(ws, "search", "--checkpoint", str(ws["ckpt"]), "--index", str(ws["index"]),
                     "--query", "64", "--no-patches", "--no-doc-global")
        assert main(args) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_malformed_query_is_an_argparse_error(self, ws, capsys):
        args = _args(ws, "search", "--checkpoint", str(ws["ckpt"]), "--index", str(ws["index"]),
                     "--query", "sixty-four")
        with pytest.raises(SystemExit) as excinfo:
            main(args)
        assert excinfo.value.code == 2


class TestEval:
    def test_prints_table_and_writes_rows(self, ws, tmp_path, capsys):
        capsys.readouterr()
        rows = tmp_path / "rows.csv"
        args = _args(ws, "eval", "--corpus", str(ws["corpus"]), "--checkpoint", str(ws["ckpt"]),
                     "--report-out", str(rows))
        assert main(args) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split()[:3] == ["variant", "split", "n"]
        text = rows.read_text()
        assert text.startswith("variant,split,metric,value\n")
        assert "ndcg@3" in text

    def test_index_backed_eval_matches_fresh_encoding(self, ws, tmp_path, capsys):
        capsys.readouterr()
        fresh, backed = tmp_path / "fresh.csv", tmp_path / "backed.csv"
        base = _args(ws, "eval", "--corpus", str(ws["corpus"]), "--checkpoint", str(ws["ckpt"]))
        assert main([*base, "--report-out", str(fresh)]) == 0
        assert main([*base, "--index", str(ws["index"]), "--report-out", str(backed)]) == 0
        assert fresh.read_bytes() == backed.read_bytes()

    def test_index_of_another_corpus_exits_2(self, ws, tmp_path, capsys):
        other = tmp_path / "other.jsonl"
        assert main(_args(ws, "gen", "--seed", "9", "--out", str(other))) == 0
        capsys.readouterr()
        args = _args(ws, "eval", "--corpus", str(other), "--checkpoint", str(ws["ckpt"]),
                     "--index", str(ws["index"]))
        assert main(args) == 2
        assert f"index {ws['index']} does not hold page" in capsys.readouterr().err

    def test_index_of_another_checkpoint_exits_2(self, ws, tmp_path, capsys):
        other_ckpt, other_index = tmp_path / "other.ckpt", tmp_path / "other.idx"
        config = small_encoder_config()
        save_checkpoint(other_ckpt, config, Encoder.initialize(config).params)
        assert main(_args(ws, "index", "--checkpoint", str(other_ckpt), "--corpus", str(ws["corpus"]),
                          "--out", str(other_index))) == 0
        capsys.readouterr()
        args = _args(ws, "eval", "--corpus", str(ws["corpus"]), "--checkpoint", str(ws["ckpt"]),
                     "--index", str(other_index))
        assert main(args) == 2
        assert "another corpus or checkpoint" in capsys.readouterr().err

    def test_eval_works_without_the_descriptor_file(self, ws, tmp_path):
        bare = tmp_path / "corpus.jsonl"
        shutil.copy(ws["corpus"], bare)  # the .desc sibling stays behind
        args = _args(ws, "eval", "--corpus", str(bare), "--checkpoint", str(ws["ckpt"]))
        assert main(args) == 0

    def test_cross_context_without_descriptors_is_a_config_error(self, ws, tmp_path, capsys):
        bare = tmp_path / "corpus.jsonl"
        shutil.copy(ws["corpus"], bare)
        frozen = tmp_path / "frozen.yaml"
        save_config(_small_run_config(cross_context="frozen"), frozen)
        args = ["eval", "--config", str(frozen), "--corpus", str(bare), "--checkpoint", str(ws["ckpt"])]
        assert main(args) == 2
        assert "descriptors" in capsys.readouterr().err

    def test_cross_context_eval_runs_with_descriptors_present(self, ws, tmp_path):
        frozen = tmp_path / "frozen.yaml"
        save_config(_small_run_config(cross_context="frozen"), frozen)
        args = ["eval", "--config", str(frozen), "--corpus", str(ws["corpus"]),
                "--checkpoint", str(ws["ckpt"])]
        assert main(args) == 0


class TestAblate:
    @pytest.fixture()
    def ckpt_dir(self, ws, tmp_path):
        d = tmp_path / "ckpts"
        d.mkdir()
        shutil.copy(ws["ckpt"], d / "full.ckpt")
        return d

    def _config_with_rows(self, tmp_path, rows):
        path = tmp_path / "ablate.yaml"
        save_config(_small_run_config(ablation_rows=rows), path)
        return path

    def test_table_and_rows_output(self, ws, ckpt_dir, tmp_path, capsys):
        capsys.readouterr()
        config = self._config_with_rows(tmp_path, ["full", "no_patch_rows", "pool_mean"])
        rows = tmp_path / "rows.csv"
        args = ["ablate", "--config", str(config), "--corpus", str(ws["corpus"]),
                "--checkpoints", str(ckpt_dir), "--report-out", str(rows)]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "no_patch_rows" in out and "pool_mean" in out
        assert rows.read_text().startswith("variant,split,metric,value\n")

    def test_missing_role_checkpoint_exits_2(self, ws, ckpt_dir, tmp_path, capsys):
        config = self._config_with_rows(tmp_path, ["loss_no_global"])
        args = ["ablate", "--config", str(config), "--corpus", str(ws["corpus"]),
                "--checkpoints", str(ckpt_dir)]
        assert main(args) == 2
        assert "loss_no_global" in capsys.readouterr().err

    def test_retrieval_only_checkpoint_enables_significance(self, ws, ckpt_dir, tmp_path, capsys):
        capsys.readouterr()
        shutil.copy(ws["ckpt"], ckpt_dir / "retrieval_only.ckpt")
        config = self._config_with_rows(tmp_path, ["full"])
        args = ["ablate", "--config", str(config), "--corpus", str(ws["corpus"]),
                "--checkpoints", str(ckpt_dir)]
        assert main(args) == 0
        assert "full_vs_retrieval_only" in capsys.readouterr().out


class TestErrorHandling:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["gen", "--config", str(tmp_path / "absent.yaml"), "--out", str(tmp_path / "c.jsonl")]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_bad_thread_count(self, ws, tmp_path, capsys):
        assert main(_args(ws, "gen", "--threads", "0", "--out", str(tmp_path / "c.jsonl"))) == 2
        assert "argument error" in capsys.readouterr().err

    def test_thread_count_accepted(self, ws, tmp_path):
        assert main(_args(ws, "gen", "--threads", "2", "--out", str(tmp_path / "c.jsonl"))) == 0

    def test_variant_choices_enforced(self, ws, tmp_path):
        args = _args(ws, "train", "--corpus", str(ws["corpus"]), "--out", str(tmp_path / "x.ckpt"),
                     "--variant", "no_such_variant")
        with pytest.raises(SystemExit) as excinfo:
            main(args)
        assert excinfo.value.code == 2


class TestTrainerVariants:
    def test_finetuned_composes_only_with_full(self, ws, tmp_path, capsys):
        cfg = tmp_path / "ft.yaml"
        save_config(_small_run_config(cross_context="finetuned"), cfg)
        args = ["train", "--config", str(cfg), "--corpus", str(ws["corpus"]),
                "--out", str(tmp_path / "x.ckpt"), "--variant", "retrieval_only"]
        assert main(args) == 2
        assert "finetuned" in capsys.readouterr().err

    def test_retrieval_only_variant_trains(self, ws, tmp_path, capsys):
        capsys.readouterr()
        args = _args(ws, "train", "--corpus", str(ws["corpus"]), "--out", str(tmp_path / "ro.ckpt"),
                     "--variant", "retrieval_only")
        assert main(args) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["variant"] == "retrieval_only"
