"""End-to-end CLI runs, driven in-process through main(argv)."""

import json
import re
import shutil
import struct
import zlib

import numpy as np
import pytest
import yaml
from conftest import (
    MALFORMED_CHECKPOINT_HEADERS,
    MALFORMED_CORPORA,
    DescriptorDerived,
    forbid_descriptors,
    small_corpus_config,
    small_encoder_config,
    small_trainer_config,
    write_malformed_checkpoint,
    write_malformed_corpus,
)

from glint.cli import main
from glint.config import RunConfig, save_config
from glint.encoder import CHECKPOINT_MAGIC, CHECKPOINT_VERSION, Encoder, save_checkpoint
from glint.index_store import read_index
from glint.pipeline import run_search
from glint.scoring import ScoringFlags

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _small_run_config(**overrides) -> RunConfig:
    base = dict(
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
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]

    def test_deterministic_bytes(self, ws, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(_args(ws, "gen", "--out", str(a))) == 0
        assert main(_args(ws, "gen", "--out", str(b))) == 0
        assert a.read_bytes() == b.read_bytes()

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


    def test_page_id_the_index_cannot_store_exits_2(self, ws, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        lines = ws["corpus"].read_text().splitlines()
        page = json.loads(lines[1])
        page["page_id"] = -7
        lines[1] = json.dumps(page)
        corpus.write_text("\n".join(lines) + "\n")
        out = tmp_path / "never.idx"
        args = _args(ws, "index", "--checkpoint", str(ws["ckpt"]), "--corpus", str(corpus), "--out", str(out))
        assert main(args) == 2
        assert "page record with page_id -7" in capsys.readouterr().err
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

    def test_every_k_prints_the_full_ranking_prefix_under_every_row_flag(self, ws, tmp_path, capsys):
        for i, drop in enumerate(({}, {"use_patches": False}, {"use_doc_global": False},
                                  {"use_query_global": False}, {"use_query_global": False, "use_patches": False},
                                  {"use_query_global": False, "use_doc_global": False})):
            config = tmp_path / f"rows{i}.yaml"
            save_config(_small_run_config(scoring=ScoringFlags(**drop)), config)
            base = ["search", "--config", str(config), "--checkpoint", str(ws["ckpt"]), "--index", str(ws["index"]),
                    "--query", "64,65,66"]
            capsys.readouterr()
            assert main([*base, "-k", "40"]) == 0
            full = capsys.readouterr().out.splitlines()
            for k in (1, 5, 39):
                assert main([*base, "-k", str(k)]) == 0
                assert capsys.readouterr().out.splitlines() == full[:k]

    def test_index_with_a_non_finite_row_exits_3(self, ws, tmp_path, capsys):
        blob = bytearray(ws["index"].read_bytes()[:-4])
        blob[16 + 12 : 16 + 20] = struct.pack("<d", float("nan"))  # the first page's first patch value
        bad = tmp_path / "nan.idx"
        bad.write_bytes(bytes(blob) + struct.pack("<I", zlib.crc32(bytes(blob))))
        args = _args(ws, "search", "--checkpoint", str(ws["ckpt"]), "--index", str(bad), "--query", "64")
        assert main(args) == 3
        assert "non-finite row" in capsys.readouterr().err

    def test_index_record_without_patch_rows_exits_3(self, ws, tmp_path, capsys):
        d = small_encoder_config().retrieval_dim
        blob = b"LIGT" + struct.pack("<III", 1, d, 1) + struct.pack("<QI", 0, 0)
        blob += np.eye(d)[0].astype("<f8").tobytes()  # the global row only
        bad = tmp_path / "no_patches.idx"
        bad.write_bytes(blob + struct.pack("<I", zlib.crc32(blob)))
        args = _args(ws, "search", "--checkpoint", str(ws["ckpt"]), "--index", str(bad), "--query", "64")
        assert main(args) == 3
        assert "page 0 has no patch rows" in capsys.readouterr().err

    def test_scoring_rows_come_from_the_config(self, ws, tmp_path, capsys):
        flags = ScoringFlags(use_query_global=False, use_patches=False)
        config = tmp_path / "global_only.yaml"
        save_config(_small_run_config(scoring=flags), config)
        ranking = run_search(ws["ckpt"], ws["index"], [64, 65, 66], 40, flags=flags)
        expected = [f"{pos:4d}  page {pid:6d}  score {score:.6f}"
                    for pos, (pid, score) in enumerate(zip(ranking.doc_ids, ranking.scores), start=1)]
        tail = ["--checkpoint", str(ws["ckpt"]), "--index", str(ws["index"]), "--query", "64,65,66", "-k", "40"]
        capsys.readouterr()
        assert main(["search", "--config", str(config), *tail]) == 0
        assert capsys.readouterr().out.splitlines() == expected
        assert main(_args(ws, "search", *tail)) == 0
        assert capsys.readouterr().out.splitlines() != expected

    def test_dropping_every_row_kind_is_an_error(self, ws, tmp_path, capsys):
        config = tmp_path / "no_rows.yaml"
        config.write_text("scoring:\n  use_patches: false\n  use_doc_global: false\n", encoding="utf-8")
        args = ["search", "--config", str(config), "--checkpoint", str(ws["ckpt"]), "--index", str(ws["index"]),
                "--query", "64"]
        assert main(args) == 2
        assert "configuration error: scoring flags leave zero document rows" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--no-patches", "--no-doc-global", "--no-query-global"])
    def test_row_flags_are_argparse_errors(self, ws, flag):
        args = _args(ws, "search", "--checkpoint", str(ws["ckpt"]), "--index", str(ws["index"]),
                     "--query", "64", flag)
        with pytest.raises(SystemExit) as excinfo:
            main(args)
        assert excinfo.value.code == 2

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

    def test_eval_works_without_the_descriptor_file(self, ws, monkeypatch):
        forbid_descriptors(monkeypatch)
        args = _args(ws, "eval", "--corpus", str(ws["corpus"]), "--checkpoint", str(ws["ckpt"]))
        assert main(args) == 0

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


class TestDescriptorsAreDerived:
    """Descriptors are derived from pages on demand. Plain retrieval derives
    none: with generate_descriptor forbidden, each command prints and writes
    exactly what it does without the ban. The cross-context modes derive them."""

    @staticmethod
    def _command(ws, name, out):
        ckpt, corpus = str(ws["ckpt"]), str(ws["corpus"])
        if name == "ablate":
            ckpts = out / "ckpts"
            ckpts.mkdir()
            for role in ("full", "loss_no_global", "loss_no_local", "retrieval_only"):
                shutil.copy(ws["ckpt"], ckpts / f"{role}.ckpt")
            return _args(ws, "ablate", "--corpus", corpus, "--checkpoints", str(ckpts),
                         "--report-out", str(out / "rows.csv"))
        return {
            "index": _args(ws, "index", "--checkpoint", ckpt, "--corpus", corpus, "--out", str(out / "pages.idx")),
            "search": _args(ws, "search", "--checkpoint", ckpt, "--index", str(ws["index"]),
                            "--query", "21,22,23", "-k", "40"),
            "eval": _args(ws, "eval", "--corpus", corpus, "--checkpoint", ckpt, "--report-out", str(out / "eval.csv")),
            "train": _args(ws, "train", "--corpus", corpus, "--out", str(out / "ro.ckpt"),
                           "--variant", "retrieval_only"),
        }[name]

    @pytest.mark.parametrize("name", ["index", "search", "eval", "ablate", "train"])
    def test_plain_retrieval_never_derives_a_descriptor(self, ws, tmp_path, capsys, monkeypatch, name):
        def run(out):
            out.mkdir()
            assert main(self._command(ws, name, out)) == 0
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}
            return capsys.readouterr().out.replace(str(out), "<out>"), files

        capsys.readouterr()
        expected = run(tmp_path / "allowed")
        forbid_descriptors(monkeypatch)
        assert run(tmp_path / "forbidden") == expected

    @pytest.mark.parametrize("mode, command", [("frozen", "eval"), ("finetuned", "train")])
    def test_cross_context_modes_derive_descriptors(self, ws, tmp_path, monkeypatch, mode, command):
        config = tmp_path / f"{mode}.yaml"
        save_config(_small_run_config(cross_context=mode), config)
        args = [command, "--config", str(config), "--corpus", str(ws["corpus"])]
        args += ["--checkpoint", str(ws["ckpt"])] if command == "eval" else ["--out", str(tmp_path / "x.ckpt")]
        forbid_descriptors(monkeypatch)
        with pytest.raises(DescriptorDerived):
            main(args)


class TestErrorHandling:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["gen", "--config", str(tmp_path / "absent.yaml"), "--out", str(tmp_path / "c.jsonl")]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, missing", [
        ("search", "checkpoint"), ("search", "index"), ("eval", "checkpoint"), ("eval", "index"),
        ("index", "checkpoint"), ("train", "resume"),
    ])
    def test_missing_artifact_exits_2(self, ws, tmp_path, capsys, command, missing):
        given = {"checkpoint": str(ws["ckpt"]), "index": str(ws["index"]), "corpus": str(ws["corpus"])}
        needs = {
            "search": ["checkpoint", "index"], "eval": ["corpus", "checkpoint", "index"],
            "index": ["checkpoint", "corpus"], "train": ["corpus", "resume"],
        }[command]
        nope = tmp_path / "nope"
        args = _args(ws, command)
        for flag in needs:
            args += [f"--{flag}", str(nope) if flag == missing else given[flag]]
        if command == "search":
            args += ["--query", "21,22"]
        if command in ("index", "train"):
            args += ["--out", str(tmp_path / "out")]
        capsys.readouterr()
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and f"file not found: {nope}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flag", [
        ("gen", "--out"), ("train", "--out"), ("train", "--log"), ("index", "--out"),
        ("eval", "--report-out"), ("ablate", "--report-out"),
    ])
    def test_output_in_a_missing_directory_exits_2_before_any_work(
        self, ws, tmp_path, capsys, monkeypatch, command, flag
    ):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{command} ran")

        for name in ("run_gen", "run_train", "run_index", "run_eval", "run_ablate"):
            monkeypatch.setattr(f"glint.pipeline.{name}", refuse)
        nope = tmp_path / "nope" / "dir" / "artifact"
        inputs = {
            "gen": [],
            "train": ["--corpus", str(ws["corpus"])],
            "index": ["--checkpoint", str(ws["ckpt"]), "--corpus", str(ws["corpus"])],
            "eval": ["--corpus", str(ws["corpus"]), "--checkpoint", str(ws["ckpt"])],
            "ablate": ["--corpus", str(ws["corpus"]), "--checkpoints", str(ws["root"])],
        }[command]
        args = _args(ws, command, *inputs, flag, str(nope))
        if flag == "--log":
            args += ["--out", str(tmp_path / "x.ckpt")]
        capsys.readouterr()
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and f"output directory not found for {flag}: {nope}" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("edit, message", MALFORMED_CORPORA)
    def test_malformed_corpus_exits_2_naming_the_file(self, ws, tmp_path, capsys, edit, message):
        bad = tmp_path / "bad.jsonl"
        write_malformed_corpus(ws["corpus"], bad, edit)
        capsys.readouterr()
        assert main(_args(ws, "eval", "--corpus", str(bad), "--checkpoint", str(ws["ckpt"]))) == 2
        assert f"configuration error: {bad}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", MALFORMED_CHECKPOINT_HEADERS)
    def test_malformed_checkpoint_header_exits_3_naming_the_file(self, ws, tmp_path, capsys, edit):
        bad = tmp_path / "bad.ckpt"
        write_malformed_checkpoint(ws["ckpt"], bad, edit)
        capsys.readouterr()
        assert main(_args(ws, "eval", "--corpus", str(ws["corpus"]), "--checkpoint", str(bad))) == 3
        assert f"integrity error: {bad}: malformed checkpoint header" in capsys.readouterr().err

    def test_checkpoint_of_magic_version_and_crc_alone_exits_3(self, ws, tmp_path, capsys):
        tiny = tmp_path / "tiny.ckpt"
        tiny.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, 0))
        capsys.readouterr()
        assert main(_args(ws, "eval", "--corpus", str(ws["corpus"]), "--checkpoint", str(tiny))) == 3
        assert f"integrity error: {tiny}: checkpoint truncated to 12 bytes" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("eval", "k", "five"), ("corpus", "n_pages", "many"), ("corpus", "grid_rows", 3.0),
        ("trainer", "batch_size", 2.5),
    ])
    def test_wrong_typed_config_value_exits_2(self, tmp_path, capsys, section, key, value):
        config = tmp_path / "run.yaml"
        config.write_text(f"{section}:\n  {key}: {value}\n", encoding="utf-8")
        assert main(["gen", "--config", str(config), "--out", str(tmp_path / "c.jsonl")]) == 2
        assert f"config value {section}.{key} must be" in capsys.readouterr().err
        assert not (tmp_path / "c.jsonl").exists()

    @pytest.mark.parametrize("line, name", [
        ("seed: many", "seed"), ("seed: true", "seed"), ("ablation_rows: full", "ablation_rows"),
    ])
    def test_wrong_typed_top_level_value_exits_2(self, tmp_path, capsys, line, name):
        config = tmp_path / "run.yaml"
        config.write_text(line + "\n", encoding="utf-8")
        assert main(["gen", "--config", str(config), "--out", str(tmp_path / "c.jsonl")]) == 2
        assert f"config value {name} must be" in capsys.readouterr().err
        assert not (tmp_path / "c.jsonl").exists()

    def test_bad_thread_count(self, ws, tmp_path, capsys):
        assert main(_args(ws, "gen", "--threads", "0", "--out", str(tmp_path / "c.jsonl"))) == 2
        assert "argument error" in capsys.readouterr().err

    def test_thread_count_accepted(self, ws, tmp_path):
        assert main(_args(ws, "gen", "--threads", "2", "--out", str(tmp_path / "c.jsonl"))) == 0

    def test_variant_choices_enforced(self, ws, tmp_path, capsys):
        args = _args(ws, "train", "--corpus", str(ws["corpus"]), "--out", str(tmp_path / "x.ckpt"),
                     "--variant", "no_such_variant")
        assert main(args) == 2
        assert "unknown training variant 'no_such_variant'" in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()


class TestTrainerVariants:
    def test_finetuned_composes_only_with_full(self, ws, tmp_path, capsys):
        cfg = tmp_path / "ft.yaml"
        save_config(_small_run_config(cross_context="finetuned"), cfg)
        args = ["train", "--config", str(cfg), "--corpus", str(ws["corpus"]),
                "--out", str(tmp_path / "x.ckpt"), "--variant", "retrieval_only"]
        assert main(args) == 2
        assert "finetuned" in capsys.readouterr().err

    def test_trainer_cross_context_needs_the_finetuned_mode(self, ws, tmp_path, capsys):
        data = _small_run_config().to_dict()
        data["trainer"]["cross_context"] = True
        config = tmp_path / "bypass.yaml"
        config.write_text(yaml.safe_dump(data), encoding="utf-8")
        out = tmp_path / "x.ckpt"
        args = ["train", "--config", str(config), "--corpus", str(ws["corpus"]), "--out", str(out),
                "--variant", "loss_no_global"]
        capsys.readouterr()
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "trainer.cross_context: true needs cross_context: finetuned, got 'off'" in err
        assert not out.exists()

    def test_removed_loss_switch_key_exits_2(self, ws, tmp_path, capsys):
        config = tmp_path / "switch.yaml"
        config.write_text("trainer:\n  enable_global: false\n", encoding="utf-8")
        args = ["train", "--config", str(config), "--corpus", str(ws["corpus"]), "--out", str(tmp_path / "x.ckpt")]
        assert main(args) == 2
        assert "config section 'trainer' has unknown keys: ['enable_global']" in capsys.readouterr().err

    @pytest.mark.parametrize("variant", ["loss_no_global", "loss_no_local", "retrieval_only"])
    def test_variant_is_full_with_its_weights_at_zero(self, ws, tmp_path, variant):
        zero = {"loss_no_global": ["weight_global"], "loss_no_local": ["weight_local"],
                "retrieval_only": ["weight_global", "weight_local"]}[variant]

        def train(name, variant, **weights):
            config = tmp_path / f"{name}.yaml"
            save_config(_small_run_config(trainer=small_trainer_config(epochs=1, **weights)), config)
            assert main(["train", "--config", str(config), "--corpus", str(ws["corpus"]), "--variant", variant,
                         "--out", str(tmp_path / f"{name}.ckpt")]) == 0
            return [(tmp_path / f"{name}.{suffix}").read_bytes() for suffix in ("ckpt", "ckpt.log.json")]

        by_variant = train("variant", variant)
        assert train("weights", "full", **{key: 0.0 for key in zero}) == by_variant
        assert train("full", "full") != by_variant

    def test_retrieval_only_variant_trains(self, ws, tmp_path, capsys):
        capsys.readouterr()
        args = _args(ws, "train", "--corpus", str(ws["corpus"]), "--out", str(tmp_path / "ro.ckpt"),
                     "--variant", "retrieval_only")
        assert main(args) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["variant"] == "retrieval_only"
