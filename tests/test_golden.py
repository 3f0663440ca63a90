"""Golden digests: the sha256 of every artifact and every stdout of one tiny
CLI chain, pinned in tests/golden.json.

The chain is gen; train full, retrieval_only, loss_no_global, loss_no_local
and the cross-context finetuned checkpoint; index; eval plain, from the
index, frozen cross-context and finetuned; ablate; and search at k = 1 and
k = n under all rows and under a saved global-only `scoring:` config (its
digests keep the names of the search flags it replaced). A change that moves one bit anywhere on that path
fails here. The digests hold for the numpy, BLAS and CPU they were recorded
on, which the file names.

A change that moves bits on purpose rewrites the file with

    PYTHONPATH=src python tests/test_golden.py

which first prints the names whose digests moved against the committed
file; the change names them in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from conftest import small_corpus_config, small_encoder_config, small_trainer_config

from glint.cli import main
from glint.config import RunConfig, save_config
from glint.scoring import ScoringFlags

GOLDEN = Path(__file__).with_name("golden.json")
_VARIANTS = ("full", "retrieval_only", "loss_no_global", "loss_no_local")
_QUERY = "64,65,66"
_N_PAGES = small_corpus_config().n_pages


def host() -> dict:
    """The numpy, BLAS and CPU features the bits depend on."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_features": sorted(name for name, on in __cpu_features__.items() if on),
    }


def run_chain(workdir: Path) -> dict[str, str]:
    """Run the chain in workdir with relative paths; the sha256 of every
    stdout and every file it leaves, by name."""
    digests = {}

    def run(name: str, *argv: str) -> None:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(list(argv)) == 0, f"{name} failed"
        digests[f"stdout/{name}"] = hashlib.sha256(out.getvalue().encode()).hexdigest()

    base = dict(corpus=small_corpus_config(), encoder=small_encoder_config(),
                trainer=small_trainer_config(), eval_k=3)
    for mode in ("off", "frozen", "finetuned"):
        save_config(RunConfig(cross_context=mode, **base), workdir / f"{mode}.yaml")
    save_config(RunConfig(scoring=ScoringFlags(use_query_global=False, use_patches=False), **base),
                workdir / "global_only.yaml")
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        off, corpus = ["--config", "off.yaml"], ["--corpus", "corpus.jsonl"]
        Path("ckpts").mkdir()
        run("gen", "gen", *off, "--out", "corpus.jsonl")
        for variant in _VARIANTS:
            run(f"train_{variant}", "train", *off, *corpus, "--variant", variant, "--out", f"ckpts/{variant}.ckpt")
        run("train_finetuned", "train", "--config", "finetuned.yaml", *corpus, "--out", "finetuned.ckpt")
        full = ["--checkpoint", "ckpts/full.ckpt"]
        run("index", "index", *off, *full, *corpus, "--out", "pages.idx")
        run("eval", "eval", *off, *corpus, *full, "--report-out", "eval.csv")
        run("eval_index", "eval", *off, *corpus, *full, "--index", "pages.idx", "--report-out", "eval_index.csv")
        run("eval_frozen", "eval", "--config", "frozen.yaml", *corpus, *full, "--report-out", "eval_frozen.csv")
        run("eval_finetuned", "eval", "--config", "finetuned.yaml", *corpus, "--checkpoint", "finetuned.ckpt",
            "--report-out", "eval_finetuned.csv")
        run("ablate", "ablate", *off, *corpus, "--checkpoints", "ckpts", "--report-out", "ablate.csv")
        for name, config in (("search", "off.yaml"), ("search--no-query-global--no-patches", "global_only.yaml")):
            for k in (1, _N_PAGES):
                run(f"{name}_k{k}", "search", "--config", config, *full, "--index", "pages.idx",
                    "--query", _QUERY, "-k", str(k))
    finally:
        os.chdir(cwd)
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        digests[path.relative_to(workdir).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def moved(recorded: dict[str, str], got: dict[str, str]) -> list[str]:
    """Names whose digest differs, or that only one side has."""
    return sorted(name for name in recorded.keys() | got.keys() if recorded.get(name) != got.get(name))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_every_artifact_and_stdout_matches_the_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = run_chain(tmp_path)
    changed = moved(golden["digests"], got)
    assert not changed, (
        f"digests moved: {changed}\nrecorded on {golden['host']}\nthis host  {host()}\n"
        "If the change moves these bits on purpose, rewrite tests/golden.json with "
        "`PYTHONPATH=src python tests/test_golden.py` and name them in CHANGES.md."
    )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {"host": host(), "digests": run_chain(Path(tmp))}
    recorded = json.loads(GOLDEN.read_text())["digests"] if GOLDEN.exists() else {}
    for name in moved(recorded, record["digests"]):
        print(f"moved: {name}")
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}: {len(record['digests'])} digests")
