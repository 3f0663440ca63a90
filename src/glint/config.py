"""Run configuration: one serializable object that reproduces a whole run.

A RunConfig bundles the corpus, encoder, trainer, and evaluation settings
plus the cross-context mode. Persisted as YAML; loading rejects unknown keys
so a typo cannot silently fall back to a default. A top-level `seed` fills
in every section seed left unset and is not stored itself. YAML 1.1 parses
a bare `off` as boolean false, so the loader normalizes that back to the
string.
"""

from __future__ import annotations

import dataclasses
import types
import typing
from dataclasses import dataclass, field, replace
from pathlib import Path

import yaml

from .atomic import write_atomic
from .corpus import CorpusConfig
from .encoder import EncoderConfig
from .errors import ConfigurationError
from .scoring import ScoringFlags
from .training import TrainerConfig

CROSS_CONTEXT_MODES = ("off", "frozen", "finetuned")


@dataclass
class RunConfig:
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    scoring: ScoringFlags = field(default_factory=ScoringFlags)
    eval_k: int = 5
    eval_split: str = "test"
    cross_context: str = "off"
    ablation_rows: list[str] | None = None

    def __post_init__(self):
        if self.cross_context not in CROSS_CONTEXT_MODES:
            raise ConfigurationError(
                f"cross_context must be one of {CROSS_CONTEXT_MODES}, got {self.cross_context!r}"
            )
        if self.eval_k < 1:
            raise ConfigurationError(f"eval_k must be >= 1, got {self.eval_k}")
        if self.eval_split not in ("train", "dev", "test"):
            raise ConfigurationError(f"eval_split must be train/dev/test, got {self.eval_split!r}")
        if self.trainer.cross_context and self.cross_context != "finetuned":
            raise ConfigurationError(
                f"trainer.cross_context: true needs cross_context: finetuned, got {self.cross_context!r}"
            )

    def with_seed(self, seed: int) -> "RunConfig":
        """Propagate one seed into every seeded component."""
        return replace(
            self,
            corpus=replace(self.corpus, seed=seed),
            encoder=replace(self.encoder, seed=seed),
            trainer=replace(self.trainer, seed=seed),
        )

    @classmethod
    def directional(cls, seed: int = 0) -> "RunConfig":
        """The profile used for seed-averaged directional comparisons: the
        200-page corpus trained long enough for layout supervision to bind.

        Early stopping is disabled (patience = epochs) because the dev split
        is small and noisy at this scale; the best-dev checkpoint is still
        the one kept."""
        cfg = cls(trainer=TrainerConfig(epochs=150, warmup_steps=20, early_stop_patience=150))
        return cfg.with_seed(seed)

    def to_dict(self) -> dict:
        return {
            "corpus": dataclasses.asdict(self.corpus),
            "encoder": dataclasses.asdict(self.encoder),
            "trainer": dataclasses.asdict(self.trainer),
            "scoring": dataclasses.asdict(self.scoring),
            "eval": {"k": self.eval_k, "split": self.eval_split},
            "cross_context": self.cross_context,
            "ablation_rows": None if self.ablation_rows is None else list(self.ablation_rows),
        }


def _check_types(data: dict, hints: dict, where: str) -> None:
    """Refuse a value whose type is not its field's: an int may stand for a
    float, a bool never stands for a number, and None only where the field
    type admits it."""
    for key, value in data.items():
        hint = hints[key]
        allowed = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
        ok = isinstance(value, allowed) or (float in allowed and isinstance(value, int))
        if not ok or (isinstance(value, bool) and bool not in allowed):
            names = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
            raise ConfigurationError(f"config value {where}.{key} must be {names}, got {value!r}")


def _build_section(cls, data: dict, where: str, seed: int | None = None):
    """Build one section; a top-level `seed` fills in a section seed left unset."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"config section {where!r} must be a mapping")
    if seed is not None:
        data = {"seed": seed, **data}
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - names)
    if unknown:
        raise ConfigurationError(f"config section {where!r} has unknown keys: {unknown}")
    _check_types(data, typing.get_type_hints(cls), where)
    return cls(**data)


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigurationError("config root must be a mapping")
    known = {"seed", "corpus", "encoder", "trainer", "scoring", "eval", "cross_context", "ablation_rows"}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigurationError(f"config has unknown top-level keys: {unknown}")

    cross = data.get("cross_context", "off")
    if cross is False:  # YAML 1.1 reads a bare `off` as boolean false
        cross = "off"
    eval_section = data.get("eval", {})
    if not isinstance(eval_section, dict):
        raise ConfigurationError("config section 'eval' must be a mapping")
    eval_types = {"k": int, "split": str}
    unknown_eval = sorted(set(eval_section) - set(eval_types))
    if unknown_eval:
        raise ConfigurationError(f"config section 'eval' has unknown keys: {unknown_eval}")
    _check_types(eval_section, eval_types, "eval")

    seed = data.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise ConfigurationError(f"config value seed must be int, got {seed!r}")
    rows = data.get("ablation_rows")
    if rows is not None and not (isinstance(rows, list) and all(isinstance(r, str) for r in rows)):
        raise ConfigurationError(f"config value ablation_rows must be a list of strings, got {rows!r}")
    return RunConfig(
        corpus=_build_section(CorpusConfig, data.get("corpus", {}), "corpus", seed),
        encoder=_build_section(EncoderConfig, data.get("encoder", {}), "encoder", seed),
        trainer=_build_section(TrainerConfig, data.get("trainer", {}), "trainer", seed),
        scoring=_build_section(ScoringFlags, data.get("scoring", {}), "scoring"),
        eval_k=eval_section.get("k", 5),
        eval_split=eval_section.get("split", "test"),
        cross_context=cross,
        ablation_rows=rows,
    )


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        data = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"{path}: invalid YAML: {exc}") from exc
    if data is None:
        data = {}
    return config_from_dict(data)


def save_config(config: RunConfig, path) -> None:
    text = yaml.safe_dump(config.to_dict(), sort_keys=True, default_flow_style=False)
    write_atomic(path, text.encode("utf-8"))
