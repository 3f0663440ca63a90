"""Run-config construction, seed propagation, and YAML round-trips."""

import pytest

from glint.config import RunConfig, config_from_dict, load_config, save_config
from glint.errors import ConfigurationError
from glint.training import TrainerConfig


class TestRunConfig:
    def test_defaults_are_valid(self):
        cfg = RunConfig()
        assert cfg.cross_context == "off"
        assert cfg.eval_k == 5
        assert cfg.eval_split == "test"

    def test_bad_cross_context_mode(self):
        with pytest.raises(ConfigurationError, match="cross_context"):
            RunConfig(cross_context="sometimes")

    def test_bad_eval_k(self):
        with pytest.raises(ConfigurationError, match="eval_k"):
            RunConfig(eval_k=0)

    def test_bad_eval_split(self):
        with pytest.raises(ConfigurationError, match="eval_split"):
            RunConfig(eval_split="validation")

    def test_with_seed_reaches_every_component(self):
        cfg = RunConfig().with_seed(77)
        assert cfg.corpus.seed == 77
        assert cfg.encoder.seed == 77
        assert cfg.trainer.seed == 77

    def test_with_seed_preserves_everything_else(self):
        cfg = RunConfig(eval_k=3, trainer=TrainerConfig(epochs=9)).with_seed(5)
        assert cfg.eval_k == 3
        assert cfg.trainer.epochs == 9

    def test_top_level_seed_fills_every_unset_section_seed(self):
        cfg = config_from_dict({"seed": 7})
        assert (cfg.corpus.seed, cfg.encoder.seed, cfg.trainer.seed) == (7, 7, 7)
        assert cfg == RunConfig().with_seed(7)
        cfg = config_from_dict({"seed": 7, "corpus": {"seed": 2}})
        assert (cfg.corpus.seed, cfg.encoder.seed, cfg.trainer.seed) == (2, 7, 7)

    def test_top_level_seed_is_not_stored(self, tmp_path):
        cfg = config_from_dict({"seed": 7, "corpus": {"seed": 2}})
        assert "seed" not in cfg.to_dict()
        path = tmp_path / "run.yaml"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_trainer_cross_context_needs_the_finetuned_mode(self):
        for mode in ("off", "frozen"):
            with pytest.raises(ConfigurationError, match="trainer.cross_context.*cross_context: finetuned"):
                RunConfig(cross_context=mode, trainer=TrainerConfig(cross_context=True))
        RunConfig(cross_context="finetuned", trainer=TrainerConfig(cross_context=True))

    def test_directional_profile(self):
        cfg = RunConfig.directional(seed=2)
        assert cfg.trainer.epochs == 150
        assert cfg.trainer.warmup_steps == 20
        assert cfg.trainer.early_stop_patience == 150
        assert cfg.corpus.seed == 2 and cfg.encoder.seed == 2 and cfg.trainer.seed == 2


class TestYamlRoundTrip:
    def test_round_trip_preserves_the_config(self, tmp_path):
        cfg = RunConfig(eval_k=3, cross_context="frozen", ablation_rows=["full", "pool_mean"])
        cfg = cfg.with_seed(11)
        path = tmp_path / "run.yaml"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_rewrite_is_byte_identical(self, tmp_path):
        cfg = RunConfig().with_seed(4)
        a, b = tmp_path / "a.yaml", tmp_path / "b.yaml"
        save_config(cfg, a)
        save_config(cfg, b)
        assert a.read_bytes() == b.read_bytes()

    def test_bare_off_parses_as_the_string(self, tmp_path):
        # YAML 1.1 reads an unquoted `off` as boolean false; the loader must
        # map that back rather than reject its own round-trip.
        path = tmp_path / "run.yaml"
        path.write_text("cross_context: off\n", encoding="utf-8")
        assert load_config(path).cross_context == "off"

    def test_empty_file_is_all_defaults(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("", encoding="utf-8")
        assert load_config(path) == RunConfig()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            load_config(tmp_path / "absent.yaml")

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("trainer: [unclosed\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="invalid YAML"):
            load_config(path)


class TestUnknownKeys:
    def test_top_level(self):
        with pytest.raises(ConfigurationError, match=r"\['evaal'\]"):
            config_from_dict({"evaal": {}})

    def test_inside_a_section(self):
        with pytest.raises(ConfigurationError, match="'trainer'.*learning_rte"):
            config_from_dict({"trainer": {"learning_rte": 0.1}})

    def test_inside_eval(self):
        with pytest.raises(ConfigurationError, match="'eval'"):
            config_from_dict({"eval": {"k": 5, "kk": 10}})

    def test_section_must_be_a_mapping(self):
        with pytest.raises(ConfigurationError, match="must be a mapping"):
            config_from_dict({"corpus": [1, 2]})

    def test_section_values_still_validated(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"trainer": {"tau": -1.0}})
        with pytest.raises(ConfigurationError, match="eval_k"):
            config_from_dict({"trainer": {"eval_k": 0}})
        with pytest.raises(ConfigurationError, match="early_stop_patience"):
            config_from_dict({"trainer": {"early_stop_patience": -1}})
        with pytest.raises(ConfigurationError, match="weight_global"):
            config_from_dict({"trainer": {"weight_global": -1.0}})
        with pytest.raises(ConfigurationError, match="zero document rows"):
            config_from_dict({"scoring": {"use_patches": False, "use_doc_global": False}})


class TestValueTypes:
    @pytest.mark.parametrize("data, where", [
        ({"eval": {"k": "five"}}, "eval.k"),
        ({"corpus": {"n_pages": "many"}}, "corpus.n_pages"),
        ({"corpus": {"grid_rows": 3.0}}, "corpus.grid_rows"),
        ({"trainer": {"batch_size": 2.5}}, "trainer.batch_size"),
        ({"trainer": {"tau": True}}, "trainer.tau"),
        ({"trainer": {"epochs": False}}, "trainer.epochs"),
        ({"encoder": {"ff_dim": 1.5}}, "encoder.ff_dim"),
        ({"scoring": {"use_patches": 1}}, "scoring.use_patches"),
    ])
    def test_wrong_type_names_the_key(self, data, where):
        with pytest.raises(ConfigurationError, match=rf"config value {where} must be"):
            config_from_dict(data)

    @pytest.mark.parametrize("data, message", [
        ({"seed": "many"}, "config value seed must be int, got 'many'"),
        ({"seed": True}, "config value seed must be int, got True"),
        ({"seed": 1.5, "corpus": {"seed": 2}}, "config value seed must be int, got 1.5"),
        ({"ablation_rows": "full"}, "config value ablation_rows must be a list of strings, got 'full'"),
        ({"ablation_rows": ["full", 3]}, "config value ablation_rows must be a list of strings"),
    ])
    def test_wrong_top_level_type_names_the_top_level_key(self, data, message):
        with pytest.raises(ConfigurationError) as excinfo:
            config_from_dict(data)
        assert str(excinfo.value).startswith(message)

    def test_int_stands_for_float_and_none_for_an_unset_default(self):
        cfg = config_from_dict({"trainer": {"learning_rate": 1, "tau": 1}, "encoder": {"ff_dim": None}})
        assert cfg.trainer.learning_rate == 1 and cfg.trainer.tau == 1
        assert cfg.encoder.ff_dim == 4 * cfg.encoder.model_dim
        assert config_from_dict({"encoder": {"ff_dim": 96}}).encoder.ff_dim == 96
