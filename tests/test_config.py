"""Config file parsing, overrides, and dataset/objective builders."""
import re

import numpy as np
import pytest

from osgd.config import (DataConfig, ModelConfig, OptConfig, RunConfig,
                         build_dataset, build_objective, config_from_flat,
                         load_config, parse_config_text)
from osgd.data import FormatError


class TestParsing:
    def test_basic_lines_comments_and_blanks(self):
        flat = parse_config_text("""
        # a comment
        name = demo
        opt.lr = 0.05   # trailing comment
        model.hidden = 8, 4
        """)
        assert flat == {"name": "demo", "opt.lr": "0.05",
                        "model.hidden": "8, 4"}

    def test_missing_equals_rejected_with_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_config_text("a = 1\nnonsense\n")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            config_from_flat({"not.a.key": "1"})

    def test_defaults_mirror_standard_setting(self):
        cfg = config_from_flat({})
        assert cfg.opt.batch_size == 64
        assert cfg.opt.schedule.base_lr == 0.01
        assert cfg.opt.momentum == 0.9
        assert cfg.l2 == 1e-4
        assert cfg.opt.q == "adaptive"
        assert cfg.opt.schedule.kind == "step-decay"
        assert cfg.opt.schedule.decay_epochs == (9,)
        assert cfg.opt.schedule.decay_factor == 0.1

    def test_fixed_q_syntax(self):
        cfg = config_from_flat({"opt.q": "fixed:8"})
        assert cfg.opt.q == 8
        cfg = config_from_flat({"opt.q": "16"})
        assert cfg.opt.q == 16

    def test_invalid_q_string_rejected(self):
        with pytest.raises(ValueError, match="adaptive"):
            config_from_flat({"opt.q": "sometimes"})

    def test_opt_lr_feeds_schedule_base(self):
        cfg = config_from_flat({"opt.lr": "0.5",
                                "opt.schedule.kind": "constant"})
        assert cfg.opt.schedule.base_lr == 0.5
        with pytest.raises(TypeError):
            OptConfig(kind="osgd", lr=0.5)  # the schedule owns the rate

    def test_seed_list_and_hidden_tuple(self):
        cfg = config_from_flat({"seeds": "3, 5, 8",
                                "model.kind": "mlp",
                                "model.hidden": "16 16"})
        assert cfg.seeds == (3, 5, 8)
        assert cfg.model.hidden == (16, 16)

    def test_load_config_with_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("name = base\nepochs = 7\n")
        cfg = load_config(path, overrides=["epochs = 2", "name = patched"])
        assert cfg.name == "patched"
        assert cfg.epochs == 2


class TestBuilders:
    def test_synthetic_datasets_get_identity_splits(self):
        ds = build_dataset(DataConfig(kind="rings", seed=1))
        np.testing.assert_array_equal(ds.splits["train"], np.arange(1000))
        np.testing.assert_array_equal(ds.splits["test"], np.arange(1000))

    def test_split_fraction_applies(self):
        ds = build_dataset(DataConfig(kind="clusters", seed=0,
                                      test_fraction=0.25, stratified=False),
                           split_seed=4)
        assert len(ds.splits["test"]) == 50
        assert len(ds.splits["train"]) == 150

    def test_split_seed_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            config_from_flat({"data.split_seed": "11"})

    def test_split_seed_argument_beats_data_seed(self):
        dc = DataConfig(kind="clusters", seed=0, test_fraction=0.2)
        a = build_dataset(dc)                 # split drawn with dc.seed
        b = build_dataset(dc, split_seed=12)  # explicit wins
        assert not np.array_equal(a.splits["test"], b.splits["test"])
        np.testing.assert_array_equal(
            a.splits["test"], build_dataset(dc, split_seed=0).splits["test"])

    def test_cache_roundtrip_through_config(self, tmp_path):
        from osgd.data import gen_clusters_2d, save_cache
        path = tmp_path / "c.osgd"
        save_cache(gen_clusters_2d(3), path)
        ds = build_dataset(DataConfig(kind="cache", path=str(path)))
        assert ds.n == 200

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            DataConfig(kind="imagenet")

    def test_objective_output_arity(self):
        ds = build_dataset(DataConfig(kind="clusters", seed=0))
        cfg = RunConfig(loss_kind="binary-cross-entropy")
        assert build_objective(cfg, ds).model.d_out == 1
        cfg = RunConfig(loss_kind="multinomial-cross-entropy")
        assert build_objective(cfg, ds).model.d_out == 2

    def test_mlp_objective_uses_model_config(self):
        ds = build_dataset(DataConfig(kind="rings", seed=0))
        cfg = RunConfig(model=ModelConfig(kind="mlp", hidden=(5, 4),
                                          activation="sigmoid"),
                        loss_kind="binary-cross-entropy")
        obj = build_objective(cfg, ds)
        assert obj.model.hidden == (5, 4)
        assert obj.model.activation == "sigmoid"

    def test_invalid_optimizer_kind_rejected(self):
        with pytest.raises(ValueError):
            OptConfig(kind="lbfgs")

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(seeds=())


class TestRunSettingChecks:
    """Bad run settings fail when the config is built, naming the key."""

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_eval_every_below_one_rejected(self, value):
        with pytest.raises(ValueError, match="eval_every must be at least 1"):
            config_from_flat({"eval_every": value})

    def test_batch_size_below_one_rejected(self):
        with pytest.raises(ValueError,
                           match="opt.batch_size must be at least 1, got 0"):
            config_from_flat({"opt.batch_size": "0"})

    @pytest.mark.parametrize("value", ["0", "-3", "fixed:0"])
    def test_integer_q_below_one_rejected(self, value):
        with pytest.raises(ValueError, match="opt.q must be at least 1"):
            config_from_flat({"opt.q": value})

    @pytest.mark.parametrize("value", ["-0.1", "1.0", "1.5"])
    def test_momentum_outside_unit_interval_rejected(self, value):
        with pytest.raises(ValueError, match=r"opt.momentum must lie in \[0, 1\)"):
            config_from_flat({"opt.momentum": value})

    @pytest.mark.parametrize("key,value", [("opt.q", "2.5"),
                                           ("opt.q", "fixed:2.5"),
                                           ("opt.batch_size", "20.5"),
                                           ("epochs", "1.5"),
                                           ("eval_every", "2.0")])
    def test_non_integer_rejected(self, key, value):
        with pytest.raises(ValueError,
                           match=f"{re.escape(key)} must be an integer"):
            config_from_flat({key: value})

    def test_dataclasses_reject_non_integers(self):
        with pytest.raises(ValueError, match="opt.q must be an integer"):
            OptConfig(q=2.0)
        with pytest.raises(ValueError, match="opt.q must be an integer"):
            OptConfig(q=True)
        with pytest.raises(ValueError, match="epochs must be an integer"):
            RunConfig(epochs=1.5)
        assert OptConfig(q=np.int64(3), batch_size=np.int64(8)).q == 3

    @pytest.mark.parametrize("key,value", [("reg.l2", "nan"),
                                           ("reg.l2", "inf"),
                                           ("opt.schedule.base_lr", "nan"),
                                           ("opt.schedule.base_lr", "inf"),
                                           ("opt.lr", "inf")])
    def test_non_finite_rejected(self, key, value):
        name = "reg.l2" if key == "reg.l2" else "opt.schedule.base_lr"
        with pytest.raises(ValueError, match=f"{re.escape(name)} must be"):
            config_from_flat({key: value})

    @pytest.mark.parametrize("key,value", [("eval_every", "1"),
                                           ("opt.batch_size", "1"),
                                           ("opt.q", "1"),
                                           ("opt.momentum", "0.0"),
                                           ("opt.momentum", "0.99")])
    def test_edge_values_accepted(self, key, value):
        config_from_flat({key: value})
