"""Config file parsing, overrides, and dataset/objective builders."""
import os
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osgd import config
from osgd._settings import Section, key_of
from osgd.config import (DATASET_KINDS, DataConfig, ModelConfig, OptConfig,
                         RunConfig, build_dataset, build_objective,
                         config_from_flat, load_config, parse_config_text)
from osgd.data import FormatError, gen_rings_2d, split_dataset
from osgd.objectives import LOSS_KINDS
from osgd.optimizers import ScheduleSpec

from conftest import REMOVED_SETTINGS


def setting_keys(section=RunConfig()):
    """(dotted key, default) of every run setting, in declaration order."""
    for f in fields(section):
        value = getattr(section, f.name)
        if isinstance(value, Section):
            yield from setting_keys(value)
        else:
            yield key_of(section, f), value


KEYS = [key for key, _ in setting_keys()]


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

    def test_repeated_key_rejected_with_both_lines(self):
        with pytest.raises(ValueError,
                           match=r"^line 4: opt\.q repeats line 2$"):
            parse_config_text("name = a\nopt.q = 8\n# opt.q = 2\nopt.q = 4\n")

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

    def test_no_keys_give_the_default_config(self):
        assert config_from_flat({}) == RunConfig()

    def test_one_spelling_for_each_of_24_settings(self):
        assert len(KEYS) == len(set(KEYS)) == 24

    @pytest.mark.parametrize("text,message", REMOVED_SETTINGS.items(),
                             ids=list(REMOVED_SETTINGS))
    def test_removed_setting_rejected_naming_it(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            config_from_flat(parse_config_text(text))

    def test_integer_q(self):
        cfg = config_from_flat({"opt.q": "16"})
        assert cfg.opt.q == 16

    def test_invalid_q_string_rejected(self):
        with pytest.raises(ValueError, match="adaptive"):
            config_from_flat({"opt.q": "sometimes"})

    def test_schedule_owns_the_rate(self):
        with pytest.raises(TypeError):
            OptConfig(kind="osgd", lr=0.5)

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


# data.kind -> (its loader's name on osgd.config, the arguments that
# LOADER_CONFIG passes it)
LOADER_CALLS = {
    "clusters": ("gen_clusters_2d", (7,)),
    "rings": ("gen_rings_2d", (7,)),
    "semeion": ("load_semeion", ("rows.data",)),
    "idx": ("load_idx", ("images.idx", "labels.idx")),
}
LOADER_CONFIG = dict(seed=7, path="rows.data", images="images.idx",
                     labels="labels.idx")


class TestBuilders:
    def test_dataset_kinds_are_the_loader_table(self):
        assert DATASET_KINDS == tuple(config._LOADERS) == tuple(LOADER_CALLS)
        for kind in DATASET_KINDS:
            assert DataConfig(kind=kind).kind == kind

    @pytest.mark.parametrize("kind", list(LOADER_CALLS))
    def test_build_dataset_calls_the_loader_patched_on_config(
            self, monkeypatch, kind):
        name, args = LOADER_CALLS[kind]
        rows, calls = gen_rings_2d(0), []
        monkeypatch.setattr(config, name,
                            lambda *a: calls.append(a) or rows)
        assert build_dataset(DataConfig(kind=kind, **LOADER_CONFIG)) is rows
        assert calls == [args]

    @pytest.mark.parametrize("fraction", [0.0, 0.25])
    def test_build_dataset_returns_the_rows_without_a_split(self, fraction):
        dc = DataConfig(kind="clusters", seed=4, test_fraction=fraction)
        ds = build_dataset(dc)
        assert ds.splits == {}
        np.testing.assert_array_equal(ds.features,
                                      config.gen_clusters_2d(4).features)

    def test_synthetic_datasets_get_identity_splits(self):
        dc = DataConfig(kind="rings", seed=1)
        ds = dc.split(build_dataset(dc), dc.seed)
        np.testing.assert_array_equal(ds.splits["train"], np.arange(1000))
        np.testing.assert_array_equal(ds.splits["test"], np.arange(1000))

    def test_split_fraction_applies(self):
        dc = DataConfig(kind="clusters", seed=4, test_fraction=0.25)
        ds = dc.split(build_dataset(dc), dc.seed)
        assert len(ds.splits["test"]) == 50
        assert len(ds.splits["train"]) == 150

    @pytest.mark.parametrize("fraction", [0.1, 0.25, 0.5])
    @pytest.mark.parametrize("kind", ["clusters", "rings"])
    def test_split_is_always_stratified(self, kind, fraction):
        dc = DataConfig(kind=kind, seed=2, test_fraction=fraction)
        ds = dc.split(build_dataset(dc), dc.seed)
        want = split_dataset(ds, fraction, 2, stratified=True)
        for name in ("train", "test"):
            np.testing.assert_array_equal(ds.splits[name], want.splits[name])
        test_labels = ds.labels[ds.splits["test"]]
        for cls in range(ds.n_classes):
            count = int(np.sum(ds.labels == cls))
            assert np.sum(test_labels == cls) == int(np.floor(count * fraction))

    def test_split_seed_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            config_from_flat({"data.split_seed": "11"})

    def test_split_redraws_over_every_row_with_its_seed(self):
        dc = DataConfig(kind="clusters", seed=0, test_fraction=0.2)
        a = dc.split(build_dataset(dc), dc.seed)
        b = dc.split(a, 12)    # a's splits are not kept
        assert not np.array_equal(a.splits["test"], b.splits["test"])
        np.testing.assert_array_equal(
            np.sort(np.concatenate([b.splits["train"], b.splits["test"]])),
            np.arange(a.n))
        for name in ("train", "test"):
            np.testing.assert_array_equal(a.splits[name],
                                          dc.split(b, 0).splits[name])

    def test_split_without_a_test_fraction_keeps_every_row(self):
        dc = DataConfig(kind="rings", seed=1)
        ds = gen_rings_2d(1)
        assert dc.split(ds, 5).splits.keys() == {"train", "test"}
        np.testing.assert_array_equal(dc.split(ds, 5).splits["test"],
                                      np.arange(ds.n))
        given = ds.with_splits({"train": np.arange(10),
                                "test": np.arange(10, 20)})
        assert dc.split(given, 5) is given

    @pytest.mark.parametrize("kind, files, missing", [
        ("semeion", {}, "data.path"),
        ("idx", {}, "data.images and data.labels"),
        ("idx", {"labels": "labels.idx"}, "data.images"),
        ("idx", {"images": "images.idx"}, "data.labels")],
        ids=["semeion", "idx-both", "idx-images", "idx-labels"])
    def test_build_dataset_names_an_unset_file_before_loading(
            self, monkeypatch, kind, files, missing):
        dc = DataConfig(kind=kind, **files)  # a config without files builds
        name, _ = LOADER_CALLS[kind]
        calls = []
        monkeypatch.setattr(config, name, lambda *a: calls.append(a))
        with pytest.raises(ValueError, match=rf"^data.kind {kind} needs "
                                             rf"{missing} set$"):
            build_dataset(dc)
        assert calls == []

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            DataConfig(kind="imagenet")

    def test_cache_kind_is_gone(self):
        with pytest.raises(ValueError, match=r"^data.kind must be one of "
                                             r"clusters, rings, semeion, idx, "
                                             r"got 'cache'$"):
            DataConfig(kind="cache")

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

    @pytest.mark.parametrize("loss_kind", LOSS_KINDS)
    @pytest.mark.parametrize("model", [ModelConfig(kind="linear"),
                                       ModelConfig(kind="mlp", hidden=(5, 3))],
                             ids=["linear", "mlp"])
    def test_objective_models_always_have_biases(self, model, loss_kind):
        ds = build_dataset(DataConfig(kind="clusters", seed=0))
        m = build_objective(RunConfig(model=model, loss_kind=loss_kind),
                            ds).model
        widths = (m.d_in, *m.hidden, m.d_out)
        assert m.bias
        assert m.n_params == sum((inp + 1) * out for inp, out
                                 in zip(widths[:-1], widths[1:]))

    def test_invalid_optimizer_kind_rejected(self):
        with pytest.raises(ValueError):
            OptConfig(kind="lbfgs")

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(seeds=())


class TestRunSettingChecks:
    """Bad run settings fail when the config is built, naming the key."""

    def test_batch_size_below_one_rejected(self):
        with pytest.raises(ValueError,
                           match="opt.batch_size must be at least 1, got 0"):
            config_from_flat({"opt.batch_size": "0"})

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_integer_q_below_one_rejected(self, value):
        with pytest.raises(ValueError, match="opt.q must be at least 1"):
            config_from_flat({"opt.q": value})

    @pytest.mark.parametrize("flat", [
        {"opt.q": "100"},
        {"opt.q": "9", "opt.batch_size": "8"},
        {"opt.q": "9", "opt.batch_size": "8", "opt.kind": "sgd"}])
    def test_integer_q_above_batch_size_rejected(self, flat):
        size = flat.get("opt.batch_size", "64")
        with pytest.raises(ValueError, match=(
                f"^opt.q must be at most opt.batch_size = {size}, "
                f"got {flat['opt.q']}$")):
            config_from_flat(flat)
        assert config_from_flat({**flat, "opt.q": size}).opt.q == int(size)

    @pytest.mark.parametrize("value", ["-0.1", "1.0", "1.5"])
    def test_momentum_outside_unit_interval_rejected(self, value):
        with pytest.raises(ValueError, match=r"opt.momentum must lie in \[0, 1\)"):
            config_from_flat({"opt.momentum": value})

    @pytest.mark.parametrize("key,value", [("opt.q", "2.5"),
                                           ("opt.batch_size", "20.5"),
                                           ("epochs", "1.5")])
    def test_non_integer_rejected(self, key, value):
        with pytest.raises(ValueError,
                           match=f"{re.escape(key)} must be an integer"):
            config_from_flat({key: value})

    @pytest.mark.parametrize("value", ["0, 0", "3, 1, 3", "7, 7, 7"])
    def test_repeated_seed_rejected(self, value):
        with pytest.raises(ValueError,
                           match="^seeds must not repeat a seed, got "):
            config_from_flat({"seeds": value})

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
                                           ("opt.schedule.base_lr", "inf")])
    def test_non_finite_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"{re.escape(key)} must be"):
            config_from_flat({key: value})

    @pytest.mark.parametrize("value", ["16, -3", "0", "16, 0"])
    def test_hidden_width_below_one_rejected(self, value):
        with pytest.raises(ValueError,
                           match="model.hidden widths must be at least 1"):
            config_from_flat({"model.kind": "mlp", "model.hidden": value})

    @pytest.mark.parametrize("value", ["16, x", "2.5"])
    def test_hidden_width_non_integer_rejected(self, value):
        with pytest.raises(ValueError,
                           match="model.hidden must be a list of integers"):
            config_from_flat({"model.kind": "mlp", "model.hidden": value})

    @pytest.mark.parametrize("value", ["1.5", "1", "-0.25", "nan"])
    def test_test_fraction_outside_unit_interval_rejected(self, value):
        with pytest.raises(ValueError,
                           match=r"data.test_fraction must lie in \[0, 1\)"):
            config_from_flat({"data.test_fraction": value})

    @pytest.mark.parametrize("value", ["0, x", "0, 1.5", "seven"])
    def test_non_integer_seed_rejected(self, value):
        with pytest.raises(ValueError,
                           match="seeds must be a list of integers"):
            config_from_flat({"seeds": value})

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seeds must be nonnegative"):
            config_from_flat({"seeds": "0, -1"})

    def test_dataclasses_reject_bad_entries(self):
        with pytest.raises(ValueError, match="seeds must be an integer"):
            RunConfig(seeds=(0, 1.5))
        with pytest.raises(ValueError,
                           match="model.hidden must be an integer"):
            ModelConfig(kind="mlp", hidden=(16, 2.5))
        with pytest.raises(ValueError, match="model.hidden widths"):
            ModelConfig(kind="mlp", hidden=(16, -3))

    @pytest.mark.parametrize("key,value", [("opt.batch_size", "1"),
                                           ("opt.q", "1"),
                                           ("opt.momentum", "0.0"),
                                           ("opt.momentum", "0.99"),
                                           ("data.test_fraction", "0.0"),
                                           ("data.test_fraction", "0.99"),
                                           ("model.hidden", "1"),
                                           ("seeds", "0, 7")])
    def test_edge_values_accepted(self, key, value):
        # widths are accepted only with the mlp kind
        kind = {"model.kind": "mlp"} if key == "model.hidden" else {}
        config_from_flat({**kind, key: value})

    @pytest.mark.parametrize("key,value,rule", [
        ("data.seed", "1.5", "must be an integer"),
        ("data.seed", "-3", "must be nonnegative"),
        ("seeds", "0, 0, 1", r"must not repeat a seed, got \(0, 0, 1\)$"),
        ("model.kind", "cnn", "must be one of linear, mlp"),
        ("model.hidden", "16", r"must be empty for model.kind linear, "
                               r"got \(16,\)$"),
        ("model.activation", "gelu", "must be one of"),
        ("loss.kind", "mse", "must be one of"),
        ("opt.schedule.kind", "linear", "must be one of"),
        ("opt.schedule.decay_factor", "1.5", r"must lie in \(0, 1\]"),
        ("opt.schedule.decay_factor", "0", r"must lie in \(0, 1\]"),
        ("opt.schedule.decay_epochs", "-1", "must be nonnegative"),
        ("opt.schedule.decay_epochs", "9, 2.5", "must be a list of integers"),
    ])
    def test_bad_value_rejected_naming_key(self, key, value, rule):
        with pytest.raises(ValueError, match=f"^{re.escape(key)} {rule}"):
            config_from_flat({key: value})

    @pytest.mark.parametrize("build,message", [
        (lambda: DataConfig(seed=1.5), "data.seed must be an integer"),
        (lambda: DataConfig(seed=-3), "data.seed must be nonnegative"),
        (lambda: RunConfig(seeds=(2, 5, 2)), "seeds must not repeat a seed"),
        (lambda: ModelConfig(kind="cnn"), "model.kind must be one of"),
        (lambda: ModelConfig(hidden=(16, 16)),
         "model.hidden must be empty for model.kind linear, got (16, 16)"),
        (lambda: RunConfig(loss_kind="mse"), "loss.kind must be one of"),
        (lambda: ScheduleSpec(kind="linear"), "opt.schedule.kind must be"),
        (lambda: ScheduleSpec(decay_factor=2.0),
         "opt.schedule.decay_factor must lie in"),
        (lambda: ScheduleSpec(decay_epochs=(2.5, -1)),
         "opt.schedule.decay_epochs must be an integer"),
        (lambda: ScheduleSpec(decay_epochs=(3, -1)),
         "opt.schedule.decay_epochs must be nonnegative"),
    ])
    def test_constructors_reject_naming_key(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            build()

    @pytest.mark.parametrize("build", [
        lambda: config_from_flat({"model.kind": "mlp"}),
        lambda: config_from_flat({"model.kind": "mlp", "model.hidden": ""}),
        lambda: ModelConfig(kind="mlp"),
        lambda: RunConfig(model=ModelConfig(kind="mlp", activation="relu"))])
    def test_mlp_without_hidden_widths_rejected_naming_kind(self, build):
        with pytest.raises(ValueError, match=r"^model\.kind mlp needs at least "
                                             r"one width in model\.hidden"):
            build()

    def test_mlp_with_hidden_widths_builds(self):
        cfg = config_from_flat({"model.kind": "mlp", "model.hidden": "16"})
        assert cfg.model.hidden == (16,)


VALUES = st.one_of(
    st.integers(-3, 300).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "true", "false", "yes",
                     "adaptive", "mlp", "relu",
                     "squared", "rings", "step-decay", "iid", "oadam"]),
    st.lists(st.integers(-3, 300), max_size=4).map(
        lambda v: ", ".join(map(str, v))),
    st.text(max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(KEYS), VALUES, max_size=6))
def test_config_from_flat_fuzz(flat):
    """Random settings either build or fail naming a key that fails alone."""
    try:
        cfg = config_from_flat(flat)
    except ValueError as exc:
        named = str(exc).split()[0]
        assert named in flat, str(exc)
        with pytest.raises(ValueError, match=f"^{re.escape(named)} "):
            config_from_flat({named: flat[named]})
    else:
        assert isinstance(cfg, RunConfig)


def test_readme_table_lists_every_key_and_default():
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme) as fh:
        text = fh.read()
    table = text.split("| key | default | accepted values |")[1].split("\n\n")[0]
    rows = [line.split("|")[1:3] for line in table.splitlines()[2:]]
    documented = {key.strip(" `"): default.strip(" `") for key, default in rows}
    assert list(documented) == KEYS
    for key, default in documented.items():
        assert config_from_flat({key: default}) == RunConfig(), key
