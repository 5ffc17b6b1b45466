"""Runner determinism, summaries, sweeps, and the verification suite."""
import csv
import dataclasses
import hashlib
import json
import os
from itertools import combinations, permutations
from math import factorial
from types import SimpleNamespace

import numpy as np
import pytest

from osgd import (coeffs, data, harness, objectives, optimizers,
                  ordered_loss, selection)
from osgd.config import (DataConfig, ModelConfig, OptConfig, RunConfig,
                         build_dataset, build_objective, load_config)
from osgd.data import gen_clusters_2d
from osgd.harness import (RECORD_COLUMNS, _check_qs_equivalence,
                          _epoch_batches, read_records_csv, run_experiment,
                          run_single, run_verification_suite, sweep_q,
                          write_records_csv, write_summary_csv)
from osgd.objectives import FeedforwardModel, Objective
from osgd.optimizers import ScheduleSpec, adaptive_q_update

from conftest import baseline_theta, stand_in_digits


DIGESTS_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench", "digests.json")


def tiny_config(kind="osgd", q="adaptive", seeds=(0,), epochs=3, name="tiny"):
    return RunConfig(
        name=name,
        data=DataConfig(kind="clusters", seed=11),
        model=ModelConfig(kind="linear"),
        loss_kind="binary-cross-entropy",
        l2=1e-4,
        epochs=epochs,
        seeds=seeds,
        opt=OptConfig(kind=kind, q=q, batch_size=20, momentum=0.9,
                      schedule=ScheduleSpec(kind="constant", base_lr=0.05)),
    )


def strip_time(record):
    row = dataclasses.asdict(record)
    row.pop("epoch_seconds")
    return tuple(row.items())


class TestEquivalences:
    def test_q_equals_s_matches_sgd_stream(self):
        cfg = tiny_config(kind="osgd", q=20, seeds=(1, 2))
        result = run_experiment(cfg)
        for run in result.runs:
            assert [rec.q for rec in run.records] == [20] * cfg.epochs
            ds = cfg.data.split(build_dataset(cfg.data), run.seed)
            assert run.final_theta.tobytes() == \
                baseline_theta(cfg, ds, run.seed, "sgd").tobytes()

    def test_rerun_reproduces_records(self):
        cfg = tiny_config(seeds=(3, 4), epochs=4)
        a = run_experiment(cfg)
        harness._prefix_store.clear()  # b computes its q = s prefixes too
        b = run_experiment(cfg)
        assert all(run.reused_epochs == 0 for run in b.runs)
        assert [strip_time(r) for r in a.records] == \
               [strip_time(r) for r in b.records]


class TestBaselines:
    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_adaptive_baseline_steps_and_logs_q_equals_s(self, kind):
        cfg = tiny_config(kind=kind, seeds=(4,), epochs=4)
        run = run_experiment(cfg).runs[0]
        # past 80% train accuracy the adaptive rule would have shrunk q
        assert max(rec.train_acc for rec in run.records[:-1]) >= 0.80
        assert [rec.q for rec in run.records] == [20] * cfg.epochs
        for rec in run.records:  # L_s is the average loss
            assert rec.train_ordered_loss == pytest.approx(rec.train_avg_loss,
                                                           rel=1e-12)
        ds = cfg.data.split(build_dataset(cfg.data), 4)
        assert run.final_theta.tobytes() == \
            baseline_theta(cfg, ds, 4, kind).tobytes()


STEP_NAMES = ("osgd_step", "minibatch_sgd_step", "ordered_adam_step",
              "adam_step")


class TestOneStepCall:
    @pytest.mark.parametrize("kind", ["sgd", "osgd", "adam", "oadam"])
    def test_every_kind_steps_through_osgd_step(self, monkeypatch, kind):
        calls = dict.fromkeys(STEP_NAMES, 0)

        def counted(name, step):
            def call(*args, **kwargs):
                calls[name] += 1
                return step(*args, **kwargs)
            return call

        for name in STEP_NAMES:
            monkeypatch.setattr(optimizers, name,
                                counted(name, getattr(optimizers, name)))
        run = run_single(tiny_config(kind=kind, epochs=2),
                         build_dataset(DataConfig(kind="clusters", seed=11)), 0)
        assert not run.failed
        assert calls == {**dict.fromkeys(STEP_NAMES, 0),
                         "osgd_step": run.records[-1].step}


def pinned_case(name, kind):
    """(config, dataset) of one records-pin run: momentum 0.9, every epoch
    logged.  The rings MLP keeps a fixed q = 5 (its accuracy stays below
    the adaptive rule's first threshold in 10 epochs); the others shrink
    q adaptively."""
    opt = dict(kind=kind, q="adaptive", batch_size=64, momentum=0.9)
    if name == "rings-mlp":
        cfg = RunConfig(
            name=name, data=DataConfig(kind="rings", seed=0),
            model=ModelConfig(kind="mlp", hidden=(16, 16), activation="tanh"),
            loss_kind="binary-cross-entropy", l2=1e-4, epochs=10, seeds=(0,),
            opt=OptConfig(**{**opt, "q": 5}, schedule=ScheduleSpec(
                kind="constant", base_lr=0.2)))
        return cfg, cfg.data.split(build_dataset(cfg.data), cfg.data.seed)
    if name == "clusters-linear":
        cfg = RunConfig(
            name=name, data=DataConfig(kind="clusters", seed=0),
            model=ModelConfig(kind="linear"), loss_kind="binary-cross-entropy",
            l2=1e-4, epochs=12, seeds=(0,),
            opt=OptConfig(**opt, schedule=ScheduleSpec(kind="constant",
                                                       base_lr=0.05)))
        return cfg, cfg.data.split(build_dataset(cfg.data), cfg.data.seed)
    cfg = RunConfig(
        name=name, data=DataConfig(kind="semeion"),
        model=ModelConfig(kind="linear"), loss_kind=name, l2=1e-4,
        epochs=10, seeds=(0,),
        opt=OptConfig(**opt, schedule=ScheduleSpec(
            kind="step-decay", base_lr=0.05, decay_epochs=(6,),
            decay_factor=0.1)))
    return cfg, data.split_dataset(stand_in_digits(3, n=250), 0.2, seed=3,
                                   stratified=True)


# sha256 over every logged column but epoch_seconds, one run per case.
# They hold for one numpy/BLAS build: BLAS kernels set the last bits of a
# trajectory, so a different build may need them (and bench/digests.json)
# recorded again.
PINNED_RECORDS = {
    ("rings-mlp", "sgd"):
        "c704b29ca29e79ae910b5b9e4bb4358e44fef354585f641e3a0387e5d344d285",
    ("rings-mlp", "osgd"):
        "13c57ea0e8e1c581723fe5b69a1c0bacc6fcf210672b4cfa8b253bbae4e6971d",
    ("rings-mlp", "oadam"):
        "69b6ecfe39821ba6e931692d463ce7bf91fcd547bb7f1f3bd7750a45faad48e6",
    ("rings-mlp", "adam"):
        "6356f764f0bc127958e4b552822d75ea21eadcbeaee389f3245acd8d98d36061",
    ("clusters-linear", "sgd"):
        "a76fab415c0bfb3d283054d91b792a007a13109bc2e3dbfb4df034bc1231da3d",
    ("clusters-linear", "osgd"):
        "fbc66d82fba3338ab44ca4e955d9f348b96c05345d624432fb0873e37a9efcee",
    ("clusters-linear", "oadam"):
        "1ef373121c077561e49aded049930d7aa75abcb33f6971c15d638077d5c94e90",
    ("clusters-linear", "adam"):
        "290c54e6f15dbb0bee75f193882a23521dd1cc265319159783dfb458505e677e",
    ("multinomial-cross-entropy", "sgd"):
        "358c82394a3c4c974b37ed3dfec3172d190f624395866dc6fc23fe9e48e7179c",
    ("multinomial-cross-entropy", "osgd"):
        "04f6dd4a2cd564497465df58f158081579d4ce0433f0cfdc11f4d1a40a3f1cdb",
    ("multinomial-cross-entropy", "oadam"):
        "a8f44bbdce78a6d89f7e36fa3cd212430c11121985e255b4542b35144e1e3f5e",
    ("multiclass-hinge", "sgd"):
        "5df0c3ff549ca3d2e31691262b33ffb8af155e772ecc4a78920091ebdf0ac41a",
    ("multiclass-hinge", "osgd"):
        "3859a7e2a40ab4edd9c3d411897462562750c624b20c3ce4eba0c1730f8b4c32",
    ("multiclass-hinge", "oadam"):
        "1cfe33d0a1c79532d880e92547e98eff8909d1c5ed7d1895d2fef8aa2be2732e",
    ("squared", "sgd"):
        "5fc199a6a7ef990fb044441a44ab75a4b159480e84b464664b5f4a85caf937db",
    ("squared", "osgd"):
        "2fa784bc3c408cb1f85170cbd91e8223bacce85fe38262a6b0c30f17b3bfda6c",
    ("squared", "oadam"):
        "7a1c87ac20526cc7c18ef4d5911bee203c6ff0f3ccab9c6464463d904296f594",
}


class TestRecordsPin:
    """Every logged number, bit for bit: the benchmark digests pin only the
    final theta, so they cannot see a change in, say, the logged L_q."""

    @pytest.mark.parametrize("name,kind", sorted(PINNED_RECORDS))
    def test_logged_records_are_pinned(self, name, kind):
        cfg, ds = pinned_case(name, kind)
        run = run_single(cfg, ds, 0)
        assert not run.failed
        h = hashlib.sha256()
        for rec in run.records:
            h.update(repr(strip_time(rec)).encode())
        assert h.hexdigest() == PINNED_RECORDS[name, kind]


class TestSummaries:
    def test_multiseed_summary_matches_recomputation(self, tmp_path):
        cfg = tiny_config(seeds=tuple(range(10)), epochs=2, name="ten")
        result = run_experiment(cfg)
        path = tmp_path / "records.csv"
        write_records_csv(result.records, path)
        rows = read_records_csv(path)
        finals = {}
        for rec in rows:
            finals[rec.seed] = rec.test_error_pct  # last row per seed wins
        values = [finals[s] for s in cfg.seeds]
        summary = result.summary()
        assert summary["mean_test_err"] == pytest.approx(np.mean(values),
                                                         rel=1e-15)
        assert summary["std_test_err"] == pytest.approx(
            np.std(values, ddof=1), rel=1e-12)

    def test_epochs_zero_reports_untrained_model(self):
        cfg = tiny_config(epochs=0)
        result = run_experiment(cfg)
        assert len(result.records) == 1
        rec = result.records[0]
        assert rec.step == 0
        assert rec.epoch == 0
        assert np.isfinite(rec.test_error_pct)

    def test_summary_std_over_completed_seeds(self):
        done = run_experiment(tiny_config(seeds=(0,), epochs=1)).runs[0]
        failed = harness.RunResult(seed=1, records=[], failed=True,
                                   error="diverged")
        cfg = tiny_config(seeds=(0, 1))
        one = harness.ExperimentResult(cfg, [done, failed]).summary()
        assert one["mean_test_err"] == done.final_test_error
        assert one["std_test_err"] == 0.0
        none = harness.ExperimentResult(cfg, [failed]).summary()
        assert np.isnan(none["mean_test_err"])
        assert np.isnan(none["std_test_err"])
        assert none["failed_seeds"] == [1]

    def test_records_csv_roundtrip(self, tmp_path):
        cfg = tiny_config(seeds=(5,), epochs=3)
        result = run_experiment(cfg)
        path = tmp_path / "r.csv"
        write_records_csv(result.records, path)
        assert read_records_csv(path) == result.records

    def test_records_csv_bytes_match_asdict_rows(self, tmp_path):
        records = run_experiment(tiny_config(seeds=(5, 6), epochs=3)).records
        path = tmp_path / "r.csv"
        write_records_csv(records, path)
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(RECORD_COLUMNS)
            for rec in records:
                row = dataclasses.asdict(rec)
                writer.writerow([row[col] for col in RECORD_COLUMNS])
        assert path.read_bytes() == ref.read_bytes()

    def test_summary_csv_schema(self, tmp_path):
        cfg = tiny_config(seeds=(0,), epochs=1)
        summary = run_experiment(cfg).summary()
        path = tmp_path / "s.csv"
        write_summary_csv([summary], path)
        header = path.read_text().splitlines()[0]
        assert header == "config_id,mean_test_err,std_test_err,rel_improvement_pct"


class TestSweep:
    def test_q_list_with_only_s_matches_baseline(self):
        cfg = tiny_config(kind="osgd", seeds=(0, 1))
        out = sweep_q(cfg, [20])
        harness._prefix_store.clear()  # the baseline computes every epoch
        result = run_experiment(tiny_config(kind="sgd", seeds=(0, 1)))
        assert all(run.reused_epochs == 0 for run in result.runs)
        baseline = result.summary()
        assert out[20].summary()["mean_test_err"] == baseline["mean_test_err"]
        assert out[20].summary()["std_test_err"] == baseline["std_test_err"]

    def test_multiple_q_values_share_seeds(self):
        cfg = tiny_config(seeds=(7, 8), epochs=2)
        out = sweep_q(cfg, [1, 10, 20])
        assert sorted(out) == [1, 10, 20]
        for result in out.values():
            assert len(result.summary()["final_test_errors"]) == 2

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_baseline_kind_rejected(self, kind):
        with pytest.raises(ValueError, match=f"{kind} always steps at q = s"):
            sweep_q(tiny_config(kind=kind, seeds=(0, 1)), [1, 5, 20])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            sweep_q(tiny_config(), [])

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ValueError):
            sweep_q(tiny_config(), [0, 21])

    def test_repeated_q_rejected_before_any_run(self, monkeypatch):
        monkeypatch.setattr(harness, "run_single", None)  # never reached
        with pytest.raises(ValueError, match="repeat"):
            sweep_q(tiny_config(), [4, 8, 4])

    def test_q_checked_against_train_rows_of_given_dataset(self):
        # 12 train rows clamp the batch to s = 12, so q = 16 cannot run
        ds = gen_clusters_2d(11)
        ds = ds.with_splits({"train": np.arange(12), "test": np.arange(12, 40)})
        cfg = tiny_config(seeds=(0,), epochs=1)
        with pytest.raises(ValueError, match="s=12"):
            sweep_q(cfg, [4, 16], dataset=ds)
        assert sorted(sweep_q(cfg, [4, 12], dataset=ds)) == [4, 12]


class TestDatasetWithoutSplits:
    """A generator's output, which has no splits, trains and tests on every
    row, as ``build_dataset`` does for test_fraction = 0."""

    def test_run_single_logs_the_all_rows_records(self):
        ds = gen_clusters_2d(0)
        assert not ds.splits
        rows = np.arange(ds.n)
        cfg = tiny_config(seeds=(3,))
        got = run_single(cfg, ds, 3)
        harness._prefix_store.clear()  # want computes its q = s prefix too
        want = run_single(cfg, ds.with_splits({"train": rows, "test": rows}),
                          3)
        assert want.reused_epochs == 0
        assert not got.failed and len(got.records) == cfg.epochs
        assert ([strip_time(r) for r in got.records]
                == [strip_time(r) for r in want.records])
        assert got.final_theta.tobytes() == want.final_theta.tobytes()

    def test_run_experiment_and_sweep_q_accept_it(self):
        ds = gen_clusters_2d(0)
        cfg = tiny_config(seeds=(0, 1), epochs=1)
        assert not any(run.failed
                       for run in run_experiment(cfg, ds).runs)
        out = sweep_q(cfg, [4, 20], dataset=ds)
        assert sorted(out) == [4, 20]
        assert all(len(result.summary()["final_test_errors"]) == 2
                   for result in out.values())


def split_digits_config(seeds=(0, 1, 2), epochs=2):
    """Linear multinomial logistic regression on Semeion-shaped data with
    a fresh stratified 80/20 split per seed."""
    return RunConfig(
        name="split", data=DataConfig(kind="semeion", path="semeion.data",
                                      test_fraction=0.2),
        model=ModelConfig(kind="linear"),
        loss_kind="multinomial-cross-entropy", l2=1e-4, epochs=epochs,
        seeds=seeds, opt=OptConfig(kind="osgd", q="adaptive", batch_size=64,
                                   schedule=ScheduleSpec(kind="constant",
                                                         base_lr=0.01)))


class TestOneSeedLoop:
    """``run_experiment`` builds the data once and splits it per seed."""

    def test_each_seed_runs_on_its_own_split(self):
        full = stand_in_digits()
        cfg = split_digits_config()
        result = run_experiment(cfg, full)
        assert [run.seed for run in result.runs] == list(cfg.seeds)
        for run in result.runs:
            harness._prefix_store.clear()  # ref computes every epoch
            ref = run_single(cfg, data.split_dataset(full, 0.2, run.seed,
                                                     stratified=True),
                             run.seed)
            assert not run.failed and not ref.failed
            assert ref.reused_epochs == 0
            assert run.final_theta.tobytes() == ref.final_theta.tobytes()
            assert ([strip_time(r) for r in run.records]
                    == [strip_time(r) for r in ref.records])

    def test_the_file_is_loaded_once_per_call(self, monkeypatch):
        from osgd import config
        loads = []

        def counting_load(path):
            loads.append(path)
            return stand_in_digits(n=300)

        monkeypatch.setattr(config, "load_semeion", counting_load)
        cfg = split_digits_config(epochs=1)
        assert not any(run.failed for run in run_experiment(cfg).runs)
        assert loads == ["semeion.data"]
        out = sweep_q(cfg, [4, 8])
        assert sorted(out) == [4, 8]
        assert all(len(result.summary()["final_test_errors"]) == 3
                   for result in out.values())
        assert loads == ["semeion.data"] * 2

    def test_each_seed_splits_once(self, monkeypatch):
        from osgd import config
        splits = []

        def counting_split(*args, **kwargs):
            splits.append(args[2])  # the split seed
            return data.split_dataset(*args, **kwargs)

        monkeypatch.setattr(config, "load_semeion",
                            lambda path: stand_in_digits(n=300))
        monkeypatch.setattr(config, "split_dataset", counting_split)
        cfg = split_digits_config(epochs=1)
        assert not any(run.failed for run in run_experiment(cfg).runs)
        assert splits == [0, 1, 2]
        splits.clear()
        sweep_q(cfg, [4, 8])
        # one split sizes s, then one per seed and q
        assert splits == [0] + [0, 1, 2] * 2


CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "configs")
RINGS_CFG = os.path.join(CONFIG_DIR, "rings_osgd.cfg")
CLUSTERS_CFG = os.path.join(CONFIG_DIR, "clusters_osgd.cfg")


def with_opt(cfg, **changes):
    return dataclasses.replace(cfg, opt=dataclasses.replace(cfg.opt,
                                                            **changes))


def shipped_setup(path, *overrides):
    cfg = load_config(path, list(overrides))
    return cfg, cfg.data.split(build_dataset(cfg.data), cfg.data.seed)


def split_digits_setup(loss_kind):
    """8 epochs at lr 0.05, where q = s ends after 5 (logistic) or 3
    (hinge) of them."""
    cfg = dataclasses.replace(
        split_digits_config(seeds=(0,), epochs=8), loss_kind=loss_kind)
    cfg = with_opt(cfg, schedule=ScheduleSpec(kind="constant", base_lr=0.05))
    return cfg, data.split_dataset(stand_in_digits(), 0.2, 0,
                                   stratified=True)


# Each setup's q = s prefix ends before its last epoch.
PREFIX_SETUPS = {
    "rings": lambda: shipped_setup(RINGS_CFG, "epochs = 45", "seeds = 1"),
    "clusters": lambda: shipped_setup(CLUSTERS_CFG, "epochs = 6",
                                      "seeds = 0"),
    "clusters-iid": lambda: shipped_setup(CLUSTERS_CFG, "epochs = 6",
                                          "seeds = 0", "opt.batching = iid"),
    "digits-logistic": lambda: split_digits_setup("multinomial-cross-entropy"),
    "digits-hinge": lambda: split_digits_setup("multiclass-hinge"),
}


def run_bits(run):
    return run.final_theta.tobytes(), [strip_time(r) for r in run.records]


class TestSharedPrefix:
    """Runs sharing (seed, settings, data) share their q = s prefix: a run
    resumes from the snapshot an earlier run stored, bit for bit."""

    @pytest.mark.parametrize("setup,first,second", [
        ("rings", {"kind": "sgd"}, {"kind": "osgd"}),
        ("rings", {"kind": "osgd"}, {"kind": "sgd"}),
        ("clusters", {"kind": "sgd"}, {"kind": "osgd"}),
        ("clusters", {"kind": "osgd"}, {"kind": "sgd"}),
        ("digits-logistic", {"kind": "sgd"}, {"kind": "osgd"}),
        ("digits-hinge", {"kind": "sgd"}, {"kind": "osgd"}),
        ("clusters", {"kind": "adam"}, {"kind": "oadam"}),
        ("clusters", {"kind": "oadam"}, {"kind": "adam"}),
        ("clusters", {"kind": "osgd", "q": 64}, {"kind": "osgd"}),
        ("clusters", {"kind": "osgd"}, {"kind": "osgd", "q": 64}),
        ("clusters-iid", {"kind": "sgd"}, {"kind": "osgd"}),
    ], ids=["rings-sgd-osgd", "rings-osgd-sgd", "clusters-sgd-osgd",
            "clusters-osgd-sgd", "digits-logistic-sgd-osgd",
            "digits-hinge-sgd-osgd", "clusters-adam-oadam",
            "clusters-oadam-adam", "clusters-fixed-s-adaptive",
            "clusters-adaptive-fixed-s", "clusters-iid-sgd-osgd"])
    def test_resumed_run_equals_fresh_run(self, setup, first, second):
        cfg, ds = PREFIX_SETUPS[setup]()
        seed = cfg.seeds[0]
        fresh = run_single(with_opt(cfg, **second), ds, seed)
        harness._prefix_store.clear()
        run_single(with_opt(cfg, **first), ds, seed)
        resumed = run_single(with_opt(cfg, **second), ds, seed)
        assert not fresh.failed and fresh.reused_epochs == 0
        assert 0 < resumed.reused_epochs < cfg.epochs
        assert run_bits(resumed) == run_bits(fresh)

    @pytest.mark.parametrize("change", [
        "none", "seed", "base_lr", "momentum", "l2", "batch_size",
        "width", "feature", "split"])
    def test_key_holds_seed_settings_and_data(self, change):
        cfg = dataclasses.replace(tiny_config(kind="sgd", epochs=4),
                                  model=ModelConfig(kind="mlp", hidden=(4,)))
        full = build_dataset(cfg.data)
        ds = data.split_dataset(full, 0.2, 0)
        run_single(cfg, ds, 0)
        other, seed = with_opt(cfg, kind="osgd"), 0
        if change == "seed":
            seed = 1
        elif change == "base_lr":
            other = with_opt(other, schedule=ScheduleSpec(kind="constant",
                                                          base_lr=0.051))
        elif change == "momentum":
            other = with_opt(other, momentum=0.8)
        elif change == "batch_size":
            other = with_opt(other, batch_size=21)
        elif change == "l2":
            other = dataclasses.replace(other, l2=2e-4)
        elif change == "width":
            other = dataclasses.replace(
                other, model=ModelConfig(kind="mlp", hidden=(5,)))
        elif change == "feature":
            features = ds.features.copy()
            features[0, 0] += 1e-9
            ds = dataclasses.replace(ds, features=features)
        elif change == "split":
            ds = data.split_dataset(full, 0.2, 1)
        run = run_single(other, ds, seed)
        assert not run.failed
        assert (run.reused_epochs > 0) == (change == "none")

    def test_snapshot_survives_the_runs_that_resume_from_it(self):
        cfg = tiny_config(kind="sgd", epochs=6)
        ds = build_dataset(cfg.data)
        run_single(cfg, ds, 0)
        a = run_single(with_opt(cfg, kind="osgd"), ds, 0)
        b = run_single(with_opt(cfg, kind="osgd"), ds, 0)
        assert 0 < a.reused_epochs == b.reused_epochs < cfg.epochs
        assert run_bits(a) == run_bits(b)

    def test_fixed_q_below_s_neither_reads_nor_stores(self):
        cfg = tiny_config(kind="sgd", epochs=4)
        ds = build_dataset(cfg.data)
        below = with_opt(cfg, kind="osgd", q=19)
        assert run_single(below, ds, 0).reused_epochs == 0
        assert not harness._prefix_store
        run_single(cfg, ds, 0)
        stored = dict(harness._prefix_store)
        assert len(stored) == 1
        assert run_single(below, ds, 0).reused_epochs == 0
        assert harness._prefix_store == stored

    def test_diverging_run_stores_nothing(self):
        cfg = with_opt(tiny_config(kind="sgd", epochs=4),
                       schedule=ScheduleSpec(kind="constant", base_lr=1e300))
        ds = build_dataset(cfg.data)
        assert run_single(cfg, ds, 0).failed
        assert not harness._prefix_store

    def test_prefix_lasting_to_the_last_epoch_is_not_stored(self):
        # one epoch: whatever its accuracy, the prefix reaches the last
        # epoch, so a re-run computes it again
        cfg = tiny_config(kind="sgd", epochs=1)
        ds = build_dataset(cfg.data)
        run_single(cfg, ds, 0)
        assert not harness._prefix_store
        assert run_single(with_opt(cfg, kind="osgd"), ds, 0).reused_epochs == 0

    def test_store_keeps_the_64_newest_prefixes(self):
        cfg = tiny_config(kind="sgd", epochs=2)
        ds = build_dataset(cfg.data)
        for seed in range(70):
            run_single(cfg, ds, seed)
            assert len(harness._prefix_store) == min(seed + 1, 64)
        osgd = with_opt(cfg, kind="osgd")
        assert run_single(osgd, ds, 69).reused_epochs == 1
        assert run_single(osgd, ds, 0).reused_epochs == 0


class TestPartialBatchRegime:
    """Shuffle batching ends each epoch on n mod s rows, and the logged
    L_q keeps the gamma weights of the configured s."""

    @pytest.mark.parametrize("cfg_file,sizes", [
        ("rings_osgd.cfg", [64] * 15 + [40]),
        ("clusters_osgd.cfg", [64] * 3 + [8])])
    def test_step_rows_and_logged_lq_batch_size(self, monkeypatch, cfg_file,
                                                sizes):
        cfg = load_config(os.path.join(CONFIG_DIR, cfg_file),
                          ["epochs = 2", "seeds = 0"])
        steps, gammas = [], []
        step, gamma = optimizers.osgd_step, harness._gamma_approx

        def counting_step(state, obj, X, y, batch, q, **kw):
            steps.append(len(batch))
            return step(state, obj, X, y, batch, q, **kw)

        def counting_gamma(n, s, q):
            gammas.append((n, s))
            return gamma(n, s, q)

        monkeypatch.setattr(optimizers, "osgd_step", counting_step)
        monkeypatch.setattr(harness, "_gamma_approx", counting_gamma)
        run = run_single(cfg, build_dataset(cfg.data), 0)
        assert not run.failed
        assert steps == sizes * 2
        assert gammas == [(sum(sizes), 64)] * 2

    @pytest.mark.parametrize("n,s", [(1000, 64), (192, 64), (256, 64),
                                     (40, 64), (1, 1), (7, 3), (0, 5)])
    def test_shuffle_batches_equal_per_chunk_sorts(self, n, s):
        # the per-chunk loop that one sort over the full chunks replaced
        perm = np.random.default_rng(n).permutation(n)
        want = [np.sort(perm[i:i + s]) for i in range(0, n, s)]
        got = _epoch_batches(np.random.default_rng(n), n, s, "shuffle")
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def counted_run(monkeypatch, cfg, forward_test_rows=False):
    """run_single on seed 0 with the model forwards counted per evaluation.

    ``forward_test_rows`` makes every evaluation forward the test split,
    even when it holds the train rows (the two-forward reference).
    """
    per_eval = []
    forward, evaluate = FeedforwardModel.forward, harness._evaluate_epoch

    def counting_forward(self, theta, X):
        per_eval[-1] += 1
        return forward(self, theta, X)

    def counting_evaluate(obj, state, Xtr, ytr, Xte, yte, s):
        if forward_test_rows and Xte is None:
            Xte, yte = Xtr, ytr
        per_eval.append(0)
        with monkeypatch.context() as m:
            m.setattr(FeedforwardModel, "forward", counting_forward)
            return evaluate(obj, state, Xtr, ytr, Xte, yte, s)

    monkeypatch.setattr(harness, "_evaluate_epoch", counting_evaluate)
    ds = cfg.data.split(build_dataset(cfg.data), cfg.data.seed)
    run = run_single(cfg, ds, 0)
    monkeypatch.setattr(harness, "_evaluate_epoch", evaluate)
    return run, per_eval


class TestEvaluationForwards:
    def test_train_rows_as_test_split_forward_once(self, monkeypatch):
        cfg = load_config(RINGS_CFG, ["epochs = 6", "seeds = 0"])
        assert cfg.data.test_fraction == 0.0
        run, per_eval = counted_run(monkeypatch, cfg)
        assert per_eval == [1] * cfg.epochs
        harness._prefix_store.clear()  # the reference run computes every epoch
        ref, ref_per_eval = counted_run(monkeypatch, cfg,
                                        forward_test_rows=True)
        assert ref_per_eval == [2] * cfg.epochs
        assert [strip_time(r) for r in run.records] == \
            [strip_time(r) for r in ref.records]
        assert run.final_theta.tobytes() == ref.final_theta.tobytes()

    def test_distinct_splits_forward_the_test_rows(self, monkeypatch):
        cfg = load_config(RINGS_CFG, ["epochs = 3", "seeds = 0",
                                      "data.test_fraction = 0.25"])
        run, per_eval = counted_run(monkeypatch, cfg)
        assert per_eval == [2] * cfg.epochs
        assert not run.failed


class TestLoggedMetrics:
    """The logged L_q and q mean what their definitions say."""

    @staticmethod
    def tied_instance():
        """12 train rows (= test rows) in 2-D, rows 6-11 repeating rows
        0-5, so every loss is tied with another."""
        rng = np.random.default_rng(17)
        X = np.tile(rng.standard_normal((6, 2)), (2, 1))
        y = np.tile(rng.integers(0, 2, 6), 2)
        ds = data.Dataset(features=X, labels=y, n_classes=2)
        return ds.with_splits({"train": np.arange(12), "test": np.arange(12)})

    @pytest.mark.parametrize("epochs", [0, 2])
    @pytest.mark.parametrize("q", [1, 2, 4])
    def test_logged_lq_is_the_enumerated_mean_top_q_loss(self, epochs, q):
        ds, s = self.tied_instance(), 4
        cfg = RunConfig(
            name="tied", data=DataConfig(kind="clusters"),
            model=ModelConfig(kind="linear"), loss_kind="binary-cross-entropy",
            l2=0.1, epochs=epochs, seeds=(0,),
            opt=OptConfig(kind="osgd", q=q, batch_size=s, momentum=0.9,
                          schedule=ScheduleSpec(kind="constant", base_lr=0.3)))
        run = run_single(cfg, ds, 0)
        obj = build_objective(cfg, ds)
        losses = obj.per_example_losses(run.final_theta, ds.features, ds.labels)
        assert np.unique(losses).size == 6  # six tied pairs
        tops = [np.sort(losses[list(batch)])[::-1][:q].mean()
                for batch in combinations(range(12), s)]
        want = float(np.mean(tops)) + obj.regularizer(run.final_theta)[0]
        rec = run.records[-1]
        assert rec.q == q
        assert rec.train_ordered_loss == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("kind", ["osgd", "sgd", "oadam", "adam"])
    def test_every_epoch_is_logged(self, kind):
        cfg = tiny_config(kind=kind, epochs=4)
        run = run_single(cfg, build_dataset(cfg.data), 0)
        assert [rec.epoch for rec in run.records] == [0, 1, 2, 3]
        steps = [rec.step for rec in run.records]
        assert steps == [steps[0] * (e + 1) for e in range(4)] and steps[0] > 0

    @pytest.mark.parametrize("kind", ["osgd", "oadam"])
    def test_adaptive_q_follows_the_previous_epochs_accuracy(self, kind):
        cfg, ds = pinned_case("clusters-linear", kind)
        run = run_single(cfg, ds, 0)
        s = min(cfg.opt.batch_size, len(ds.splits["train"]))
        qs = [rec.q for rec in run.records]
        assert qs[0] == s and len(set(qs)) > 2
        for prev, rec in zip(run.records, run.records[1:]):
            assert rec.q == min(adaptive_q_update(prev.train_acc, s), s)


class TestShuffleBatchingIdentity:
    """Shuffle batching keeps ranks at the gamma weights' exact rates.

    Over all n! permutations, each full chunk of ``_epoch_batches`` is a
    uniform s-subset (each one s!(n-s)! times) and the n mod s tail a
    uniform r-subset, so rank j is kept (n // s) s!(n-s)! N_j(n, s, q)
    times over the full chunks and r!(n-r)! N_j(n, r, min(q, r)) times in
    the tail, with N_j the gamma numerators.
    """

    @staticmethod
    def chunks(perms, s):
        """The sorted full chunks of every permutation, stacked, and the
        sorted tails, as :func:`_epoch_batches` cuts one permutation."""
        k = perms.shape[1] // s
        full = np.sort(perms[:, :k * s].reshape(-1, s), axis=1)
        return full, np.sort(perms[:, k * s:], axis=1)

    @staticmethod
    def kept_rank_counts(values, stack, q):
        """How often each rank (1 = largest value, ties toward the smaller
        index) is among the q kept members of a row of ``stack``."""
        n = len(values)
        rank = np.empty(n, dtype=np.int64)
        rank[selection.rank_by_loss(values)] = np.arange(n)
        kept = selection.q_argmax(values, stack, q)
        return [int(c) for c in np.bincount(rank[kept].ravel(), minlength=n)]

    @pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
    def test_kept_rank_counts_are_the_gamma_numerators(self, tied):
        cases = 0
        for n in range(1, 9):
            rng = np.random.default_rng(n)
            values = (rng.integers(0, 3, n) if tied
                      else rng.permutation(n)).astype(np.float64)
            perms = np.array(list(permutations(range(n))))
            for s in range(1, n + 1):
                k, r = divmod(n, s)
                full, tail = self.chunks(perms, s)
                for i in range(0, len(perms), 997):  # the runner cuts alike
                    stub = SimpleNamespace(permutation=lambda _: perms[i])
                    want = [*full[i * k:(i + 1) * k], *tail[i:i + 1]]
                    assert [b.tolist() for b in
                            _epoch_batches(stub, n, s, "shuffle")] == \
                        [w.tolist() for w in want if w.size]
                for q in range(1, s + 1):
                    nums, _ = coeffs.gamma_weight_numerators(n, s, q)
                    unit = k * factorial(s) * factorial(n - s)
                    assert self.kept_rank_counts(values, full, q) == \
                        [unit * c for c in nums]
                    cases += 1
                    if r:
                        nums, _ = coeffs.gamma_weight_numerators(
                            n, r, min(q, r))
                        unit = factorial(r) * factorial(n - r)
                        assert self.kept_rank_counts(
                            values, tail, min(q, r)) == [unit * c for c in nums]
                        cases += 1
        assert cases == 184  # 120 (n, s, q) full-chunk cases, 64 tails


class TestPerRunSetUp:
    """What a run checks once instead of on every step and evaluation."""

    def test_labels_checked_once_and_no_ranking_in_evaluation(
            self, monkeypatch):
        cfg = load_config(RINGS_CFG, ["epochs = 2", "seeds = 0"])
        checked, ranked, evaluating = [], [], [False]
        check, evaluate = Objective._check_labels, harness._evaluate_epoch
        rank = selection.rank_by_loss

        def counting_check(self, y):
            checked.append(len(y))
            return check(self, y)

        def flagged_evaluate(*args):
            evaluating[0] = True
            try:
                return evaluate(*args)
            finally:
                evaluating[0] = False

        def counting_rank(losses):
            ranked.append(evaluating[0])
            return rank(losses)

        monkeypatch.setattr(Objective, "_check_labels", counting_check)
        monkeypatch.setattr(harness, "_evaluate_epoch", flagged_evaluate)
        monkeypatch.setattr(selection, "rank_by_loss", counting_rank)
        monkeypatch.setattr(ordered_loss, "rank_by_loss", counting_rank)
        ds = cfg.data.split(build_dataset(cfg.data), cfg.data.seed)
        run = run_single(cfg, ds, 0)
        assert not run.failed and run.records[-1].step == 2 * 16
        assert checked == [len(ds.splits["train"])]
        assert ranked.count(True) == 0

    def test_out_of_range_train_label_fails_before_the_first_update(
            self, monkeypatch):
        cfg = load_config(RINGS_CFG, ["epochs = 2", "seeds = 0"])
        ds = cfg.data.split(build_dataset(cfg.data), cfg.data.seed)
        labels = ds.labels.copy()
        labels[ds.splits["train"][-1]] = 2  # the data has 3 classes, the
        # binary cross-entropy objective 2
        ds = dataclasses.replace(ds, labels=labels, n_classes=3)
        steps, step = [], optimizers.osgd_step

        def counting_step(*args, **kwargs):
            steps.append(1)
            return step(*args, **kwargs)

        monkeypatch.setattr(optimizers, "osgd_step", counting_step)
        with pytest.raises(ValueError, match="label out of range"):
            run_single(cfg, ds, 0)
        assert steps == []


class TestDivergence:
    def test_divergence_at_evaluation_fails_only_its_seed(self):
        cfg = dataclasses.replace(
            tiny_config(q=8, seeds=(0, 1), epochs=3), loss_kind="squared",
            model=ModelConfig(kind="mlp", hidden=(8,), activation="relu"),
            opt=OptConfig(kind="osgd", q=8, batch_size=64, momentum=0.9,
                          schedule=ScheduleSpec(kind="constant", base_lr=1e3)))
        with np.errstate(all="ignore"):
            result = run_experiment(cfg)
        assert [run.failed for run in result.runs] == [True, True]
        assert all("evaluation" in run.error for run in result.runs)
        assert result.summary()["failed_seeds"] == [0, 1]

    def test_non_finite_regularizer_is_divergence(self, monkeypatch):
        monkeypatch.setattr(Objective, "regularizer",
                            lambda self, theta: (float("inf"),
                                                 np.zeros_like(theta)))
        result = run_experiment(tiny_config(seeds=(0,), epochs=1))
        assert result.runs[0].failed
        assert "in evaluation at step" in result.runs[0].error


class TestVerificationSuite:
    def test_fresh_checkout_passes(self):
        report = run_verification_suite()
        assert report["all_passed"], report
        names = [c["name"] for c in report["checks"]]
        assert "unbiasedness" in names
        assert "tie-break-determinism" in names

    @pytest.mark.parametrize("trials", [0, -3])
    def test_unbiasedness_needs_a_trial(self, trials):
        with pytest.raises(ValueError,
                           match=f"^trials must be at least 1, got {trials}$"):
            harness.unbiasedness_deviation(0, 8, 4, 2, trials)

    def test_corrupted_gamma_fails_sum_check(self, gamma_sum_off_by_one):
        report = run_verification_suite()
        assert not report["all_passed"]
        failing = {c["name"] for c in report["checks"] if not c["passed"]}
        assert failing == {"gamma-identities"}

    def test_larger_position_tie_rule_fails_only_the_tie_check(
            self, monkeypatch):
        def ties_toward_larger(values, q):
            values = np.asarray(values, dtype=np.float64)
            flipped = values[..., ::-1]  # a stable sort now keeps the last
            kept = values.shape[-1] - 1 - selection._rank_order(flipped)
            kept = kept[..., :q]
            kept.sort(axis=-1)
            return kept

        monkeypatch.setattr(selection, "topq_positions", ties_toward_larger)
        report = run_verification_suite()
        assert not report["all_passed"]
        failing = {c["name"] for c in report["checks"] if not c["passed"]}
        assert failing == {"tie-break-determinism"}

    @staticmethod
    def failing_checks(report):
        assert not report["all_passed"]
        return {c["name"]: c["detail"] for c in report["checks"]
                if not c["passed"]}

    def test_miscounted_enumeration_fails_only_its_check(self, monkeypatch):
        counts_of = ordered_loss.rank_selection_counts

        def miscounted(losses, s, q):  # the suite's losses are n..1
            counts, total = counts_of(losses, s, q)
            if (losses.size, s, q) == (5, 3, 2):
                counts = counts.copy()
                counts[[0, 4]] = counts[[4, 0]]
            return counts, total

        monkeypatch.setattr(ordered_loss, "rank_selection_counts", miscounted)
        assert self.failing_checks(run_verification_suite()) == {
            "gamma-enumeration": "mismatch at (n=5, s=3, q=2)"}

    def test_biased_subgradient_fails_only_the_unbiasedness_check(
            self, monkeypatch):
        subgradient = ordered_loss.lq_subgradient
        monkeypatch.setattr(ordered_loss, "lq_subgradient",
                            lambda *args: subgradient(*args) + 1e-9)
        assert self.failing_checks(run_verification_suite()) == {
            "unbiasedness": "max deviation 1.00e-09 > 1e-10"}

    def test_instance_with_tied_losses_is_skipped(self, monkeypatch):
        losses_of, instances, enumerated = Objective.per_example_losses, [], []

        def tie_first(self, theta, X, y):  # ties the first instance only
            losses = losses_of(self, theta, X, y)
            instances.append(X)
            if len(instances) == 1:
                losses[1] = losses[0]
            return losses

        def counting(*args):
            enumerated.append(args)
            return bruteforce(*args)

        bruteforce = ordered_loss.expected_step_bruteforce
        monkeypatch.setattr(Objective, "per_example_losses", tie_first)
        monkeypatch.setattr(ordered_loss, "expected_step_bruteforce", counting)
        worst = harness.unbiasedness_deviation(seed=7, n=8, s=4, q=2, trials=3)
        assert (len(instances), len(enumerated)) == (3, 2)
        assert enumerated[0][2] is instances[1]  # the tied one was skipped
        assert worst <= harness.UNBIASEDNESS_TOL

    def test_shifted_limit_curve_fails_only_the_beta_cdf_check(
            self, monkeypatch):
        limit = coeffs.gamma_asymptotic
        monkeypatch.setattr(coeffs, "gamma_asymptotic",
                            lambda z, s, q: limit(z, s, q) + 1e-6 * s)
        assert self.failing_checks(run_verification_suite()) == {
            "beta-cdf-agreement": "identity residual 1.00e-06 > 1e-9"}

    def test_wrong_uniform_cdf_fails_only_the_beta_cdf_check(
            self, monkeypatch):
        cdf = coeffs.beta_cdf

        def off_at_one_one(z, a, b):
            return cdf(z, a, b) + (1e-3 if (a, b) == (1.0, 1.0) else 0.0)

        monkeypatch.setattr(coeffs, "beta_cdf", off_at_one_one)
        assert self.failing_checks(run_verification_suite()) == {
            "beta-cdf-agreement": "I_z(1,1) != z at z=0.0"}

    def test_baseline_run_off_by_a_record_fails_only_the_q_equals_s_check(
            self, monkeypatch):
        run = harness.run_single

        def baseline_off(cfg, dataset, seed):
            result = run(cfg, dataset, seed)
            if cfg.opt.kind == "sgd":
                first = result.records[0]
                result.records[0] = dataclasses.replace(
                    first, train_avg_loss=first.train_avg_loss * 2.0)
            return result

        monkeypatch.setattr(harness, "run_single", baseline_off)
        assert self.failing_checks(run_verification_suite()) == {
            "q-equals-s-equivalence":
                "q=s ordered run diverged from baseline run"}

    def test_crashing_oracle_fails_only_its_check(self, monkeypatch):
        def crash(z, s, q):
            raise ZeroDivisionError("limit curve crashed")

        monkeypatch.setattr(coeffs, "gamma_asymptotic", crash)
        assert self.failing_checks(run_verification_suite()) == {
            "beta-cdf-agreement": "exception: limit curve crashed"}

    def test_unbiasedness_past_the_subset_cap_builds_no_gamma(
            self, monkeypatch):
        built = []
        monkeypatch.setattr(coeffs, "gamma_weights",
                            lambda *args: built.append(args))
        with pytest.raises(ordered_loss.ResourceError,
                           match=r"^C\(200000, 2\) = 19999900000 subsets"):
            harness.unbiasedness_deviation(0, 200_000, 2, 1, trials=20)
        assert built == []

    def test_unbiasedness_past_the_subset_cap_builds_no_model(
            self, monkeypatch):
        def no_model(*args, **kwargs):
            raise AssertionError("model built before the subset cap")

        monkeypatch.setattr(objectives, "FeedforwardModel", no_model)
        with pytest.raises(ordered_loss.ResourceError,
                           match=r"^C\(200000, 2\) = 19999900000 subsets"):
            harness.unbiasedness_deviation(0, 200_000, 2, 1, trials=20)

    @pytest.mark.parametrize("n,s,q", [(8.0, 4, 2), (8, 4, True)])
    def test_unbiasedness_refuses_non_integer_sizes(self, n, s, q):
        with pytest.raises(ValueError, match=r"^n, s, q must be integers, "
                                             r"got \("):
            harness.unbiasedness_deviation(0, n, s, q, trials=1)

    @staticmethod
    def swap_middle(nums, q, top):
        nums[q], nums[q + 1] = nums[q + 1], nums[q]

    @staticmethod
    def raise_first(nums, q, top):  # gamma_1 is exactly s/n
        nums[0] += 1
        nums[top - 1] -= 1

    @staticmethod
    def fill_tail(nums, q, top):
        nums[top - 1] -= 1
        nums[top] += 1

    @pytest.mark.parametrize("corrupt,detail", [
        ("swap_middle", "not nonincreasing"), ("raise_first", "exceeds s/n"),
        ("fill_tail", "tail not zero")])
    def test_integer_identities_catch_a_sum_keeping_corruption(
            self, monkeypatch, corrupt, detail):
        numerators = coeffs.gamma_weight_numerators

        def corrupted(n, s, q):
            nums, den = numerators(n, s, q)
            getattr(self, corrupt)(nums, q, n - s + q)
            return nums, den

        monkeypatch.setattr(coeffs, "gamma_weight_numerators", corrupted)
        assert harness._check_gamma_identities() == (
            False, f"gamma {detail} for (n=12, s=5, q=2)")

    def test_report_bytes_match_the_benchmark_digest(self):
        # hashed as the oracle-certify workload hashes it, against the
        # digest it recorded (for one numpy/BLAS build, as PINNED_RECORDS)
        with open(DIGESTS_PATH) as fh:
            recorded = json.load(fh)["workloads"]["oracle-certify"]
        text = json.dumps(run_verification_suite(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            recorded["verification_suite"]

    def test_report_schema_roundtrips_through_json(self):
        report = run_verification_suite()
        back = json.loads(json.dumps(report, indent=2))
        assert back == report
        assert set(back) == {"checks", "all_passed"}
        for check in back["checks"]:
            assert set(check) == {"name", "passed", "detail"}

    def test_q_equals_s_check_passes_with_the_detail_it_pins(self):
        assert _check_qs_equivalence() == (
            True, "bit-identical metrics over 2 epochs")

    def test_q_equals_s_check_computes_both_runs(self, monkeypatch):
        runs = []

        def recording(*args):
            runs.append(original(*args))
            return runs[-1]

        original = harness.run_single
        monkeypatch.setattr(harness, "run_single", recording)
        for _ in range(2):  # the second check finds the first one's prefix
            assert _check_qs_equivalence()[0]
        assert [run.reused_epochs for run in runs] == [0] * 4

    def test_runner_stepping_below_batch_length_fails_q_equals_s_check(
            self, monkeypatch):
        # A runner mutant that steps at q = s - 1 for every kind: the osgd
        # and sgd runs still agree with each other, so only the plain
        # minibatch SGD loop can tell.
        monkeypatch.setattr(OptConfig, "initial_q", lambda self, s: s - 1)
        passed, detail = _check_qs_equivalence()
        assert not passed
        assert "minibatch SGD loop" in detail


def coordinate_loop_difference(obj, theta, x, y):
    """The reference for ``harness._central_difference``: one forward per
    perturbed theta, coordinate by coordinate."""
    fd = np.zeros_like(theta)
    for i in range(theta.size):
        h = 1e-6 * (1.0 + abs(theta[i]))
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        fd[i] = (obj.per_sample_loss(up, x, y)
                 - obj.per_sample_loss(down, x, y)) / (2 * h)
    return fd


# (model kind, activation, loss, hidden widths, outputs): the two combos of
# the verification suite's gradient check, then acceptance 5's sixteen
GRADIENT_COMBOS = [
    ("linear", "tanh", "multinomial-cross-entropy", (), 3),
    ("mlp", "tanh", "binary-cross-entropy", (6,), 1),
    *[(kind, act, loss, (6, 5) if kind == "mlp" else (),
       1 if loss == "binary-cross-entropy" else 3)
      for loss in ("multinomial-cross-entropy", "multiclass-hinge",
                   "binary-cross-entropy", "squared")
      for kind, act in (("linear", "tanh"), ("mlp", "relu"), ("mlp", "tanh"),
                        ("mlp", "sigmoid"))],
]


class TestGradientOracle:
    @pytest.mark.parametrize("kind,act,loss,hidden,d_out", GRADIENT_COMBOS,
                             ids=[f"{k}-{a}-{l}-{len(h)}"
                                  for k, a, l, h, _ in GRADIENT_COMBOS])
    def test_central_difference_bytes_equal_the_coordinate_loop(
            self, kind, act, loss, hidden, d_out):
        model = objectives.FeedforwardModel(4, d_out, hidden=hidden,
                                            activation=act)
        obj = Objective(model, loss)
        rng = np.random.default_rng(5)
        for _ in range(5):
            theta = rng.standard_normal(model.n_params) * 0.7
            x = rng.standard_normal(4)
            y = int(rng.integers(0, obj.n_classes))
            assert harness._central_difference(obj, theta, x, y).tobytes() \
                == coordinate_loop_difference(obj, theta, x, y).tobytes()

    def test_gradient_check_forwards_one_stack_per_point(self, monkeypatch):
        ranks = []
        forward = FeedforwardModel.forward

        def counting(self, theta, X):
            ranks.append(theta.ndim)
            return forward(self, theta, X)

        monkeypatch.setattr(FeedforwardModel, "forward", counting)
        assert harness._check_gradients()[0]
        # 2 combos x 5 points: one stacked forward of the 2P perturbed
        # thetas (the coordinate loop made 2P one-row forwards: 520 in all)
        # and one forward for the analytic gradient at each point
        assert ranks.count(2) == 10
        assert ranks.count(1) == 10

    def test_scaled_gradient_fails_the_check(self, monkeypatch):
        per_sample_grad = Objective.per_sample_grad
        monkeypatch.setattr(Objective, "per_sample_grad",
                            lambda self, *args: 1.001 * per_sample_grad(
                                self, *args))
        assert harness._check_gradients() == (
            False, "gradient mismatch for (linear, multinomial-cross-entropy)")
