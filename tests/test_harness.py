"""Runner determinism, summaries, sweeps, and the verification suite."""
import dataclasses
import json

import numpy as np
import pytest

from osgd.config import (DataConfig, ModelConfig, OptConfig, RunConfig,
                         build_dataset, build_objective)
from osgd.data import gen_clusters_2d
from osgd.harness import (_epoch_batches, read_records_csv, run_experiment,
                          run_verification_suite, report_to_json, sweep_q,
                          write_records_csv, write_summary_csv)
from osgd.objectives import Objective
from osgd.optimizers import (ScheduleSpec, adam_step, init_state,
                             minibatch_sgd_step, schedule_lr)


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


def baseline_theta(cfg, seed, kind):
    """Final theta of a loop of the one-line baseline step (``"sgd"``:
    minibatch_sgd_step, ``"adam"``: adam_step) over the batches the runner
    draws for ``cfg`` at ``seed``."""
    ds = build_dataset(cfg.data, split_seed=seed)
    obj = build_objective(cfg, ds)
    X, y = ds.split("train")
    s = min(cfg.opt.batch_size, len(y))
    rng = np.random.default_rng(seed)
    state = init_state(obj.init_params(rng), s, cfg.opt.schedule.base_lr)
    for epoch in range(cfg.epochs):
        for batch in _epoch_batches(rng, len(y), s, cfg.opt.batching):
            state.lr_current = schedule_lr(cfg.opt.schedule, epoch,
                                           state.step_count)
            if kind == "sgd":
                minibatch_sgd_step(state, obj, X, y, batch,
                                   momentum=cfg.opt.momentum)
            else:
                adam_step(state, obj, X, y, batch, beta1=cfg.opt.beta1,
                          beta2=cfg.opt.beta2, eps=cfg.opt.eps)
    return state.theta


class TestEquivalences:
    def test_q_equals_s_matches_sgd_stream(self):
        cfg = tiny_config(kind="osgd", q=20, seeds=(1, 2))
        result = run_experiment(cfg)
        for run in result.runs:
            assert [rec.q for rec in run.records] == [20] * cfg.epochs
            assert run.final_theta.tobytes() == \
                baseline_theta(cfg, run.seed, "sgd").tobytes()

    def test_rerun_reproduces_records(self):
        cfg = tiny_config(seeds=(3, 4), epochs=4)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
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
        assert run.final_theta.tobytes() == \
            baseline_theta(cfg, 4, kind).tobytes()


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

    def test_summary_with_baseline_computes_improvement(self):
        cfg = tiny_config(seeds=(0, 1), epochs=2)
        result = run_experiment(cfg)
        summary = result.summary(baseline_mean=50.0)
        assert summary["rel_improvement_pct"] == pytest.approx(
            100.0 * (50.0 - summary["mean_test_err"]) / 50.0)

    def test_records_csv_roundtrip(self, tmp_path):
        cfg = tiny_config(seeds=(5,), epochs=3)
        result = run_experiment(cfg)
        path = tmp_path / "r.csv"
        write_records_csv(result.records, path)
        assert read_records_csv(path) == result.records

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
        baseline = run_experiment(tiny_config(kind="sgd", seeds=(0, 1))).summary()
        assert out[20]["mean_test_err"] == baseline["mean_test_err"]
        assert out[20]["std_test_err"] == baseline["std_test_err"]

    def test_multiple_q_values_share_seeds(self):
        cfg = tiny_config(seeds=(7, 8), epochs=2)
        out = sweep_q(cfg, [1, 10, 20])
        assert sorted(out) == [1, 10, 20]
        for summary in out.values():
            assert len(summary["final_test_errors"]) == 2

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

    def test_q_checked_against_train_rows_of_given_dataset(self):
        # 12 train rows clamp the batch to s = 12, so q = 16 cannot run
        ds = gen_clusters_2d(11)
        ds = ds.with_splits({"train": np.arange(12), "test": np.arange(12, 40)})
        cfg = tiny_config(seeds=(0,), epochs=1)
        with pytest.raises(ValueError, match="s=12"):
            sweep_q(cfg, [4, 16], dataset=ds)
        assert sorted(sweep_q(cfg, [4, 12], dataset=ds)) == [4, 12]


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

    def test_corrupted_gamma_fails_sum_check(self):
        report = run_verification_suite(corrupt="gamma-sum")
        assert not report["all_passed"]
        failing = {c["name"] for c in report["checks"] if not c["passed"]}
        assert failing == {"gamma-identities"}

    def test_report_schema_roundtrips_through_json(self):
        report = run_verification_suite()
        back = json.loads(report_to_json(report))
        assert back == report
        assert set(back) == {"checks", "all_passed"}
        for check in back["checks"]:
            assert set(check) == {"name", "passed", "detail"}
