"""End-to-end checks of every CLI subcommand."""
import argparse
import csv
import dataclasses
import gc
import io
import json
import os
import re
import shlex
import warnings
from fractions import Fraction

import numpy as np
import pytest

from osgd import analysis, coeffs, config, data, harness
from osgd.cli import build_parser, main
from osgd.coeffs import EXACT_N_LIMIT, gamma_weights, gamma_weights_float
from osgd.ordered_loss import MAX_BRUTEFORCE_SUBSETS

from conftest import REMOVED_SETTINGS


CONFIG_TEXT = """
# tiny 2-D run
name = cli-smoke
data.kind = clusters
data.seed = 11
model.kind = linear
loss.kind = binary-cross-entropy
reg.l2 = 1e-4
epochs = 2
seeds = 0, 1
opt.kind = osgd
opt.batch_size = 20
opt.q = adaptive
opt.momentum = 0.9
opt.schedule.kind = constant
opt.schedule.base_lr = 0.05
"""


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG_TEXT)
    return path


class TestGammaCommands:
    def test_gamma_csv_columns_and_values(self, tmp_path):
        out = tmp_path / "gamma.csv"
        assert main(["gamma", "--n", "5", "--s", "3", "--q", "2",
                     "--out", str(out)]) == 0
        rows = read_rows(out)
        assert [r["j"] for r in rows] == ["1", "2", "3", "4", "5"]
        got = [Fraction(int(r["gamma_exact_num"]), int(r["gamma_exact_den"]))
               for r in rows]
        assert got == list(gamma_weights(5, 3, 2).exact)
        for r in rows:
            assert float(r["gamma_float"]) == pytest.approx(
                float(Fraction(int(r["gamma_exact_num"]),
                               int(r["gamma_exact_den"]))))

    def test_gamma_float_mode(self, tmp_path):
        out = tmp_path / "gamma-float.csv"
        assert main(["gamma", "--n", "50", "--s", "10", "--q", "3", "--float",
                     "--out", str(out)]) == 0
        rows = read_rows(out)
        assert rows[0]["gamma_exact_num"] == ""
        total = sum(float(r["gamma_float"]) for r in rows)
        assert total == pytest.approx(3.0, rel=1e-9)

    @pytest.mark.parametrize("n,s,q", [
        pytest.param(EXACT_N_LIMIT, 3, 2, id=str(EXACT_N_LIMIT)),
        pytest.param(EXACT_N_LIMIT + 1, 3, 2, id=str(EXACT_N_LIMIT + 1)),
        pytest.param(12, 5, 5, id="q-equals-s"),
        pytest.param(12, 5, 2, id="zero-tail")])
    def test_gamma_csv_bytes_on_both_sides_of_exact_limit(self, tmp_path, n,
                                                          s, q):
        out = tmp_path / "gamma.csv"
        assert main(["gamma", "--n", str(n), "--s", str(s), "--q", str(q),
                     "--out", str(out)]) == 0
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(["j", "gamma_exact_num", "gamma_exact_den",
                         "gamma_float"])
        if n <= EXACT_N_LIMIT:
            gw = gamma_weights(n, s, q)
            for j, (frac, val) in enumerate(zip(gw.exact, gw.approx), start=1):
                writer.writerow([j, frac.numerator, frac.denominator,
                                 repr(float(val))])
        else:
            for j, val in enumerate(gamma_weights_float(n, s, q), start=1):
                writer.writerow([j, "", "", repr(float(val))])
        assert out.read_bytes() == want.getvalue().encode()
        rows = read_rows(out)
        if n == 12 and q == s:  # every rank kept with gamma = s/n = 5/12
            assert {(r["gamma_exact_num"], r["gamma_exact_den"])
                    for r in rows} == {("5", "12")}
        elif n == 12:  # ranks past n - s + q = 9 are never kept
            assert [(r["gamma_exact_num"], r["gamma_exact_den"],
                     r["gamma_float"]) for r in rows[9:]] == \
                [("0", "1", "0.0")] * 3

    def test_gamma_curve_columns(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["gamma-curve", "--n", "100", "--s", "10", "--q", "3",
                     "--out", str(out)]) == 0
        rows = read_rows(out)
        assert list(rows[0]) == ["z", "n_gamma", "gamma_limit", "beta_gap"]
        interior = [r for r in rows if r["beta_gap"] != ""]
        assert all(abs(float(r["beta_gap"])) < 1e-9 for r in interior)


class TestVerifyCommand:
    def test_full_suite_passes(self, capsys):
        assert main(["verify"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_passed"]

    def test_corrupt_hook_fails(self, capsys):
        assert main(["verify", "--corrupt", "gamma-sum"]) == 1
        out, err = capsys.readouterr()
        assert not json.loads(out)["all_passed"]  # the full suite's report
        assert err.startswith("FAILED checks: ")

    def test_misspelled_corrupt_hook_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "--corrupt", "gamma_sum"])
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""  # no suite ran
        assert "argument --corrupt: invalid choice: 'gamma_sum'" in err

    def test_suite_rejects_an_unknown_corrupt_hook(self):
        with pytest.raises(ValueError, match="'gamma_sum'.*'gamma-sum'"):
            harness.run_verification_suite(corrupt="gamma_sum")

    def test_unbiasedness_subcommand(self, capsys):
        assert main(["verify", "unbiasedness", "--n", "8", "--s", "4",
                     "--q", "2", "--trials", "5", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "max componentwise deviation" in out

    @pytest.mark.parametrize("n,s,q,total", [("100", "4", "2", 3921225),
                                             ("200000", "2", "1", 19999900000)])
    def test_unbiasedness_over_the_subset_cap_is_one_line_and_exit_2(
            self, capsys, n, s, q, total):
        assert main(["verify", "unbiasedness", "--n", n, "--s", s,
                     "--q", q]) == 2
        assert capsys.readouterr() == (
            "", f"osgd verify: C({n}, {s}) = {total} subsets exceeds the "
                f"enumeration cap {MAX_BRUTEFORCE_SUBSETS}\n")

    @pytest.mark.parametrize("n,s,q", [("-1", "4", "2"), ("3", "4", "2"),
                                       ("8", "4", "5"), ("8", "4", "0")])
    def test_unbiasedness_bad_sizes_are_one_line_and_exit_2(self, capsys, n,
                                                            s, q):
        assert main(["verify", "unbiasedness", "--n", n, "--s", s,
                     "--q", q]) == 2
        assert capsys.readouterr() == (
            "", f"osgd verify: need 1 <= q <= s <= n, got (n={n}, s={s}, "
                f"q={q})\n")

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_unbiasedness_without_a_trial_is_one_line_and_exit_2(
            self, capsys, trials):
        assert main(["verify", "unbiasedness", "--trials", trials]) == 2
        assert capsys.readouterr() == (
            "", f"osgd verify: trials must be at least 1, got {trials}\n")


class TestTrainCommands:
    def test_train_writes_records_and_summary(self, config_file, tmp_path,
                                              monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--config", str(config_file),
                     "--override", "outdir = out"]) == 0
        rows = read_rows(tmp_path / "out/cli-smoke-records.csv")
        assert {r["seed"] for r in rows} == {"0", "1"}
        summary = read_rows(tmp_path / "out/cli-smoke-summary.csv")
        assert summary[0]["config_id"] == "cli-smoke"
        assert "over 2 seed(s)" in capsys.readouterr().out

    def test_train_summary_counts_completed_seeds(self, config_file, tmp_path,
                                                  monkeypatch, capsys):
        # seed 1 trains on features scaled by 1e300: its logits overflow
        run_single = harness.run_single

        def seed_1_diverges(cfg, dataset, seed):
            if seed == 1:
                dataset = dataclasses.replace(
                    dataset, features=dataset.features * 1e300)
            return run_single(cfg, dataset, seed)

        monkeypatch.setattr(harness, "run_single", seed_1_diverges)
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--config", str(config_file),
                     "--override", "outdir = out"]) == 0
        out, err = capsys.readouterr()
        assert "over 1 of 2 seed(s)" in out
        assert "failed seeds: [1]" in err

    def test_train_reports_each_failed_seed_and_a_nan_std(
            self, config_file, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--config", str(config_file),
                     "--override", "outdir = out",
                     "--override", "opt.schedule.base_lr = 1e300"]) == 1
        out, err = capsys.readouterr()
        assert "mean test error nan (nan) over 0 of 2 seed(s)" in out
        assert "failed seeds: [0, 1]" in err
        reasons = [line for line in err.splitlines() if "failed:" in line]
        assert [line.split("failed:")[0].strip() for line in reasons] == \
            ["seed 0", "seed 1"]
        assert all("non-finite" in line for line in reasons)
        summary = read_rows(tmp_path / "out/cli-smoke-summary.csv")
        assert (summary[0]["mean_test_err"],
                summary[0]["std_test_err"]) == ("nan", "nan")

    def test_train_save_params(self, config_file, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--config", str(config_file), "--save-params",
                     "--override", "outdir = out", "--override",
                     "seeds = 0"]) == 0
        theta = np.load(tmp_path / "out/cli-smoke-seed0-theta.npy")
        assert theta.ndim == 1

    def test_sweep_q(self, config_file, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["sweep-q", "--config", str(config_file),
                     "--q-values", "1,20",
                     "--override", "outdir = out",
                     "--override", "seeds = 0"]) == 0
        rows = read_rows(tmp_path / "out/cli-smoke-sweep-q.csv")
        assert len(rows) == 2
        out, err = capsys.readouterr()
        assert [line.endswith("over 1 seed(s)")
                 for line in out.splitlines()[:2]] == [True, True]
        assert err == ""

    def test_sweep_q_reports_failed_seeds_and_exits_1(
            self, config_file, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["sweep-q", "--config", str(config_file),
                     "--q-values", "1,20",
                     "--override", "outdir = out",
                     "--override", "opt.schedule.base_lr = 1e300"]) == 1
        out, err = capsys.readouterr()
        assert [line.split(":")[0] for line in out.splitlines()[:2]] == \
            ["q=   1", "q=  20"]
        assert all(line.endswith("nan (nan) over 0 of 2 seed(s)")
                   for line in out.splitlines()[:2])
        lines = err.splitlines()
        assert [line for line in lines if "failed seeds" in line] == \
            ["q=1 failed seeds: [0, 1]", "q=20 failed seeds: [0, 1]"]
        assert [line.split(":")[0] for line in lines] == \
            ["q=1 failed seeds", "  seed 0 failed", "  seed 1 failed",
             "q=20 failed seeds", "  seed 0 failed", "  seed 1 failed"]
        assert all("non-finite loss at step" in line
                   for line in lines if line.startswith("  seed"))
        assert len(read_rows(tmp_path / "out/cli-smoke-sweep-q.csv")) == 2

    def test_sweep_q_exits_0_when_every_q_completes_a_seed(
            self, config_file, tmp_path, monkeypatch, capsys):
        # seed 1 trains on features scaled by 1e300: its logits overflow
        run_single = harness.run_single

        def seed_1_diverges(cfg, dataset, seed):
            if seed == 1:
                dataset = dataclasses.replace(
                    dataset, features=dataset.features * 1e300)
            return run_single(cfg, dataset, seed)

        monkeypatch.setattr(harness, "run_single", seed_1_diverges)
        monkeypatch.chdir(tmp_path)
        assert main(["sweep-q", "--config", str(config_file),
                     "--q-values", "1,20",
                     "--override", "outdir = out"]) == 0
        out, err = capsys.readouterr()
        assert all(line.endswith("over 1 of 2 seed(s)")
                   for line in out.splitlines()[:2])
        lines = err.splitlines()
        assert [line for line in lines if "failed seeds" in line] == \
            ["q=1 failed seeds: [1]", "q=20 failed seeds: [1]"]
        assert [line.split(":")[0] for line in lines] == \
            ["q=1 failed seeds", "  seed 1 failed",
             "q=20 failed seeds", "  seed 1 failed"]
        assert all("non-finite loss at step" in line
                   for line in lines if line.startswith("  seed"))

    def test_sweep_q_checks_q_against_train_rows(self, config_file, tmp_path,
                                                 monkeypatch, capsys):
        # clusters has 200 train rows, so s = 200 whatever the batch size
        monkeypatch.chdir(tmp_path)
        assert main(["sweep-q", "--config", str(config_file),
                     "--q-values", "4096",
                     "--override", "opt.batch_size = 4096",
                     "--override", "outdir = out",
                     "--override", "seeds = 0"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "s=200" in err
        assert not (tmp_path / "out").exists()

    def test_sweep_q_rejects_baseline_kind(self, config_file, tmp_path,
                                           monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["sweep-q", "--config", str(config_file),
                     "--q-values", "1,5,20", "--override", "opt.kind = sgd",
                     "--override", "outdir = out",
                     "--override", "seeds = 0"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "sgd always steps at q = s" in err
        assert not (tmp_path / "out").exists()

    def test_sweep_q_rejects_a_repeated_q(self, config_file, tmp_path,
                                          monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["sweep-q", "--config", str(config_file),
                     "--q-values", "4,4", "--override", "outdir = out"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "repeat" in err
        assert not (tmp_path / "out").exists()

    def test_sweep_q_rejects_a_non_integer_q(self, config_file, tmp_path,
                                             monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["sweep-q", "--config", str(config_file),
                     "--q-values", "1,x", "--override", "outdir = out"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'x'" in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    ["train"],
    ["sweep-q", "--q-values", "1,20"],
    ["analyze", "moreau", "--theta", "theta.npy", "--out", "moreau.csv"]],
    ids=["train", "sweep-q", "analyze-moreau"])
def test_config_error_is_one_line_and_exit_2(config_file, tmp_path,
                                             monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    assert main([*command, "--config", str(config_file),
                 "--override", "outdir = out",
                 "--override", "opt.batching = sometimes"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "opt.batching must be one of shuffle, iid, got 'sometimes'" in err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "moreau.csv").exists()


@pytest.mark.parametrize("text,message", [
    *REMOVED_SETTINGS.items(),
    ("seeds = 0, 0, 1", "seeds must not repeat a seed, got (0, 0, 1)")],
    ids=[*REMOVED_SETTINGS, "repeated-seed"])
def test_train_rejects_removed_settings_and_repeated_seeds(
        config_file, tmp_path, monkeypatch, capsys, text, message):
    monkeypatch.chdir(tmp_path)
    assert main(["train", "--config", str(config_file),
                 "--override", "outdir = out", "--override", text]) == 2
    assert capsys.readouterr().err == f"osgd train: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("body, message", [
    (None, "No such file"),
    ("1 0 1\n", "semeion.data:1: expected 266 columns, got 3")],
    ids=["missing", "malformed"])
def test_train_bad_semeion_file_is_one_line_and_exit_2(
        config_file, tmp_path, monkeypatch, capsys, body, message):
    src = tmp_path / "semeion.data"
    if body is not None:
        src.write_text(body)
    monkeypatch.chdir(tmp_path)
    assert main(["train", "--config", str(config_file),
                 "--override", "outdir = out",
                 "--override", "data.kind = semeion",
                 "--override", f"data.path = {src}"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert not (tmp_path / "out").exists()


class TestAnalyzeCommands:
    def test_bound_term(self, tmp_path, capsys):
        out = tmp_path / "bound.csv"
        assert main(["analyze", "bound-term", "--M", "1", "--s", "64",
                     "--q", "4", "--n", "1000", "--delta", "0.05",
                     "--out", str(out)]) == 0
        row = read_rows(out)[0]
        assert float(row["bound_term"]) == pytest.approx(0.6192364096327919)

    def test_gap_from_history_csv(self, tmp_path, config_file, monkeypatch):
        monkeypatch.chdir(tmp_path)
        main(["train", "--config", str(config_file),
              "--override", "outdir = out", "--override", "seeds = 0"])
        out = tmp_path / "gap.csv"
        assert main(["analyze", "gap",
                     "--history", str(tmp_path / "out/cli-smoke-records.csv"),
                     "--column", "train_ordered_loss", "--star", "0.0",
                     "--out", str(out)]) == 0
        rows = read_rows(out)
        gaps = [float(r["running_min_gap"]) for r in rows]
        assert gaps == sorted(gaps, reverse=True) or len(gaps) == 1

    @pytest.fixture
    def history(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("epoch,train_ordered_loss\n0,0.9\n1,0.5\n2,0.7\n")
        return path

    def test_gap_closes_history_file(self, tmp_path, history):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["analyze", "gap", "--history", str(history),
                         "--star", "0.5", "--out", str(tmp_path / "g.csv")]) == 0
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]
        with open(tmp_path / "g.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["running_min_gap"]) for r in rows] == [0.4, 0.0, 0.0]

    def test_gap_without_history_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", "gap", "--out", str(tmp_path / "g.csv")])
        assert exit_info.value.code == 2
        assert "--history" in capsys.readouterr().err

    def test_gap_missing_column_exits_2(self, tmp_path, history, capsys):
        assert main(["analyze", "gap", "--history", str(history),
                     "--column", "train_loss",
                     "--out", str(tmp_path / "g.csv")]) == 2
        assert "no column 'train_loss'" in capsys.readouterr().err
        assert not (tmp_path / "g.csv").exists()

    def test_moreau_loads_and_splits_the_rows_once(self, tmp_path,
                                                   config_file, monkeypatch):
        overrides = ["data.test_fraction = 0.25", "seeds = 3"]
        cfg = config.load_config(str(config_file), overrides=overrides)
        # the rows split once, at seeds[0]
        ds = cfg.data.split(config.build_dataset(cfg.data), 3)
        obj = config.build_objective(cfg, ds)
        theta = obj.init_params(np.random.default_rng(0))
        np.save(tmp_path / "theta.npy", theta)
        Xtr, ytr = ds.split("train")
        s = min(cfg.opt.batch_size, len(ytr))
        want = analysis.moreau_grad_norm(
            obj, theta, Xtr, ytr,
            coeffs.gamma_weights(len(ytr), s, cfg.opt.initial_q(s)),
            analysis.MoreauConfig(rho_hat=10.0, inner_tol=1e-6))
        splits = []

        def counting_split(*args, **kwargs):
            splits.append(args[2])  # the split seed
            return data.split_dataset(*args, **kwargs)

        monkeypatch.setattr(config, "split_dataset", counting_split)
        out = tmp_path / "moreau.csv"
        assert main(["analyze", "moreau", "--config", str(config_file),
                     *(arg for o in overrides for arg in ("--override", o)),
                     "--theta", str(tmp_path / "theta.npy"),
                     "--out", str(out)]) == 0
        assert splits == [3]
        assert read_rows(out)[0]["moreau_grad_norm"] == repr(want)

    def test_moreau_on_saved_params(self, tmp_path, config_file, monkeypatch):
        monkeypatch.chdir(tmp_path)
        main(["train", "--config", str(config_file), "--save-params",
              "--override", "outdir = out", "--override", "seeds = 0"])
        out = tmp_path / "moreau.csv"
        assert main(["analyze", "moreau", "--config", str(config_file),
                     "--override", "seeds = 0",
                     "--theta", str(tmp_path / "out/cli-smoke-seed0-theta.npy"),
                     "--rho-hat", "10.0", "--inner-tol", "1e-6",
                     "--out", str(out)]) == 0
        row = read_rows(out)[0]
        assert float(row["moreau_grad_norm"]) >= 0.0

    @pytest.mark.parametrize("theta, held", [
        (np.zeros(5), "5 parameters"),
        (np.zeros((1, 3)), "an array of shape (1, 3)")],
        ids=["length", "shape"])
    def test_moreau_theta_of_another_model_is_one_line_and_exit_2(
            self, tmp_path, config_file, capsys, theta, held):
        path = tmp_path / "t.npy"
        np.save(path, theta)
        out = tmp_path / "moreau.csv"
        assert main(["analyze", "moreau", "--config", str(config_file),
                     "--theta", str(path), "--out", str(out)]) == 2
        # the linear binary model on 2-D rows: 2 weights and a bias
        assert capsys.readouterr().err == (
            f"osgd analyze: {path} holds {held}; the configured model has 3\n")
        assert not out.exists()


def command_parsers(parser, path=()):
    """(command path, parser) for the parser and each subcommand."""
    yield " ".join(path), parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from command_parsers(sub, (*path, name))


def option_actions(parser):
    """(flag, its action) for each option but help."""
    return [(flag, action) for action in parser._actions
            for flag in action.option_strings if flag not in ("-h", "--help")]


def accepted_options(parser):
    """(command path, sorted options) for the parser and each subcommand."""
    for name, sub in command_parsers(parser):
        yield name, sorted(flag for flag, _ in option_actions(sub))


class TestParserContract:
    """argparse decides what each subcommand accepts: a missing or foreign
    option is a usage error with exit status 2, before any work."""

    def test_each_subcommand_declares_only_what_it_reads(self):
        nsq = ["--n", "--q", "--s"]
        assert dict(accepted_options(build_parser())) == {
            "": [],
            "gamma": sorted([*nsq, "--float", "--out"]),
            "gamma-curve": sorted([*nsq, "--out"]),
            "verify": ["--corrupt"],
            "verify unbiasedness": sorted([*nsq, "--seed", "--trials"]),
            "train": ["--config", "--override", "--save-params"],
            "sweep-q": ["--config", "--override", "--q-values"],
            "analyze": [],
            "analyze bound-term": sorted([*nsq, "--M", "--delta", "--out"]),
            "analyze gap": ["--column", "--history", "--out", "--star"],
            "analyze moreau": ["--config", "--inner-tol", "--out",
                               "--override", "--rho-hat", "--theta"],
        }

    @pytest.mark.parametrize("argv, message", [
        (["analyze", "gap", "--M", "1", "--history", "h.csv",
          "--out", "g.csv"], "unrecognized arguments: --M 1"),
        (["verify", "unbiasedness", "--corrupt", "gamma-sum"],
         "unrecognized arguments: --corrupt gamma-sum"),
        (["verify", "--corrupt", "gamma-sum", "unbiasedness"],
         "argument --corrupt: not allowed with verify unbiasedness"),
        (["analyze", "moreau", "--config", "run.cfg", "--out", "m.csv"],
         "the following arguments are required: --theta"),
        (["data", "gen-rings", "--out", "r.osgd"],
         "argument command: invalid choice: 'data'")],
        ids=["gap-M", "unbiasedness-corrupt", "corrupt-before-unbiasedness",
             "moreau-theta", "data"])
    def test_usage_error_exits_2(self, tmp_path, monkeypatch, capsys, argv,
                                 message):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def readme_command_lines():
    """Each ``osgd ...`` line of README's "Command line" block, as argv."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## Command line", 1)[1]
    block = section.split("```bash", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:]
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("osgd ")]


def test_readme_shows_every_subcommand():
    assert {argv[0] for argv in readme_command_lines()} == \
        {name for name, _ in accepted_options(build_parser())
         if name and " " not in name}


@pytest.mark.parametrize("argv", readme_command_lines(), ids=" ".join)
def test_readme_command_line_parses(argv):
    build_parser().parse_args(argv)


def readme_options_table():
    """{subcommand: sorted (option, bold)} from README's table of the
    options each subcommand accepts; a row may name several subcommands."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    table = text.split("| subcommand | options |\n|---|---|\n", 1)[1]
    listed = {}
    for row in table.split("\n\n", 1)[0].splitlines():
        names, options = row.strip("|").split("|", 1)
        flags = sorted((flag, bold == "**") for bold, flag in
                       re.findall(r"(\*\*)?`(--[\w-]+)", options))
        for name in re.findall(r"`([a-z][a-z -]*)`", names):
            listed[name] = flags
    return listed


def test_readme_options_table_lists_each_subcommands_options():
    """Every subcommand with options has a row, each option accepted is
    listed and no other, and an option is bold exactly when required."""
    declared = {}
    for name, parser in command_parsers(build_parser()):
        options = option_actions(parser)
        if options:
            declared[name] = sorted((flag, action.required)
                                    for flag, action in options)
    assert readme_options_table() == declared
