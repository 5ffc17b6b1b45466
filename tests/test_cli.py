"""End-to-end checks of every CLI subcommand."""
import csv
import dataclasses
import gc
import io
import json
import os
import warnings
from fractions import Fraction

import numpy as np
import pytest

from osgd import harness
from osgd.cli import main
from osgd.coeffs import EXACT_N_LIMIT, gamma_weights, gamma_weights_float
from osgd.data import load_cache


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

    def test_unbiasedness_subcommand(self, capsys):
        assert main(["verify", "unbiasedness", "--n", "8", "--s", "4",
                     "--q", "2", "--trials", "5", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "max componentwise deviation" in out


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
        assert err.splitlines() == ["q=1 failed seeds: [0, 1]",
                                    "q=20 failed seeds: [0, 1]"]
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
        assert err.splitlines() == ["q=1 failed seeds: [1]",
                                    "q=20 failed seeds: [1]"]

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
                 "--override", "model.bias = no"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "model.bias must be true or false, got 'no'" in err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "moreau.csv").exists()


class TestDataCommands:
    def test_gen_rings_cache(self, tmp_path):
        out = tmp_path / "rings.osgd"
        assert main(["data", "gen-rings", "--seed", "4", "--out", str(out)]) == 0
        ds = load_cache(out)
        assert ds.n == 1000 and ds.d == 2

    def test_gen_clusters_cache(self, tmp_path):
        out = tmp_path / "clusters.osgd"
        assert main(["data", "gen-clusters", "--seed", "4", "--out", str(out)]) == 0
        assert load_cache(out).n == 200

    def test_import_semeion(self, tmp_path):
        src = tmp_path / "semeion.data"
        line = " ".join(["1.0000"] * 256) + " " + " ".join(
            ["0"] * 9 + ["1"])
        src.write_text(line + "\n")
        out = tmp_path / "semeion.osgd"
        assert main(["data", "import-semeion", "--path", str(src),
                     "--out", str(out)]) == 0
        ds = load_cache(out)
        assert ds.labels.tolist() == [9]

    @pytest.mark.parametrize("body, message", [
        (None, "No such file"),
        ("1 0 1\n", "semeion.data:1: expected 266 columns, got 3")],
        ids=["missing", "malformed"])
    def test_import_semeion_bad_file_is_one_line_and_exit_2(
            self, tmp_path, capsys, body, message):
        src = tmp_path / "semeion.data"
        if body is not None:
            src.write_text(body)
        out = tmp_path / "semeion.osgd"
        assert main(["data", "import-semeion", "--path", str(src),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert not out.exists()


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
        assert main(["analyze", "gap", "--out", str(tmp_path / "g.csv")]) == 2
        assert "--history" in capsys.readouterr().err

    def test_gap_missing_column_exits_2(self, tmp_path, history, capsys):
        assert main(["analyze", "gap", "--history", str(history),
                     "--column", "train_loss",
                     "--out", str(tmp_path / "g.csv")]) == 2
        assert "no column 'train_loss'" in capsys.readouterr().err
        assert not (tmp_path / "g.csv").exists()

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
