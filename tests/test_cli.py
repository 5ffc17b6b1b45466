"""End-to-end checks of every CLI subcommand."""
import csv
import json
import os
from fractions import Fraction

import numpy as np
import pytest

from osgd.cli import main
from osgd.coeffs import gamma_weights
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
        rows = list(csv.DictReader(open(out)))
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
        rows = list(csv.DictReader(open(out)))
        assert rows[0]["gamma_exact_num"] == ""
        total = sum(float(r["gamma_float"]) for r in rows)
        assert total == pytest.approx(3.0, rel=1e-9)

    def test_gamma_curve_columns(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["gamma-curve", "--n", "100", "--s", "10", "--q", "3",
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(open(out)))
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
        rows = list(csv.DictReader(open(tmp_path / "out/cli-smoke-records.csv")))
        assert {r["seed"] for r in rows} == {"0", "1"}
        summary = list(csv.DictReader(open(tmp_path / "out/cli-smoke-summary.csv")))
        assert summary[0]["config_id"] == "cli-smoke"

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
        rows = list(csv.DictReader(open(tmp_path / "out/cli-smoke-sweep-q.csv")))
        assert len(rows) == 2

    def test_sweep_q_checks_q_against_train_rows(self, config_file, tmp_path,
                                                 monkeypatch):
        # clusters has 200 train rows, so s = 200 whatever the batch size
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match="s=200"):
            main(["sweep-q", "--config", str(config_file),
                  "--q-values", "4096",
                  "--override", "opt.batch_size = 4096",
                  "--override", "outdir = out", "--override", "seeds = 0"])
        assert not (tmp_path / "out").exists()

    def test_sweep_q_rejects_baseline_kind(self, config_file, tmp_path,
                                           monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match="sgd always steps at q = s"):
            main(["sweep-q", "--config", str(config_file),
                  "--q-values", "1,5,20", "--override", "opt.kind = sgd",
                  "--override", "outdir = out", "--override", "seeds = 0"])
        assert not (tmp_path / "out").exists()


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


class TestAnalyzeCommands:
    def test_bound_term(self, tmp_path, capsys):
        out = tmp_path / "bound.csv"
        assert main(["analyze", "bound-term", "--M", "1", "--s", "64",
                     "--q", "4", "--n", "1000", "--delta", "0.05",
                     "--out", str(out)]) == 0
        row = list(csv.DictReader(open(out)))[0]
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
        rows = list(csv.DictReader(open(out)))
        gaps = [float(r["running_min_gap"]) for r in rows]
        assert gaps == sorted(gaps, reverse=True) or len(gaps) == 1

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
        row = list(csv.DictReader(open(out)))[0]
        assert float(row["moreau_grad_norm"]) >= 0.0
