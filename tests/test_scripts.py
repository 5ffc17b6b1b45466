"""Smoke tests of the scripts in scripts/: each runs end to end."""
import importlib.util
import os
import subprocess
import sys

import numpy as np

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts")


def write_semeion_file(path, n=60, seed=0):
    """n rows in the Semeion text format: 256 pixels, then a one-hot label
    block, the labels cycling through the ten classes."""
    rng = np.random.default_rng(seed)
    pixels = (rng.random((n, 256)) < 0.3).astype(np.float64)
    onehot = np.eye(10, dtype=int)[np.arange(n) % 10]
    with open(path, "w") as fh:
        for row, label in zip(pixels, onehot):
            fh.write(" ".join(f"{v:.4f}" for v in row) + " "
                     + " ".join(map(str, label)) + "\n")


def run_semeion_table(tmp_path, seeds):
    """Run the table script for one epoch on a 60-row synthetic Semeion
    file; returns the finished process and the output directory."""
    data = tmp_path / "semeion.data"
    write_semeion_file(data)
    outdir = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "run_semeion_table.py"),
         "--path", str(data), "--seeds", str(seeds), "--epochs", "1",
         "--outdir", str(outdir)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc, outdir


def test_semeion_table_script(tmp_path):
    proc, outdir = run_semeion_table(tmp_path, seeds=2)
    assert "over 2 trials, 1 epochs" in proc.stdout
    table = proc.stdout.splitlines()
    assert any(line.startswith("Semeion") and "Logistic" in line
               for line in table)
    assert any(line.startswith("Semeion") and "SVM" in line for line in table)
    assert sorted(os.listdir(outdir)) == sorted(
        f"semeion-{loss}-{kind}-records.csv"
        for loss in ("multinomial-cross-entropy", "multiclass-hinge")
        for kind in ("sgd", "osgd"))
    for name in os.listdir(outdir):
        # a header plus one record per seed and epoch
        assert len((outdir / name).read_text().splitlines()) == 3


def test_semeion_table_single_seed_std_is_zero(tmp_path):
    proc, _ = run_semeion_table(tmp_path, seeds=1)
    assert "over 1 trials, 1 epochs" in proc.stdout
    rows = [line for line in proc.stdout.splitlines()
            if line.startswith("Semeion")]
    assert len(rows) == 2
    for row in rows:
        assert "nan" not in row
        assert row.count("(0.00)") == 2  # baseline and ordered std


def test_2d_geometries_script_single_seed(tmp_path, capsys):
    path = os.path.join(SCRIPTS, "run_2d_geometries.py")
    spec = importlib.util.spec_from_file_location("run_2d_geometries", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.main(["--seeds", "1", "--outdir", str(tmp_path)])
    out = capsys.readouterr().out
    assert "Focus-region error rates (%):" in out
    assert sum(line.startswith(("rings/inner", "clusters/sub"))
               for line in out.splitlines()) == 4  # a summary and a table row
    assert sorted(os.listdir(tmp_path)) == ["clusters-sub.csv",
                                            "rings-inner.csv"]
    for name in os.listdir(tmp_path):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "optimizer,seed,focus_acc,overall_acc"
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["sgd", "0"], ["osgd", "0"]]
