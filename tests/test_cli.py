"""End-to-end CLI behavior: flags, outputs, determinism, exit codes."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from bandsel import cli, evaluate, training
from bandsel.cli import main, parse_k_range
from bandsel.cube import MAGIC, HsiCube, load_cube, save_cube
from bandsel.selection import SelectionResult

from oracles import msd_oracle


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def make_cube(tmp_path, name="cube.hsic", rows=10, cols=10, bands=8, seed=1, classes=4):
    path = tmp_path / name
    code = main([
        "synth", "--rows", str(rows), "--cols", str(cols), "--bands", str(bands),
        "--informative", "3", "--seed", str(seed), "--classes", str(classes),
        "--out", str(path),
    ])
    assert code == 0
    return path


def read_table(path):
    """Header line and comma-split data rows of a CSV the CLI wrote."""
    text = path.read_text()
    assert text.endswith("\n") and not text.endswith("\n\n")
    header, *lines = text[:-1].split("\n")
    return header, [line.split(",") for line in lines]


def assert_numeric(rows, start):
    """Every field from column ``start`` on is a plain number (no ``np.float64(`` wrapper)."""
    for row in rows:
        for field in row[start:]:
            float(field)


class TestKRange:
    def test_paper_style_sweep_has_fourteen_values(self):
        ks = parse_k_range("3:30:2")
        assert ks == list(range(3, 31, 2))
        assert len(ks) == 14

    def test_single_value_and_default_step(self):
        assert parse_k_range("5") == [5]
        assert parse_k_range("2:4") == [2, 3, 4]

    def test_inclusive_end_on_grid(self):
        assert parse_k_range("2:10:4") == [2, 6, 10]

    def test_invalid_ranges_rejected(self):
        from bandsel.errors import ConfigError

        for bad in ("0:5", "5:3", "3:9:0", "a:b"):
            with pytest.raises(ConfigError):
                parse_k_range(bad)

    def test_largest_value_is_checked_against_the_band_count(self):
        from bandsel.errors import ConfigError

        assert parse_k_range("2:7:2", 6) == [2, 4, 6]
        for bad in ("7", "2:8:2", "2:1000000000000"):
            with pytest.raises(ConfigError, match="6 bands"):
                parse_k_range(bad, 6)


class TestSynth:
    def test_writes_cube_and_sidecar_with_planted_indices(self, tmp_path):
        path = make_cube(tmp_path)
        cube = load_cube(path)
        assert (cube.rows, cube.cols, cube.bands) == (10, 10, 8)
        meta = json.loads((tmp_path / "cube.hsic.meta.json").read_text())
        assert len(meta["informative"]) == 3
        assert all(0 <= i < 8 for i in meta["informative"])

    def test_same_flags_give_byte_identical_outputs(self, tmp_path):
        a = make_cube(tmp_path, "a.hsic")
        b = make_cube(tmp_path, "b.hsic")
        assert sha256(a) == sha256(b)
        assert (tmp_path / "a.hsic.meta.json").read_text() == (tmp_path / "b.hsic.meta.json").read_text()

    def test_zero_bands_fails_with_config_exit_code(self, tmp_path, capsys):
        code = main([
            "synth", "--rows", "4", "--cols", "4", "--bands", "0",
            "--informative", "1", "--out", str(tmp_path / "x.hsic"),
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("classes", [10**9, 2**62, 10**24], ids=["1e9", "2^62", "1e24"])
    def test_more_classes_than_pixels_exits_2_before_allocating(self, tmp_path, capsys, monkeypatch, classes):
        def refuse(*args, **kwargs):
            raise AssertionError("class edges were allocated")

        monkeypatch.setattr(np, "linspace", refuse)
        code = main(["synth", "--rows", "4", "--cols", "4", "--bands", "8", "--informative", "3",
                     "--classes", str(classes), "--out", str(tmp_path / "x.hsic")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("rows, cols, bands", [(4, 4, 10**30), (100000, 100000, 8)],
                             ids=["1e30-bands", "8e10-values"])
    def test_oversized_cube_exits_2_before_allocating(self, tmp_path, capsys, monkeypatch, rows, cols, bands):
        def refuse(*args, **kwargs):
            raise AssertionError("the cube was generated")

        monkeypatch.setattr(cli, "synth_generate", refuse)
        code = main(["synth", "--rows", str(rows), "--cols", str(cols), "--bands", str(bands),
                     "--informative", "3", "--out", str(tmp_path / "x.hsic")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "cap" in err and err.count("\n") == 1
        assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["train", "--lr=nan"], ["train", "--lr=inf"], ["train", "--l1=nan"], ["train", "--l1=inf"],
    ["synth", "--rows", "6", "--cols", "5", "--bands", "8", "--informative", "3", "--noise-sigma=nan"],
    ["synth", "--rows", "6", "--cols", "5", "--bands", "8", "--informative", "3", "--noise-sigma=inf"],
], ids=["lr-nan", "lr-inf", "l1-nan", "l1-inf", "noise-sigma-nan", "noise-sigma-inf"])
def test_non_finite_float_flag_is_a_config_error(tmp_path, capsys, argv):
    cube = make_cube(tmp_path, rows=6, cols=5, bands=8)
    capsys.readouterr()
    out = str(tmp_path / "out")
    target = ["--out", out + ".hsic"] if argv[0] == "synth" else ["--input", str(cube), "--out-prefix", out]
    assert main([*argv, *target]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("command", ["synth", "train", "eval"])
def test_negative_seed_is_a_config_error(tmp_path, capsys, command):
    cube = make_cube(tmp_path)
    capsys.readouterr()
    out = str(tmp_path / "out")
    argv = {
        "synth": ["synth", "--rows", "4", "--cols", "4", "--bands", "5", "--informative", "2",
                  "--out", out + ".hsic"],
        "train": ["train", "--input", str(cube), "--maxiter", "1", "--out-prefix", out],
        "eval": ["eval", "--input", str(cube), "--include-random", "--k", "2", "--runs", "1",
                 "--out-prefix", out],
    }[command]
    assert main([*argv, "--seed=-1"]) == 2
    assert capsys.readouterr().err.startswith("error: seed")
    assert not list(tmp_path.glob("out*"))


def test_diverging_training_prints_only_the_error_line(tmp_path):
    """Exit 4 starts stderr with ``error:`` under the default warning filters, not numpy warnings.

    Runs in a fresh interpreter: the in-process fuzz tests silence warnings
    and pytest captures the rest.
    """
    cube = tmp_path / "small.hsic"
    save_cube(HsiCube(np.random.default_rng(0).random((6, 5, 4))), cube)
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(src)
    proc = subprocess.run([sys.executable, "-m", "bandsel", "train", "--input", str(cube), "--maxiter", "3",
                           "--lr", "1e300", "--out-prefix", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("error:"), proc.stderr
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("exc, message", [(MemoryError("Unable to allocate 7.45 GiB"), "Unable to allocate 7.45 GiB"),
                                            (MemoryError(), "MemoryError")])
def test_memory_error_exits_3_with_one_error_line(tmp_path, capsys, monkeypatch, exc, message):
    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "train", exhausted)
    cube = make_cube(tmp_path)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    capsys.readouterr()
    code = main(["train", "--input", str(cube), "--out-prefix", str(out_dir / "o")])
    assert code == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(out_dir.iterdir())


@pytest.mark.parametrize("command", ["metrics", "eval"])
def test_huge_k_range_is_rejected_before_it_is_built(tmp_path, capsys, command):
    cube = make_cube(tmp_path)
    capsys.readouterr()
    extra = ["--include-random", "--runs", "1"] if command == "eval" else []
    code = main([command, "--input", str(cube), *extra, "--k=2:1000000000000",
                 "--out-prefix", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: sweep k")
    assert not list(tmp_path.glob("out*"))


class TestTrain:
    def test_defaults_follow_reference_hyperparameters(self, tmp_path):
        cube = make_cube(tmp_path)
        prefix = tmp_path / "run"
        code = main([
            "train", "--input", str(cube), "--maxiter", "2",
            "--out-prefix", str(prefix),
        ])
        assert code == 0
        result = json.loads((tmp_path / "run.json").read_text())
        assert result["config"]["l1_coeff"] == 1e-2
        assert result["config"]["learning_rate"] == 2e-3
        assert result["config"]["variant"] == "fc"
        # defaults recorded even when maxiter is overridden
        defaults = main([
            "train", "--input", str(cube), "--out-prefix", str(tmp_path / "d"), "--maxiter", "1",
        ])
        assert defaults == 0
        cfg = json.loads((tmp_path / "d.json").read_text())["config"]
        assert cfg["batch_size"] == 64

    def test_ranking_is_a_permutation_and_files_exist(self, tmp_path):
        cube = make_cube(tmp_path)
        prefix = tmp_path / "run"
        assert main(["train", "--input", str(cube), "--maxiter", "2", "--k", "3",
                     "--out-prefix", str(prefix)]) == 0
        result = SelectionResult.load_json(tmp_path / "run.json")
        assert sorted(result.ranking) == list(range(8))
        assert len(result.top_k) == 3
        header, rows = read_table(tmp_path / "run_loss.csv")
        assert header == "epoch,loss"
        assert [",".join(row) for row in rows] == [
            f"{epoch},{v!r}" for epoch, v in enumerate(result.loss_trace, 1)]
        assert len(rows) == 2
        header, rows = read_table(tmp_path / "run_weights.csv")
        assert header == "epoch," + ",".join(f"band_{j}" for j in range(8))
        assert [row[0] for row in rows] == ["1", "2"]
        assert all(len(row) == 1 + 8 for row in rows)
        assert_numeric(rows, 1)

    def test_conv_variant_routes_patch_flags(self, tmp_path):
        cube = make_cube(tmp_path, rows=8, cols=8, bands=5)
        prefix = tmp_path / "conv"
        code = main([
            "train", "--input", str(cube), "--variant", "conv", "--a", "4", "--t", "3",
            "--maxiter", "1", "--out-prefix", str(prefix),
        ])
        assert code == 0
        cfg = json.loads((tmp_path / "conv.json").read_text())["config"]
        assert cfg["variant"] == "conv"
        assert cfg["kind"] == "patches"
        assert cfg["window"] == 4 and cfg["stride"] == 3
        assert cfg["batch_size"] == 32

    def test_fixed_seed_reproduces_hash_identical_json(self, tmp_path):
        cube = make_cube(tmp_path)
        for prefix in ("r1", "r2"):
            assert main(["train", "--input", str(cube), "--maxiter", "3", "--seed", "11",
                         "--out-prefix", str(tmp_path / prefix)]) == 0
        assert sha256(tmp_path / "r1.json") == sha256(tmp_path / "r2.json")
        assert sha256(tmp_path / "r1_weights.csv") == sha256(tmp_path / "r2_weights.csv")

    @pytest.mark.parametrize("maxiter", [2**21, 10**30], ids=["2^21", "1e30"])
    def test_huge_epoch_count_exits_2_before_training(self, tmp_path, capsys, monkeypatch, fuzz_cube, maxiter):
        # 8 bands: (2**21 + 1) x 8 recorded weights are over the 2**24 cap.
        def refuse(*args, **kwargs):
            raise AssertionError("a model was built")

        monkeypatch.setattr(training, "BandSelectorFC", refuse)
        capsys.readouterr()
        code = main(["train", "--input", fuzz_cube, "--maxiter", str(maxiter), "--out-prefix", str(tmp_path / "t")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "cap" in err and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_missing_input_is_a_data_error(self, tmp_path, capsys):
        code = main(["train", "--input", str(tmp_path / "absent.hsic"),
                     "--out-prefix", str(tmp_path / "x")])
        assert code == 3
        assert "error" in capsys.readouterr().err


class TestMetrics:
    def test_entropy_csv_has_one_row_per_band(self, tmp_path):
        labels = [3 * j + 1 for j in range(8)]
        save_cube(HsiCube(load_cube(make_cube(tmp_path)).values, band_labels=labels),
                  tmp_path / "labeled.hsic")
        assert main(["metrics", "--input", str(tmp_path / "labeled.hsic"), "--k", "2:4",
                     "--out-prefix", str(tmp_path / "m")]) == 0
        header, rows = read_table(tmp_path / "m_entropy.csv")
        assert header == "band_index,original_label,entropy"
        assert [row[0] for row in rows] == [str(j) for j in range(8)]
        assert [int(row[1]) for row in rows] == labels
        assert_numeric(rows, 2)

    def test_msd_sweep_covers_range_and_matches_oracle(self, tmp_path):
        cube_path = make_cube(tmp_path)
        assert main(["metrics", "--input", str(cube_path), "--k", "2:6:2",
                     "--out-prefix", str(tmp_path / "m")]) == 0
        header, rows = read_table(tmp_path / "m_msd.csv")
        assert header == "k,msd"
        assert [row[0] for row in rows] == ["2", "4", "6"]
        cube = load_cube(cube_path)
        from bandsel.metrics import variance_rank

        ranking = variance_rank(cube, cube.bands).ranking
        for k, value in rows:
            want = msd_oracle(cube.values, ranking[: int(k)], 256)
            assert float(value) == pytest.approx(want, abs=1e-10)

    def test_raw_valued_cube_is_unit_scaled(self, tmp_path):
        # n / 256 and 500 + 1000 * n / 256 are exact in float32, so scaling
        # the raw cube reproduces the pre-scaled values bit for bit.
        levels = np.random.default_rng(7).integers(0, 257, size=(8, 8, 4)).astype(np.float64)
        levels[0, 0, 0], levels[0, 0, 1] = 0, 256
        save_cube(HsiCube(500.0 + 1000.0 * levels / 256), tmp_path / "raw.hsic")
        save_cube(HsiCube(levels / 256), tmp_path / "unit.hsic")
        for name in ("raw", "unit"):
            assert main(["metrics", "--input", str(tmp_path / f"{name}.hsic"), "--k", "2:4",
                         "--out-prefix", str(tmp_path / name)]) == 0
        for table in ("_entropy.csv", "_msd.csv"):
            assert (tmp_path / f"raw{table}").read_text() == (tmp_path / f"unit{table}").read_text()

    def test_ranking_file_is_used(self, tmp_path):
        cube_path = make_cube(tmp_path)
        assert main(["train", "--input", str(cube_path), "--maxiter", "1",
                     "--out-prefix", str(tmp_path / "sel")]) == 0
        assert main(["metrics", "--input", str(cube_path), "--ranking", str(tmp_path / "sel.json"),
                     "--k", "3", "--out-prefix", str(tmp_path / "m")]) == 0
        ranking = SelectionResult.load_json(tmp_path / "sel.json").ranking
        cube = load_cube(cube_path)
        line = (tmp_path / "m_msd.csv").read_text().strip().split("\n")[1]
        want = msd_oracle(cube.values, ranking[:3], 256)
        assert float(line.split(",")[1]) == pytest.approx(want, abs=1e-10)

    def test_bad_k_leaves_no_output(self, tmp_path, capsys):
        cube_path = make_cube(tmp_path, bands=6)
        assert main(["metrics", "--input", str(cube_path), "--k", "2:10:2",
                     "--out-prefix", str(tmp_path / "m")]) == 2
        assert "sweep k" in capsys.readouterr().err
        for suffix in ("_entropy.csv", "_msd.csv", "_metrics.meta.json"):
            assert not (tmp_path / f"m{suffix}").exists()

    @pytest.mark.parametrize("n_bins", [10**9, 2**62, 10**30], ids=["1e9", "2^62", "1e30"])
    def test_huge_bin_count_exits_2_before_allocating(self, tmp_path, capsys, monkeypatch, fuzz_cube, n_bins):
        def refuse(*args, **kwargs):
            raise AssertionError("a histogram was allocated")

        monkeypatch.setattr(np, "bincount", refuse)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        capsys.readouterr()
        code = main(["metrics", "--input", fuzz_cube, "--n-bins", str(n_bins), "--out-prefix", str(out_dir / "m")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert not list(out_dir.iterdir())


class TestEval:
    def test_sweep_emits_expected_row_counts_with_seeds(self, tmp_path):
        cube = make_cube(tmp_path, rows=12, cols=12, bands=6)
        assert main(["train", "--input", str(cube), "--maxiter", "1",
                     "--out-prefix", str(tmp_path / "sel")]) == 0
        code = main([
            "eval", "--input", str(cube), "--selection", f"net={tmp_path / 'sel.json'}",
            "--include-random", "--k", "2:4:2", "--runs", "3", "--train-fraction", "0.2",
            "--out-prefix", str(tmp_path / "e"),
        ])
        assert code == 0
        header, rows = read_table(tmp_path / "e_runs.csv")
        assert header == "selector,k,run_seed,oa,aa,kappa"
        assert len(rows) == 2 * 3 * 2  # selectors x runs x k values
        assert {row[2] for row in rows} == {"0", "1", "2"}
        assert_numeric(rows, 3)
        header, summary = read_table(tmp_path / "e_summary.csv")
        assert header == "selector,k,runs,oa_mean,oa_std,aa_mean,aa_std,kappa_mean,kappa_std"
        assert len(summary) == 2 * 2
        assert {row[2] for row in summary} == {"3"}
        assert_numeric(summary, 3)

    def test_missing_ground_truth_is_a_clear_error(self, tmp_path, capsys):
        path = tmp_path / "nogt.hsic"
        assert main(["synth", "--rows", "6", "--cols", "6", "--bands", "5",
                     "--informative", "2", "--classes", "0", "--out", str(path)]) == 0
        code = main(["eval", "--input", str(path), "--include-random", "--k", "2",
                     "--runs", "1", "--out-prefix", str(tmp_path / "e")])
        assert code == 3
        assert "ground truth" in capsys.readouterr().err

    def test_no_selectors_is_a_config_error(self, tmp_path, capsys):
        cube = make_cube(tmp_path)
        code = main(["eval", "--input", str(cube), "--k", "2", "--runs", "1",
                     "--out-prefix", str(tmp_path / "e")])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("flags", [
        ["--selection", "random={sel}", "--include-random"],
        ["--selection", "variance={sel}", "--variance-baseline"],
        ["--selection", "a={sel}", "--selection", "a={sel}"],
    ], ids=["random", "variance", "repeated"])
    def test_colliding_selector_names_are_a_config_error(self, tmp_path, capsys, flags):
        cube = make_cube(tmp_path)
        sel = tmp_path / "sel.json"
        sel.write_text(json.dumps({"ranking": list(range(8)), "top_k": [0, 1],
                                   "averaged_weights": [0.5] * 8, "loss_trace": [1.0]}))
        code = main(["eval", "--input", str(cube), *[f.format(sel=sel) for f in flags],
                     "--k", "2", "--runs", "2", "--out-prefix", str(tmp_path / "e")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not list(tmp_path.glob("e_*"))

    @pytest.mark.parametrize("runs", [2**19 + 1, 10**30], ids=["2^19+1", "1e30"])
    def test_huge_run_count_exits_2_before_any_split(self, tmp_path, capsys, monkeypatch, fuzz_cube, runs):
        # Two selectors and one subset size: 2 x (2**19 + 1) rows are over the 2**20 cap.
        def refuse(*args, **kwargs):
            raise AssertionError("a split was drawn")

        monkeypatch.setattr(evaluate, "split", refuse)
        capsys.readouterr()
        code = main(["eval", "--input", fuzz_cube, "--variance-baseline", "--include-random", "--k", "2",
                     "--runs", str(runs), "--out-prefix", str(tmp_path / "e")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "cap" in err and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_largest_label_id_does_not_size_the_evaluation(self, tmp_path):
        values = np.random.default_rng(0).random((6, 5, 4))
        gt = np.ones((6, 5), dtype=np.uint32)
        gt[2:4] = 2
        gt[4:] = 2**32 - 1
        path = tmp_path / "huge.hsic"
        save_cube(HsiCube(values, ground_truth=gt), path)
        with pytest.warns(UserWarning, match="classes 3-4294967294 have no labeled pixels"):
            code = main(["eval", "--input", str(path), "--include-random", "--k", "2",
                         "--runs", "1", "--out-prefix", str(tmp_path / "e")])
        assert code == 0
        _, rows = read_table(tmp_path / "e_runs.csv")
        assert len(rows) == 1


BAD_RANKINGS = {
    "longer_than_cube": json.dumps({"ranking": list(range(12)), "top_k": [0, 1],
                                    "averaged_weights": [0.5] * 12, "loss_trace": [1.0]}).encode(),
    "repeated_band": json.dumps({"ranking": [0, 0, 1], "top_k": [0, 0],
                                 "averaged_weights": [0.5] * 3, "loss_trace": [1.0]}).encode(),
    "missing_top_k": json.dumps({"ranking": list(range(8)),
                                 "averaged_weights": [0.5] * 8, "loss_trace": [1.0]}).encode(),
    "not_utf8": b"\xff\xfe{",
    "deeply_nested": b"[" * 100_000,
    "over_long_integer": b'{"ranking": 1' + b"0" * 5000 + b"}",
    "weight_beyond_float_range": json.dumps({"ranking": list(range(8)), "top_k": [0, 1],
                                             "averaged_weights": [10**400] * 8, "loss_trace": [1.0]}).encode(),
}


@pytest.mark.parametrize("command", ["metrics", "eval"])
@pytest.mark.parametrize("case", sorted(BAD_RANKINGS))
def test_bad_ranking_file_exits_3_without_traceback(tmp_path, capsys, case, command):
    cube = make_cube(tmp_path)
    ranking_path = tmp_path / "bad.json"
    ranking_path.write_bytes(BAD_RANKINGS[case])
    if command == "metrics":
        argv = ["metrics", "--input", str(cube), "--ranking", str(ranking_path), "--k", "2"]
    else:
        argv = ["eval", "--input", str(cube), "--selection", f"bad={ranking_path}", "--k", "2", "--runs", "1"]
    code = main([*argv, "--out-prefix", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and "Traceback" not in err
    assert not list(tmp_path.glob("out*"))


def cube_file_bytes(header, values):
    blob = header if isinstance(header, bytes) else json.dumps(header).encode()
    return MAGIC + struct.pack("<I", len(blob)) + blob + np.asarray(values, dtype="<f4").tobytes()


HEADER = {"rows": 2, "cols": 3, "bands": 4, "dtype": "f32", "has_gt": False}
PAYLOAD = np.linspace(0.0, 1.0, 24)
BAD_CUBES = {
    "rows_not_a_number": cube_file_bytes({**HEADER, "rows": "abc"}, PAYLOAD),
    "rows_null": cube_file_bytes({**HEADER, "rows": None}, PAYLOAD),
    "header_is_a_list": cube_file_bytes([2, 3, 4], PAYLOAD),
    "band_labels_a_string": cube_file_bytes({**HEADER, "band_labels": "ab"}, PAYLOAD),
    "band_labels_wrong_length": cube_file_bytes({**HEADER, "band_labels": [0, 1, 2]}, PAYLOAD),
    "band_labels_beyond_int64": cube_file_bytes({**HEADER, "band_labels": [0, 1, 2, 2**63]}, PAYLOAD),
    "all_nan_payload": cube_file_bytes(HEADER, np.full(24, np.nan)),
    "header_deeply_nested": cube_file_bytes(b"[" * 100_000, PAYLOAD),
    "header_over_long_integer": cube_file_bytes(b'{"rows": 1' + b"0" * 5000 + b"}", PAYLOAD),
    # With a label payload, so only the has_gt check can reject it.
    "has_gt_a_string": cube_file_bytes({**HEADER, "has_gt": "false"}, PAYLOAD) + np.ones(6, "<u4").tobytes(),
}


@pytest.mark.parametrize("case", sorted(BAD_CUBES))
def test_malformed_cube_exits_3_without_traceback(tmp_path, capsys, case):
    cube_path = tmp_path / "bad.hsic"
    cube_path.write_bytes(BAD_CUBES[case])
    code = main(["metrics", "--input", str(cube_path), "--k", "2", "--out-prefix", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and "Traceback" not in err
    assert not list(tmp_path.glob("out*"))


def test_signaling_nan_payload_prints_only_the_error_line(tmp_path, capsys):
    payload = bytearray(np.asarray(PAYLOAD, dtype="<f4").tobytes())
    payload[4:8] = b"\x01\x00\x80\x7f"  # a float32 signaling NaN at pixel (0,0) band 1
    blob = json.dumps(HEADER).encode()
    cube_path = tmp_path / "snan.hsic"
    cube_path.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob + bytes(payload))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["metrics", "--input", str(cube_path), "--k", "2", "--out-prefix", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err == "error: non-finite value at pixel (0,0) band 1\n"
    assert not list(tmp_path.glob("out*"))


FUZZ_HEADER = {"rows": 6, "cols": 5, "bands": 4, "dtype": "f32", "has_gt": True}
FUZZ_VALUES = np.linspace(0.0, 1.0, 6 * 5 * 4)
FUZZ_LABELS = np.arange(6 * 5) % 3 + 1
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def fuzz_cube_bytes(header=FUZZ_HEADER, labels=FUZZ_LABELS):
    blob = json.dumps(header).encode()
    return (MAGIC + struct.pack("<I", len(blob)) + blob + np.asarray(FUZZ_VALUES, dtype="<f4").tobytes()
            + np.asarray(labels, dtype="<u4").tobytes())


@st.composite
def mutated_cube(draw):
    """A valid 6x5x4 labeled cube file with one kind of damage: header, labels or raw bytes."""
    kind = draw(st.sampled_from(["header", "drop_field", "labels", "bytes", "truncate"]))
    if kind == "header":
        field = draw(st.sampled_from([*FUZZ_HEADER, "band_labels"]))
        value = draw(JSON_VALUES | st.lists(st.integers(-2**70, 2**70), min_size=4, max_size=4))
        return fuzz_cube_bytes(header={**FUZZ_HEADER, field: value})
    if kind == "drop_field":
        field = draw(st.sampled_from(list(FUZZ_HEADER)))
        return fuzz_cube_bytes(header={k: v for k, v in FUZZ_HEADER.items() if k != field})
    if kind == "labels":
        label = st.integers(0, 4) | st.integers(0, 2**32 - 1) | st.just(2**32 - 1)
        return fuzz_cube_bytes(labels=draw(st.lists(label, min_size=30, max_size=30)))
    data = bytearray(fuzz_cube_bytes())
    if kind == "truncate":
        return bytes(data[: draw(st.integers(0, len(data) - 1))])
    for pos, byte in draw(st.lists(st.tuples(st.integers(0, len(data) - 1), st.integers(0, 255)),
                                   min_size=1, max_size=8)):
        data[pos] = byte
    return bytes(data)


def run_quietly(argv):
    """``main(argv)`` with stdout, stderr and warnings captured; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(argv)
    return code, err.getvalue()


def assert_clean_failure(code, err, out_dir):
    """A non-zero exit prints one ``error:`` line, no traceback, and leaves no output file behind."""
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert not os.listdir(out_dir), (code, err)


@settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_cube())
def test_mutated_cube_exits_cleanly(raw):
    """Any damage to a cube file ends in a documented exit code, never an exception; a failure writes nothing.

    ``eval`` and ``metrics`` exit 0, 2 or 3; ``train`` may also exit 4.
    """
    argvs = (["eval", "--include-random", "--k", "2", "--runs", "1"], ["metrics", "--k", "2:3"],
             ["train", "--variant", "fc", "--maxiter", "1"],
             ["train", "--variant", "conv", "--a", "3", "--maxiter", "1"])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cube.hsic")
        with open(path, "wb") as fh:
            fh.write(raw)
        out_dir = os.path.join(tmp, "out")
        os.mkdir(out_dir)
        for argv in argvs:
            code, err = run_quietly([*argv, "--input", path, "--out-prefix", os.path.join(out_dir, "o")])
            assert code in ((0, 2, 3, 4) if argv[0] == "train" else (0, 2, 3))
            if code:
                assert_clean_failure(code, err, out_dir)
            else:
                for name in os.listdir(out_dir):
                    os.remove(os.path.join(out_dir, name))


@pytest.fixture(scope="module")
def fuzz_cube(tmp_path_factory):
    """A labeled 6x5x8 synthetic cube shared by the fuzz tests below."""
    return str(make_cube(tmp_path_factory.mktemp("fuzz"), rows=6, cols=5, bands=8))


def reject_constant(token):
    raise AssertionError(f"non-finite JSON constant {token}")


def assert_finite_outputs(out_dir):
    """Every JSON output is strict JSON (no NaN or Infinity) and every number in every CSV is finite."""
    for name in os.listdir(out_dir):
        path = Path(out_dir, name)
        if name.endswith(".json"):
            json.loads(path.read_text(encoding="utf-8"), parse_constant=reject_constant)
        elif name.endswith(".csv"):
            for cell in (cell for row in read_table(path)[1] for cell in row):
                with contextlib.suppress(ValueError):
                    assert math.isfinite(float(cell)), (name, cell)


SELECTION = {"ranking": [3, 1, 4, 0, 5, 7, 2, 6], "top_k": [3, 1], "averaged_weights": [0.5] * 8,
             "loss_trace": [1.0], "config": {"variant": "fc"}}


@st.composite
def mutated_selection(draw):
    """A valid selection result for the fuzz cube with one kind of damage."""
    kind = draw(st.sampled_from(["field", "drop_field", "ranking", "long_number", "nested", "bytes"]))
    if kind == "field":
        field = draw(st.sampled_from(list(SELECTION)))
        value = draw(JSON_VALUES | st.lists(st.integers(-10**400, 10**400), max_size=8))
        return json.dumps({**SELECTION, field: value}).encode()
    if kind == "drop_field":
        field = draw(st.sampled_from(list(SELECTION)))
        return json.dumps({k: v for k, v in SELECTION.items() if k != field}).encode()
    if kind == "ranking":
        return json.dumps({**SELECTION, "ranking": draw(st.lists(st.integers(-2, 9), max_size=10))}).encode()
    if kind == "long_number":
        field = draw(st.sampled_from(list(SELECTION)))
        digits = b"1" + b"0" * draw(st.integers(0, 5000))
        return json.dumps({**SELECTION, field: "@"}).encode().replace(b'"@"', digits)
    if kind == "nested":
        return draw(st.sampled_from([b"[", b'{"a":'])) * draw(st.integers(1, 5000))
    data = bytearray(json.dumps(SELECTION).encode())
    for pos, byte in draw(st.lists(st.tuples(st.integers(0, len(data) - 1), st.integers(0, 255)),
                                   min_size=1, max_size=8)):
        data[pos] = byte
    return bytes(data[: draw(st.integers(0, len(data)))])


@settings(max_examples=100)
@given(raw=mutated_selection())
def test_mutated_selection_exits_cleanly(fuzz_cube, raw):
    """A damaged ranking file makes ``metrics`` and ``eval`` exit 0 or 3, never raise."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sel.json")
        with open(path, "wb") as fh:
            fh.write(raw)
        out_dir = os.path.join(tmp, "out")
        os.mkdir(out_dir)
        for argv in (["metrics", "--ranking", path, "--k", "2:3"],
                     ["eval", "--selection", f"net={path}", "--k", "2", "--runs", "1"]):
            code, err = run_quietly([*argv, "--input", fuzz_cube, "--out-prefix", os.path.join(out_dir, "o")])
            assert code in (0, 3)
            if code:
                assert_clean_failure(code, err, out_dir)
            else:
                for name in os.listdir(out_dir):
                    os.remove(os.path.join(out_dir, name))


@settings(max_examples=150)
@given(text=st.text(alphabet="0123456789:-+ ", max_size=12), command=st.sampled_from(["metrics", "eval"]))
def test_fuzzed_k_range_exits_cleanly(fuzz_cube, text, command):
    """Any ``--k`` string exits 0 with every k in range, or exits 2 and writes nothing."""
    lowest, argv, table, column = {
        "metrics": (2, ["metrics"], "_msd.csv", 0),
        "eval": (1, ["eval", "--include-random", "--runs", "1"], "_runs.csv", 1),
    }[command]
    with tempfile.TemporaryDirectory() as tmp:
        prefix = os.path.join(tmp, "o")
        code, err = run_quietly([*argv, f"--k={text}", "--input", fuzz_cube, "--out-prefix", prefix])
        assert code in (0, 2)
        if code:
            assert_clean_failure(code, err, tmp)
        else:
            _, rows = read_table(Path(prefix + table))
            ks = {int(row[column]) for row in rows}
            assert ks and lowest <= min(ks) and max(ks) <= 8


FLOAT_FLAGS = {
    "--lr": lambda v: v > 0,
    "--l1": lambda v: v >= 0,
    "--noise-sigma": lambda v: v >= 0,
    "--train-fraction": lambda v: 0 < v < 1,
}


@settings(max_examples=120)
@given(flag=st.sampled_from(sorted(FLOAT_FLAGS)),
       value=st.floats() | st.sampled_from([math.nan, math.inf, -math.inf]))
@example(flag="--lr", value=1e300)
def test_fuzzed_float_flag_exits_cleanly(fuzz_cube, flag, value):
    """A non-finite or out-of-range float flag exits 2 and writes nothing; others run.

    A run that exits 0 writes only finite numbers; one that fails writes nothing.
    """
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "o")
        train = ["train", "--input", fuzz_cube, "--maxiter", "1", "--out-prefix", out]
        argv = {
            "--lr": train,
            "--l1": train,
            "--noise-sigma": ["synth", "--rows", "4", "--cols", "4", "--bands", "5", "--informative", "2",
                              "--out", out + ".hsic"],
            "--train-fraction": ["eval", "--input", fuzz_cube, "--include-random", "--k", "2", "--runs", "1",
                                 "--out-prefix", out],
        }[flag]
        code, err = run_quietly([*argv, f"{flag}={value!r}"])
        if not (math.isfinite(value) and FLOAT_FLAGS[flag](value)):
            assert code == 2
        elif flag in ("--lr", "--l1"):
            # A huge but finite rate or coefficient may overflow training: exit 4.
            assert code in (0, 4)
        else:
            assert code == 0
        if code:
            assert_clean_failure(code, err, tmp)
        else:
            assert_finite_outputs(tmp)


# Above 300 the draws skip to 2**21 + 1: with 8 bands every count there is over
# the 2**24-count histogram cap, while a legal count below it allocates up to 128 MiB.
@settings(max_examples=100)
@given(n_bins=st.integers(-2, 300) | st.integers(2**21 + 1, 2**70))
def test_fuzzed_n_bins_exits_cleanly(fuzz_cube, n_bins):
    """Any ``--n-bins`` exits 0 with finite outputs, or exits 2 and writes nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        code, err = run_quietly(["metrics", "--input", fuzz_cube, "--n-bins", str(n_bins), "--k", "2:3",
                                 "--out-prefix", os.path.join(tmp, "o")])
        assert code in (0, 2)
        if code:
            assert_clean_failure(code, err, tmp)
        else:
            assert_finite_outputs(tmp)


# Each flag draws half the time from its valid range (a third of the time for
# the dimensions): with uniform draws almost every run stops at the first check
# and the later ones go unexercised. A dimension past 2**27 alone exceeds the
# synth cube cap, so no draw asks for a cube that would really be allocated.
HUGE_DIMENSION = st.integers(2**27 + 1, 2**100)


@settings(max_examples=150)
@given(rows=st.integers(1, 8) | st.integers(-1, 8) | HUGE_DIMENSION,
       cols=st.integers(1, 8) | st.integers(-1, 8) | HUGE_DIMENSION,
       bands=st.integers(1, 8) | st.integers(-1, 8) | HUGE_DIMENSION,
       informative=st.integers(1, 2) | st.integers(-1, 9),
       classes=st.integers(-1, 5) | st.integers(-1, 2**70),
       noise=st.floats(0, 1) | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf]),
       seed=st.integers(-2, 2) | st.integers(-2, 2**64))
def test_fuzzed_synth_flags_exit_cleanly(rows, cols, bands, informative, classes, noise, seed):
    """Any mix of ``synth`` flags writes a readable cube with a strict-JSON sidecar, or fails and writes nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "c.hsic")
        code, err = run_quietly(["synth", f"--rows={rows}", f"--cols={cols}", f"--bands={bands}",
                                 f"--informative={informative}", f"--classes={classes}",
                                 f"--noise-sigma={noise!r}", f"--seed={seed}", "--out", out])
        assert code in (0, 2, 3, 4)
        if code:
            assert_clean_failure(code, err, tmp)
        else:
            cube = load_cube(out)
            assert (cube.rows, cube.cols, cube.bands) == (rows, cols, bands)
            with open(out + ".meta.json", encoding="utf-8") as fh:
                json.load(fh, parse_constant=reject_constant)


@settings(max_examples=60)
@given(variant=st.sampled_from(["fc", "conv"]), a=st.integers(1, 5), t=st.integers(1, 5),
       k=st.integers(0, 9), batch=st.integers(1, 8), maxiter=st.integers(1, 3))
def test_fuzzed_train_flags_exit_cleanly(fuzz_cube, variant, a, t, k, batch, maxiter):
    """Any mix of ``train`` flags exits 0 with finite outputs for that variant, or fails and writes nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        prefix = os.path.join(tmp, "o")
        code, err = run_quietly(["train", "--input", fuzz_cube, "--variant", variant, "--a", str(a),
                                 "--t", str(t), "--k", str(k), "--batch-size", str(batch),
                                 "--maxiter", str(maxiter), "--out-prefix", prefix])
        assert code in (0, 2, 3, 4)
        if code:
            assert_clean_failure(code, err, tmp)
        else:
            assert_finite_outputs(tmp)
            config = json.loads(Path(prefix + ".json").read_text())["config"]
            assert (config["variant"], config["k"], config["batch_size"]) == (variant, k, batch)


@pytest.fixture(scope="module")
def fuzz_ranking(tmp_path_factory):
    """A valid selection result for the fuzz cube."""
    path = tmp_path_factory.mktemp("ranking") / "sel.json"
    path.write_text(json.dumps(SELECTION))
    return str(path)


def pick(*strategies):
    """One of ``strategies``, each equally likely however many branches it has itself."""
    return st.sampled_from(strategies).flatmap(lambda s: s)


# Half of each number's draws are valid. No integer is mid-range: 10**5 epochs
# or runs would do real work, while every integer flag at 2**40 and at 2**70
# exits 2 at its cap or finishes at once.
INTEGERS = pick(st.integers(1, 6), st.integers(-2, 8) | st.integers(2**40, 2**70))
FLOATS = pick(st.floats(0.01, 0.5), st.floats() | st.sampled_from([math.nan, math.inf, -math.inf]))
K_RANGES = pick(st.builds("{}:{}:{}".format, st.integers(1, 4), st.integers(4, 8), st.integers(1, 3)),
                st.text(alphabet="0123456789:-+ ", max_size=12))
# Distinct names, or any names: a repeat, ``random`` or ``variance`` may collide.
SELECTOR_NAMES = pick(st.lists(st.sampled_from(["net", "alt"]), min_size=1, max_size=2, unique=True),
                      st.lists(st.sampled_from(["net", "alt", "random", "variance"]), min_size=1, max_size=3))


def subcommand_options():
    """{command: [option actions]} as ``cli.build_parser()`` declares them."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {command: [a for a in parser._actions if a.option_strings and not isinstance(a, argparse._HelpAction)]
            for command, parser in sub.choices.items()}


def option_values(action, paths):
    """Strategy for one option's value, read off its action; None if no rule draws it.

    ``True`` stands for a bare ``store_true`` flag and a list for a repeated option.
    """
    if isinstance(action, argparse._StoreTrueAction):
        return st.just(True)
    if action.dest in ("out", "out_prefix", "input", "ranking"):
        return st.just(paths[action.dest])
    if action.dest == "selection":
        return SELECTOR_NAMES.map(lambda names: [f"{name}={paths['ranking']}" for name in names])
    if action.choices:
        return st.sampled_from(action.choices)
    if action.dest == "k" and action.type is None:
        return K_RANGES
    return {int: INTEGERS, float: FLOATS}.get(action.type)


def flag_draws(paths):
    """(command, {option: value}) for any subcommand.

    An optional option whose default is None or False may be left out, so the
    command falls back on its own value (batch size by variant, ``k`` = bands).
    Any other default is one more value of the drawn domain, or would run real
    work (``--maxiter`` 100), so that option is always drawn. In one example of
    four, one option that takes a value, other than an output path, gets the
    raw token ``--``.
    """
    def command_draws(command):
        fields = {}
        dashable = []
        for action in subcommand_options()[command]:
            values = option_values(action, paths)
            if values is None:
                continue
            option = action.option_strings[0]
            omittable = not action.required and (action.default is None or action.default is False)
            fields[option] = st.none() | values if omittable else values
            if action.nargs != 0 and action.dest not in ("out", "out_prefix"):
                dashable.append(option)
        dashed = st.sampled_from([None] * 3 * len(dashable) + dashable)
        return st.tuples(st.fixed_dictionaries(fields), dashed).map(
            lambda drawn: (command, {**{option: v for option, v in drawn[0].items() if v is not None},
                                     **({drawn[1]: "--"} if drawn[1] else {})}))
    return st.sampled_from(sorted(subcommand_options())).flatmap(command_draws)


def to_argv(command, opts):
    """``main``'s argv for a drawn case: every value joined to its option by ``=``."""
    argv = [command]
    for option, value in opts.items():
        if value is True:
            argv.append(option)
        else:
            argv += [f"{option}={v}" for v in (value if isinstance(value, list) else [value])]
    return argv


@settings(max_examples=500)
@given(data=st.data())
def test_fuzzed_flags_exit_cleanly(fuzz_cube, fuzz_ranking, data):
    """Any mix of any command's flags ends in a documented exit code and never raises.

    A failure prints one ``error:`` line and writes nothing. A negative integer
    for a flag the command reads (``--a`` and ``--t`` only under ``--variant
    conv``), or a negative or non-finite float, exits 2. Exit 0 writes outputs
    that parse and echo what the command records.
    """
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "o")
        paths = {"input": fuzz_cube, "ranking": fuzz_ranking, "out": out + ".hsic", "out_prefix": out}
        command, opts = data.draw(flag_draws(paths))
        code, err = run_quietly(to_argv(command, opts))
        event(f"{command} exit {code}")
        assert code in (0, 2, 3, 4)
        unread = () if opts.get("--variant") == "conv" else ("--a", "--t")
        numbers = [v for option, v in opts.items() if type(v) in (int, float) and option not in unread]
        if any(v < 0 or not math.isfinite(v) for v in numbers):
            assert code == 2, err
        if code:
            assert_clean_failure(code, err, tmp)
            return
        assert_finite_outputs(tmp)
        if command == "synth":
            cube = load_cube(out + ".hsic")
            assert (cube.rows, cube.cols, cube.bands) == (opts["--rows"], opts["--cols"], opts["--bands"])
        elif command == "train":
            variant = opts["--variant"]
            config = json.loads(Path(out + ".json").read_text())["config"]
            want = (variant, opts.get("--k", 8), opts.get("--batch-size", 64 if variant == "fc" else 32))
            assert (config["variant"], config["k"], config["batch_size"]) == want
        else:
            table, column, lowest = {"metrics": ("_msd.csv", 0, 2), "eval": ("_runs.csv", 1, 1)}[command]
            ks = {int(row[column]) for row in read_table(Path(out + table))[1]}
            assert ks and lowest <= min(ks) and max(ks) <= 8


def test_flag_fuzz_draws_every_option():
    """Every option ``build_parser()`` declares is drawn, so a new flag is fuzzed the day it lands."""
    declared = {(command, action.option_strings[0])
                for command, actions in subcommand_options().items() for action in actions}
    drawn = set()

    @settings(max_examples=100)
    @given(flag_draws({"input": "c.hsic", "ranking": "r.json", "out": "o.hsic", "out_prefix": "o"}))
    def draw(case):
        command, opts = case
        drawn.update((command, option) for option in opts)

    draw()
    assert drawn == declared
