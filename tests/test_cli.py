import json
import os
import shlex
import shutil
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest

from cscert import (
    CertificationReport,
    DftUniquenessResult,
    ExperimentReport,
    MeasurementMatrix,
    SparseVector,
    build_random_partial_fourier,
    load_matrix_csv,
    save_matrix_csv,
)
from cscert.cli import main
from conftest import DEMO_CSV, REPO_ROOT


def run(*argv):
    return main(list(argv))


class TestCertifyCommand:
    def test_text_report_to_stdout(self, capsys):
        assert run("certify", "--matrix", str(DEMO_CSV)) == 0
        out = capsys.readouterr().out
        assert "spark: 6" in out
        assert "coherence: 0.49" in out

    def test_json_report_round_trips(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run("certify", "--matrix", str(DEMO_CSV), "--format", "json",
                   "--out", str(out)) == 0
        rep = CertificationReport.from_json(out.read_text())
        assert rep.spark == 6
        assert rep.to_json() == out.read_text()

    def test_budget_exhaustion_exits_2(self, tmp_path, capsys):
        assert run("certify", "--matrix", str(DEMO_CSV), "--budget", "10") == 2
        assert "budget" in capsys.readouterr().err

    def test_allow_approx_suppresses_status(self, capsys):
        assert run("certify", "--matrix", str(DEMO_CSV), "--budget", "10",
                   "--allow-approx") == 0

    @pytest.mark.parametrize("real, whole", [("2e3", "2000"), ("10.7", "10")])
    def test_real_budget_counts_as_its_floor(self, real, whole, capsys):
        reports = []
        for b in (real, whole):
            code = run("certify", "--matrix", str(DEMO_CSV), "--budget", b, "--allow-approx")
            reports.append((code, capsys.readouterr().out))
        assert reports[0] == reports[1]

    def test_budget_below_one_is_a_one_line_error(self, capsys):
        assert run("certify", "--matrix", str(DEMO_CSV), "--budget", "0.5") == 1
        assert capsys.readouterr().err == "error: --budget must be at least 1, got 0.5\n"

    def test_missing_file_is_input_error(self, capsys):
        assert run("certify", "--matrix", "no-such-file.csv") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_unnormalized_matrix_error_and_normalize_flag(self, tmp_path, capsys):
        f = tmp_path / "wide.csv"
        rng = np.random.default_rng(0)
        f.write_text(
            "\n".join(",".join(repr(float(v)) for v in row)
                      for row in rng.standard_normal((3, 5))) + "\n"
        )
        assert run("certify", "--matrix", str(f)) == 1
        err = capsys.readouterr().err
        assert "normalize_columns" in err and "--normalize" in err and err.count("\n") == 1
        assert run("certify", "--matrix", str(f), "--normalize") == 0

    def test_tall_matrix_certifies(self, tmp_path, capsys):
        f, out = tmp_path / "tall.csv", tmp_path / "report.json"
        assert run("gen", "gaussian", "--rows", "5", "--cols", "3", "--out", str(f)) == 0
        assert run("certify", "--matrix", str(f), "--normalize", "--format", "json",
                   "--out", str(out)) == 0
        d = json.loads(out.read_text())
        assert d["spark"] is None and d["spark_limit"] == 3
        assert d["welch"] == 0.0 and d["welch_k_bound"] is None
        assert run("certify", "--matrix", str(f), "--normalize") == 0
        assert "None" not in capsys.readouterr().out

    def test_single_column_is_a_one_line_error(self, tmp_path, capsys):
        f = tmp_path / "column.csv"
        f.write_text("0.6\n0.8\n0.0\n")
        assert run("certify", "--matrix", str(f)) == 1
        assert capsys.readouterr().err == (
            "error: certify needs at least two columns, got a 3x1 matrix\n")

    @pytest.mark.parametrize("text, bounded", [
        ("1e-310,1\n0,1\n", True), ("4.9e-324,1\n0,1\n", True),
        # mu is about 7e-311, so 1/mu overflows and bounds nothing, as mu = 0 does
        ("1e-310,1\n0,1\n1,0\n", False),
    ])
    def test_subnormal_entries_certify_with_warnings_as_errors(self, tmp_path, text, bounded):
        f = tmp_path / "subnormal.csv"
        f.write_text(text)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "cscert", "certify", "--matrix", str(f),
             "--normalize", "--format", "json"],
            env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")

        def refuse(name):
            raise ValueError(f"non-finite JSON constant {name}")

        report = json.loads(proc.stdout, parse_constant=refuse)
        assert (report["coherence_k_threshold"] is not None) == bounded
        assert (report["spark_lower_bound_from_mu"] is not None) == bounded
        assert bounded or report["coherence_limit"] == 2

    def test_a_tiny_coherence_limit_is_capped_at_n(self, tmp_path, capsys):
        # mu is about 7e-301: the threshold stays raw, the limit is the 2 columns' N
        f = tmp_path / "tiny_mu.csv"
        f.write_text("1e-300,1\n0,1\n1,0\n")
        assert run("certify", "--matrix", str(f), "--normalize", "--format", "json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["coherence_limit"] == report["spark_limit"] == 2
        assert report["coherence_k_threshold"] > 1e299
        assert run("certify", "--matrix", str(f), "--normalize") == 0
        assert "  unique for K <= 2  (K < 7.07106781187e+299)" in capsys.readouterr().out

    def test_unnormalized_entries_near_1e_170_are_a_one_line_error(self, tmp_path, capsys):
        # their Gram underflows; the diagnostic names the missing normalization
        f = tmp_path / "tiny.csv"
        entries = 1e-170 * np.random.default_rng(5).standard_normal((4, 7))
        save_matrix_csv(MeasurementMatrix(entries), f)
        assert run("certify", "--matrix", str(f)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "normalize" in err

    @pytest.mark.parametrize("cell", ["nan", "1e400", "-inf"])
    def test_non_finite_cell_is_input_error(self, tmp_path, capsys, cell):
        f = tmp_path / "bad.csv"
        f.write_text(f"0.6,0.8\n0.8,{cell}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("certify", "--matrix", str(f)) == 1
        assert not caught
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "row 1, column 1" in err

    @staticmethod
    def certifies_like_unscaled(scale, tmp_path, capsys):
        entries = np.random.default_rng(5).standard_normal((4, 7))
        reports = []
        for s in (1.0, scale):
            f = tmp_path / f"x{s:g}.csv"
            f.write_text("\n".join(",".join(repr(float(v)) for v in row)
                                    for row in s * entries) + "\n")
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert run("certify", "--matrix", str(f), "--normalize",
                           "--format", "json") == 0
            assert not caught
            reports.append(CertificationReport.from_json(capsys.readouterr().out))
        plain, scaled = reports
        for field in ("spark", "spark_exact", "spark_limit", "coherence_limit",
                      "rip_unique_limit", "l1_equiv_limit_sqrt2", "l1_equiv_limit_0493"):
            assert getattr(scaled, field) == getattr(plain, field), field

    def test_entries_above_1e154_normalize(self, tmp_path, capsys):
        # squaring such entries overflows; the scaled CSV must certify like the plain one
        self.certifies_like_unscaled(1e200, tmp_path, capsys)

    def test_entries_below_1e154_normalize(self, tmp_path, capsys):
        # squaring such entries underflows; the scaled CSV must certify like the plain one
        self.certifies_like_unscaled(1e-200, tmp_path, capsys)


class TestDftLimitCommand:
    def test_worked_example(self, capsys):
        assert run("dft-limit", "--n", "32",
                   "--missing", "2,3,8,13,19,22,23,28,30") == 0
        out = capsys.readouterr().out
        assert "penalty = 16" in out
        assert "K <= 7" in out

    def test_json_round_trip(self, tmp_path):
        out = tmp_path / "limit.json"
        assert run("dft-limit", "--n", "32",
                   "--missing", "2,3,8,13,19,22,23,28,30",
                   "--format", "json", "--out", str(out)) == 0
        res = DftUniquenessResult.from_json(out.read_text())
        assert res.k_max == 7
        assert res.to_json() == out.read_text()

    def test_json_report_grows_with_log_n(self, capsys):
        # one derivation row per modulus 2^h < N, with no per-residue counts
        assert run("dft-limit", "--n", str(1 << 20), "--missing", "0,1", "--format", "json") == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert len(out) < 4096 and len(report["derivation"]) == 20
        assert report["k_max"] == 524287 and report["exact"] is True

    def test_non_power_of_two_rejected(self, capsys):
        assert run("dft-limit", "--n", "12", "--missing", "1") == 1
        assert "power of two" in capsys.readouterr().err

    def test_pattern_file(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("8\n5\n")
        assert run("dft-limit", "--pattern", str(f)) == 0
        assert "K <= 3" in capsys.readouterr().out

    @pytest.mark.parametrize("missing", ["1,,3", "1,3,"])
    def test_empty_entry_is_an_error_in_a_file_as_on_the_flag(self, tmp_path, capsys, missing):
        f = tmp_path / "p.txt"
        f.write_text(f"16\n{missing}\n")
        grammar = f"must be a comma-separated list of integers, got {missing!r}\n"
        assert run("dft-limit", "--pattern", str(f)) == 1
        assert capsys.readouterr().err == f"error: {f}:2: positions {grammar}"
        assert run("dft-limit", "--n", "16", "--missing", missing) == 1
        assert capsys.readouterr().err == f"error: --missing {grammar}"

    def test_module_entry_point_exits_0(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "cscert", "dft-limit", "--n", "8", "--missing", "1"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "unique reconstruction guaranteed for K <= 3" in proc.stdout

    def test_pattern_excludes_inline_flags(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("8\n5\n")
        assert run("dft-limit", "--pattern", str(f), "--n", "8") == 1

    def test_budget_exhaustion_exits_2(self, capsys):
        # the bounds around this N=32 pattern disagree; one row set cannot settle it
        args = ("dft-limit", "--n", "32", "--missing", "4,10,13,15,16,21,23", "--budget", "1")
        assert run(*args) == 2
        captured = capsys.readouterr()
        assert "at least" in captured.out
        assert "guaranteed" not in captured.out
        assert "lower bound" in captured.err
        assert run(*args, "--allow-approx") == 0
        assert capsys.readouterr().err == ""

    def test_budget_must_be_positive(self, capsys):
        for budget, shown in [("0", "0.0"), ("0.5", "0.5"), ("nan", "nan")]:
            assert run("dft-limit", "--n", "8", "--missing", "5", "--budget", budget) == 1
            assert capsys.readouterr().err == f"error: --budget must be at least 1, got {shown}\n"

    def test_out_of_memory_is_a_one_line_error(self, monkeypatch, capsys):
        # any MemoryError of the limit is one line; the mock raises it without allocating
        monkeypatch.setattr("cscert.dft_uniqueness.dft_sparsity_limit",
                            mock.Mock(side_effect=MemoryError))
        assert run("dft-limit", "--n", str(1 << 40), "--missing", "0,1") == 1
        assert capsys.readouterr().err == "error: MemoryError\n"

    def test_real_budget_counts_as_its_floor(self, capsys):
        reports = []
        for b in ("1e3", "1000"):
            assert run("dft-limit", "--n", "16", "--missing", "1", "--budget", b, "--format", "json") == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]


class TestGenCommand:
    def test_gaussian_deterministic_files(self, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for f in (f1, f2):
            assert run("gen", "gaussian", "--rows", "5", "--cols", "8",
                       "--seed", "42", "--out", str(f)) == 0
        assert f1.read_bytes() == f2.read_bytes()
        a = load_matrix_csv(f1)
        assert a.shape == (5, 8)

    def test_partial_idft_file(self, tmp_path):
        f = tmp_path / "idft.csv"
        assert run("gen", "partial-idft", "--n", "8", "--positions", "0,1,2",
                   "--normalize", "--out", str(f)) == 0
        a = load_matrix_csv(f)
        assert a.shape == (3, 8) and a.normalized

    def test_gaussian_normalize_writes_unit_columns(self, tmp_path):
        f = tmp_path / "g.csv"
        assert run("gen", "gaussian", "--rows", "4", "--cols", "6", "--normalize",
                   "--out", str(f)) == 0
        a = load_matrix_csv(f)
        assert a.normalized
        np.testing.assert_allclose(np.linalg.norm(a.entries, axis=0), 1.0, rtol=0, atol=1e-12)

    def test_random_fourier_with_count(self, tmp_path):
        f = tmp_path / "rf.csv"
        assert run("gen", "random-fourier", "--n", "8", "--count", "5",
                   "--seed", "3", "--out", str(f)) == 0
        assert load_matrix_csv(f).shape == (5, 8)

    def test_missing_options_are_input_errors(self, tmp_path, capsys):
        assert run("gen", "gaussian", "--out", str(tmp_path / "x.csv")) == 1
        assert run("gen", "random-fourier", "--n", "4",
                   "--out", str(tmp_path / "y.csv")) == 1

    @pytest.mark.parametrize("count", ["-1", "0"])
    def test_count_must_be_positive(self, tmp_path, capsys, count):
        assert run("gen", "random-fourier", "--n", "4", "--count", count,
                   "--out", str(tmp_path / "x.csv")) == 1
        assert capsys.readouterr().err == "error: --count must be positive\n"

    @pytest.mark.parametrize("argv, what", [
        (["--n", "4", "--count", "3", "--interval", "-1"], "interval"),
        (["--n", "4", "--count", "3", "--interval", "nan"], "interval"),
        (["--n", "4", "--count", "3", "--interval", "inf"], "interval"),
        (["--n", "4", "--times", "0.1,0.2", "--interval", "inf"], "interval"),
        (["--n", "4", "--times", "0.1,nan"], "sampling instants"),
        (["--n", "0", "--count", "3"], "harmonics"),
        (["--n", "-2", "--times", "0.1"], "harmonics"),
    ])
    def test_random_fourier_bad_input_is_a_one_line_error(self, tmp_path, capsys, argv, what):
        out = tmp_path / "x.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("gen", "random-fourier", *argv, "--out", str(out)) == 1
        assert not caught
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and what in err
        assert not out.exists()

    def test_random_fourier_with_times(self, tmp_path):
        f = tmp_path / "x.csv"
        assert run("gen", "random-fourier", "--n", "4", "--times", "0.1,0.25,0.7",
                   "--interval", "2", "--out", str(f)) == 0
        want = build_random_partial_fourier(4, 2.0, [0.1, 0.25, 0.7]).entries
        np.testing.assert_array_equal(load_matrix_csv(f).entries, want)

    def test_bad_times_list_names_the_flag(self, tmp_path, capsys):
        assert run("gen", "random-fourier", "--n", "4", "--times", "0.1,x",
                   "--out", str(tmp_path / "x.csv")) == 1
        assert capsys.readouterr().err == (
            "error: --times must be a comma-separated list of numbers, got '0.1,x'\n")


class TestReconCommand:
    @staticmethod
    def spike_measurements(tmp_path):
        a = load_matrix_csv(DEMO_CSV)
        x = SparseVector(8, (6,), np.array([2.0 + 0j]))
        yfile = tmp_path / "y.csv"
        yfile.write_text("\n".join(repr(float(v.real)) for v in a.entries @ x.to_dense()) + "\n")
        return yfile

    def test_recovers_planted_spike(self, tmp_path, capsys):
        yfile = self.spike_measurements(tmp_path)
        out = tmp_path / "rec.json"
        assert run("recon", "--matrix", str(DEMO_CSV), "--measurements", str(yfile),
                   "--k", "1", "--format", "json", "--out", str(out)) == 0
        d = json.loads(out.read_text())
        assert d["support"] == [6]
        assert d["values"][0][0] == pytest.approx(2.0, abs=1e-9)
        assert d["residual"] <= 1e-9

    def test_text_format_lists_each_atom(self, tmp_path, capsys):
        yfile = self.spike_measurements(tmp_path)
        assert run("recon", "--matrix", str(DEMO_CSV), "--measurements", str(yfile),
                   "--k", "2", "--tol", "1e-9") == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("recovered 1 atoms, residual ")
        atom, value = lines[1].split(" = ")
        assert atom == "  x[6]" and complex(value) == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("cell, what", [
        ("nan", "non-finite entry (nan+0j)"), ("abc", "cannot parse 'abc'")])
    def test_bad_measurements_file_is_named(self, tmp_path, capsys, cell, what):
        yfile = tmp_path / "y.csv"
        yfile.write_text(f"0.1\n{cell}\n0.3\n0.4\n0.5\n")
        assert run("recon", "--matrix", str(DEMO_CSV), "--measurements", str(yfile),
                   "--k", "1") == 1
        assert capsys.readouterr().err == f"error: {yfile}: row 1, column 0: {what}\n"

    def test_dimension_mismatch_is_input_error(self, tmp_path, capsys):
        yfile = tmp_path / "y.csv"
        yfile.write_text("1.0\n2.0\n")
        assert run("recon", "--matrix", str(DEMO_CSV), "--measurements", str(yfile),
                   "--k", "1") == 1
        assert capsys.readouterr().err == (
            "error: measurement vector must have shape (5,), got (2,)\n")

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_k_must_be_positive(self, tmp_path, capsys, k):
        yfile = tmp_path / "y.csv"
        yfile.write_text("1.0\n" * 5)
        assert run("recon", "--matrix", str(DEMO_CSV), "--measurements", str(yfile),
                   "--k", k) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "--k" in captured.err
        assert captured.err.count("\n") == 1


class TestExperimentCommand:
    def test_json_report(self, tmp_path):
        out = tmp_path / "exp.json"
        assert run("experiment", "--matrix", str(DEMO_CSV), "--ks", "1",
                   "--trials", "25", "--seed", "7", "--out", str(out)) == 0
        rep = ExperimentReport.from_json(out.read_text())
        assert rep.success_rate == {1: 1.0}
        assert rep.to_json() == out.read_text()

    def test_csv_format(self, capsys):
        assert run("experiment", "--matrix", str(DEMO_CSV), "--ks", "1,2",
                   "--trials", "5", "--seed", "0", "--format", "csv") == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "K,success_rate"

    def test_identical_invocations_byte_identical_files(self, tmp_path):
        f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for f in (f1, f2):
            assert run("experiment", "--matrix", str(DEMO_CSV), "--ks", "1,2",
                       "--trials", "20", "--seed", "11", "--out", str(f)) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_bad_ks_is_input_error(self, capsys):
        assert run("experiment", "--matrix", str(DEMO_CSV), "--ks", "abc") == 1


class TestUsageErrors:
    def test_unknown_flag_is_status_1(self, capsys):
        assert run("certify", "--matrix", str(DEMO_CSV), "--frobnicate") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_unknown_command_is_status_1(self, capsys):
        assert run("frobnicate") == 1

    @pytest.mark.parametrize("argv", [
        ("gen", "gaussian", "--rows", "2", "--cols", "3", "--seed", "-1"),
        ("gen", "random-fourier", "--n", "4", "--count", "3", "--seed", "-1"),
        ("experiment", "--matrix", str(DEMO_CSV), "--ks", "1", "--seed", "-5"),
    ])
    def test_negative_seed_is_a_one_line_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        assert run(*argv, "--out", str(out)) == 1
        assert capsys.readouterr().err == "error: --seed must be non-negative\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, work", [
        (("dft-limit", "--n", "16", "--missing", "1"), "cscert.dft_uniqueness.dft_sparsity_limit"),
        (("certify", "--matrix", str(DEMO_CSV)), "cscert.cli.certify"),
    ], ids=["dft-limit", "certify"])
    def test_out_into_a_missing_directory_fails_before_the_work(self, tmp_path, monkeypatch,
                                                               capsys, command, work):
        monkeypatch.setattr(work, mock.Mock(side_effect=AssertionError("computed")))
        missing = tmp_path / "no" / "dir"
        assert run(*command, "--out", str(missing / "x")) == 1
        assert capsys.readouterr().err == f"error: --out: no such directory: {missing}\n"

    @pytest.mark.parametrize("argv, message", [
        (["certify", "--matrix", str(DEMO_CSV), "--kmax", "0"], "--kmax must be positive"),
        (["dft-limit"], "either --pattern or --n is required"),
        (["gen", "partial-idft", "--n", "8", "--out", "{tmp}/x.csv"],
         "partial-idft needs --n and --positions"),
        (["gen", "random-fourier", "--count", "3", "--out", "{tmp}/x.csv"],
         "random-fourier needs --n"),
        (["recon", "--matrix", str(DEMO_CSV), "--measurements", "{tmp}/y2.csv", "--k", "1"],
         "{tmp}/y2.csv: expected one measurement per line, got 2 columns"),
        (["experiment", "--matrix", str(DEMO_CSV), "--ks", ""],
         "--ks must name at least one sparsity"),
    ], ids=["kmax-0", "no-n-or-pattern", "no-positions", "no-n", "two-columns", "no-ks"])
    def test_missing_or_unusable_input_is_a_one_line_error(self, tmp_path, capsys, argv,
                                                           message):
        (tmp_path / "y2.csv").write_text("1,2\n3,4\n5,6\n7,8\n9,10\n")
        assert run(*[arg.format(tmp=tmp_path) for arg in argv]) == 1
        assert capsys.readouterr().err == f"error: {message.format(tmp=tmp_path)}\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", ["recon", "experiment"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tol_must_be_finite_and_non_negative(self, tmp_path, capsys, command, tol):
        yfile = tmp_path / "y.csv"
        yfile.write_text("1.0\n" * 5)
        argv = {"recon": ("--measurements", str(yfile), "--k", "2"),
                "experiment": ("--ks", "1", "--trials", "3")}[command]
        out = tmp_path / "out.json"
        assert run(command, "--matrix", str(DEMO_CSV), *argv, "--tol", tol,
                   "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --tol ") and err.count("\n") == 1
        assert not out.exists()

    def test_sparsity_above_min_rows_cols_is_a_one_line_error(self, tmp_path, capsys):
        m = tmp_path / "tall.csv"
        save_matrix_csv(MeasurementMatrix(np.random.default_rng(2).standard_normal((6, 3))), m)
        yfile = tmp_path / "y.csv"
        yfile.write_text("1.0\n" * 6)
        assert run("recon", "--matrix", str(m), "--measurements", str(yfile), "--k", "5") == 1
        assert capsys.readouterr().err == (
            "error: k_target 5 exceeds min(M, N) = 3 for a 6x3 matrix\n")
        assert run("experiment", "--matrix", str(m), "--ks", "1,4", "--trials", "2") == 1
        assert capsys.readouterr().err == (
            "error: sparsities must lie in [1, min(M, N)] = [1, 3], got [1, 4]\n")

    def test_gen_round_trip_through_loader(self, tmp_path):
        f = tmp_path / "m.csv"
        assert run("gen", "gaussian", "--rows", "3", "--cols", "4",
                   "--seed", "1", "--out", str(f)) == 0
        a = load_matrix_csv(f)
        g = tmp_path / "again.csv"
        save_matrix_csv(a, g)
        assert f.read_bytes() == g.read_bytes()


def test_readme_command_lines_exit_0(tmp_path, monkeypatch, capsys):
    # every cscert line of README's "Command line" block, in order; a.csv comes
    # from the block's own gen partial-idft line (4 rows), so y.csv has 4 values
    readme = (REPO_ROOT / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("cscert ")]
    assert len(lines) == 8
    shutil.copytree(REPO_ROOT / "data", tmp_path / "data")
    (tmp_path / "pattern.txt").write_text("16\n3,5,11,13\n")
    (tmp_path / "y.csv").write_text("0.5\n0.25+0.5i\n-1\n0\n")
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, (line, capsys.readouterr().err)
