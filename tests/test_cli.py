"""Command-line surface tests: commands, formats, config stack, exit codes."""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from catlab import arith, cli, experiments, quantize, spectral
from catlab.arith import CatMatrix, _cell
from catlab.cli import main

GOLDEN = Path(__file__).parent / "golden"


# Quantizable, but gcd(b, c) = 15 fails the short-period hypotheses.
INELIGIBLE = ("-a", "26", "-b", "45", "-c", "15", "-d", "26")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_reference_matrix(self, capsys):
        code, out, _ = run(capsys, "classify", "-a", "2", "-b", "3", "-c", "1", "-d", "2")
        assert code == 0
        assert "quantizable: yes" in out
        assert "short-period eligible: yes" in out

    def test_identity_rejected(self, capsys):
        code, out, _ = run(capsys, "classify", "-a", "1", "-b", "0", "-c", "0", "-d", "1")
        assert code == 1
        assert "quantizable: no" in out

    def test_parity_failure_listed(self, capsys):
        code, out, _ = run(capsys, "classify", "-a", "2", "-b", "1", "-c", "1", "-d", "1")
        assert code == 1
        assert "c*d odd" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "classify", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["is_quantizable"] is True
        assert payload["lambda"] == pytest.approx(3.7320508075688772)

    def test_malformed_input_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["classify", "-a", "two"])
        assert err.value.code == 2


class TestSequence:
    def test_golden_csv(self, capsys):
        code, out, _ = run(capsys, "sequence", "--count", "5")
        assert code == 0
        assert out == "k,N_k,t_k\n1,5,3\n2,19,5\n3,71,7\n4,265,9\n5,989,11\n"

    def test_single_pair(self, capsys):
        code, out, _ = run(capsys, "sequence", "--count", "1")
        assert code == 0
        assert out.splitlines()[1] == "1,5,3"

    def test_ineligible_matrix_names_hypothesis(self, capsys):
        code, _, err = run(
            capsys, "sequence", "-a", "3", "-b", "2", "-c", "4", "-d", "3"
        )
        assert code == 1
        assert "gcd(b, c) != 1" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "sequence", "--count", "2", "--format", "json")
        assert code == 0
        assert json.loads(out) == [
            {"k": 1, "N_k": 5, "t_k": 3},
            {"k": 2, "N_k": 19, "t_k": 5},
        ]

    def test_certification_failure_exit_code(self, capsys, off_by_one_period):
        code, out, err = run(capsys, "sequence", "--count", "2")
        assert (code, out) == (4, "")
        assert err == (
            "catlab: certification failed: short-period modulus at N=5: |n_N - t_k| 1 exceeds 0\n"
        )


class TestPeriod:
    def test_odd(self, capsys):
        code, out, _ = run(capsys, "period", "--n", "989")
        assert code == 0
        assert out == "N,T_N,n_N,rule\n989,11,11,odd_N\n"

    def test_even_doubled(self, capsys):
        code, out, _ = run(capsys, "period", "--n", "8", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"N": 8, "T_N": 4, "n_N": 8, "rule": "even_N_doubled"}

    def test_missing_n(self, capsys):
        code, _, err = run(capsys, "period")
        assert code == 2
        assert "--n" in err


class TestPropagator:
    def test_csv_dump(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        code, _, _ = run(capsys, "propagator", "--n", "5", "--out", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        assert all(len(line.split(",")) == 10 for line in lines)

    def test_binary_dump(self, capsys, tmp_path):
        path = tmp_path / "m.catm"
        code, _, _ = run(
            capsys, "propagator", "--n", "5", "--format", "binary", "--out", str(path)
        )
        assert code == 0
        matrix = np.fromfile(path, dtype="<c16", offset=16).reshape(5, 5)
        assert np.abs(matrix.conj().T @ matrix - np.eye(5)).max() < 1e-12

    def test_binary_requires_out(self, capsys):
        code, _, err = run(capsys, "propagator", "--n", "5", "--format", "binary")
        assert code == 2
        assert "--out" in err

    def test_binary_without_out_rejected_before_build(self, capsys, monkeypatch):
        built = []

        def build(*args, **kwargs):
            built.append(args)
            raise RuntimeError("propagator built before the flags were checked")

        monkeypatch.setattr(quantize, "build_propagator", build)
        code, out, err = run(capsys, "propagator", "--n", "5", "--format", "binary")
        assert (code, out, built) == (2, "", [])
        assert err == "catlab: usage error: binary output requires --out\n"

    @pytest.mark.parametrize("matrix", [(2, 3, 1, 2), (2, -3, -1, 2)])
    def test_json_matches_the_build_bit_for_bit(self, capsys, matrix):
        flags = [arg for name, value in zip("abcd", matrix) for arg in ("-" + name, str(value))]
        code, out, _ = run(capsys, "propagator", *flags, "--n", "15", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        prop = quantize.build_propagator(CatMatrix(*matrix), 15)
        assert payload["N"] == 15
        assert payload["unitarity_residual"] == prop.unitarity_residual
        entries = np.array(payload["entries"])
        expected = np.stack((prop.entries.real, prop.entries.imag), axis=-1)
        assert np.array_equal(entries.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("command", ["propagator", "spectrum", "profile", "dispersive"])
    def test_even_rejected(self, capsys, command):
        code, out, err = run(capsys, command, "--n", "4")
        assert (code, out, err) == (1, "", "catlab: expected odd N, got 4\n")

    @pytest.mark.parametrize("command", ["propagator", "dispersive", "spectrum", "profile"])
    def test_zero_dimension_rejected(self, capsys, command):
        # the dense build and the matrix-free apply share one domain gate,
        # which spectrum and profile reach before the period search
        code, out, err = run(capsys, command, "--n", "0")
        assert (code, out, err) == (1, "", "catlab: dimension must be positive, got 0\n")


class TestSpectrum:
    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--n", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["N"] == 5
        assert sum(c["dim"] for c in payload["clusters"]) == 5
        assert payload["global_phase"] is not None
        assert payload["residual_max"] <= 1e-8

    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--n", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "index,re,im,phase,cluster,residual"
        assert len(lines) == 6

    def test_certification_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(quantize, "UNITARITY_TOL", 1e-30)
        code, out, err = run(capsys, "spectrum", "--n", "31")
        assert code == 4
        assert out == ""
        assert re.fullmatch(
            r"catlab: certification failed: propagator build at N=31: unitarity residual"
            r" \S+ exceeds 5\.567764362830022e-30\n",
            err,
        )

    def test_clustering_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(spectral, "CLUSTER_TOL", 10)
        code, out, err = run(capsys, "spectrum", "--n", "71")
        assert (code, out) == (4, "")
        # bound min(10, 2*pi/7 - 2*10): roots 2*pi/7 apart cannot be told
        # apart at this tolerance
        assert re.fullmatch(
            r"catlab: certification failed: clustering at N=71: largest snap distance"
            r" \S+ exceeds -19\.102402098974345\n",
            err,
        )

    def test_eigensystem_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(spectral, "MODULUS_TOL", -1.0)
        code, out, err = run(capsys, "spectrum", "--n", "5")
        assert (code, out) == (4, "")
        assert re.fullmatch(
            r"catlab: certification failed: eigensolve at N=5: max \|modulus - 1\|"
            r" \S+ exceeds -1\.0\n",
            err,
        )

    def test_module_entry_point_exit_code(self, run_cli_module):
        done = run_cli_module(
            "spectrum", "-a", "2", "-b", "1", "-c", "1", "-d", "1", "--n", "31"
        )
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == "catlab: matrix (2,1,1,1) is not quantizable: c*d odd\n"

    def test_phase_zero_cluster_at_long_period(self, capsys):
        # n_N = 18 at N=51: eigenvalues 0, 1 and 50 sit at phase 0 to
        # rounding, one of them just below 2*pi; their cluster is 0 at 0.0
        argv = ("spectrum", "-a", "2", "-b", "-3", "-c", "-1", "-d", "2", "--n", "51")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert all(0.0 <= float(row[3]) < 2 * np.pi for row in rows)
        assert [row[3:5] for row in rows if row[0] in ("0", "1", "50")] == [["0.0", "0"]] * 3
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        clusters = json.loads(out)["clusters"]
        assert all(0.0 <= c["phase"] < 2 * np.pi for c in clusters)
        assert clusters[0]["phase"] == 0.0
        assert clusters[0]["indices"] == [0, 1, 50]


class TestScanCommand:
    def test_csv_and_svg_deterministic(self, capsys, tmp_path):
        args = [
            "scan",
            "--n-min",
            "3",
            "--n-max",
            "41",
            "--svg",
        ]
        first_csv = tmp_path / "a.csv"
        first_svg = tmp_path / "a.svg"
        second_csv = tmp_path / "b.csv"
        second_svg = tmp_path / "b.svg"
        code, _, _ = run(
            capsys, *args, str(first_svg), "--out", str(first_csv)
        )
        assert code == 0
        code, _, _ = run(
            capsys, *args, str(second_svg), "--out", str(second_csv)
        )
        assert code == 0
        assert first_csv.read_bytes() == second_csv.read_bytes()
        assert first_svg.read_bytes() == second_svg.read_bytes()
        assert first_svg.read_text().startswith("<svg ")

    def test_jobs_do_not_change_output(self, capsys, tmp_path):
        serial = tmp_path / "serial.csv"
        threaded = tmp_path / "threaded.csv"
        run(capsys, "scan", "--n-min", "3", "--n-max", "21", "--out", str(serial))
        run(
            capsys,
            "scan",
            "--n-min",
            "3",
            "--n-max",
            "21",
            "--jobs",
            "3",
            "--out",
            str(threaded),
        )
        assert serial.read_bytes() == threaded.read_bytes()

    def test_binary_format_rejected(self, capsys):
        code, out, err = run(capsys, "scan", "--n-min", "3", "--n-max", "7", "--format", "binary")
        assert code == 2
        assert out == ""
        assert "binary" in err

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--n-min", "5", "--n-max", "5", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["N"] == 5
        assert payload[0]["is_bdb"] is True

    def test_failed_records_reported_before_failed_svg(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(quantize, "UNITARITY_TOL", 1e-30)
        path = tmp_path / "s.svg"
        code, _, err = run(capsys, "scan", "--n-min", "3", "--n-max", "7", "--svg", str(path))
        assert code == 1
        first, *rest = err.splitlines()
        assert first.startswith(
            "warning: 3 record(s) failed (first: N=3: propagator build at N=3:"
        )
        assert rest == ["catlab: no plottable scan records"]
        assert not path.exists()

    def test_map_outside_short_period_hypotheses(self, capsys):
        code, out, err = run(
            capsys, "scan", *INELIGIBLE, "--n-min", "3", "--n-max", "11", "--format", "json"
        )
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert [r["N"] for r in payload] == [3, 5, 7, 9, 11]
        assert all(r["is_bdb"] is False and "error" not in r for r in payload)


class TestProfileCommand:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "profile", "--n", "19")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "i,abs_u_i"
        assert len(lines) == 20

    def test_svg(self, capsys, tmp_path):
        path = tmp_path / "p.svg"
        code, _, _ = run(capsys, "profile", "--n", "19", "--svg", str(path))
        assert code == 0
        assert path.read_text().startswith("<svg ")

    @pytest.mark.parametrize("N", [71, 73])
    def test_negative_trace(self, capsys, N):
        # trace -4 at n_N = 14 and 36: the scalar power is certified, and
        # profile prints the moduli of the witness, which
        # test_spectral.py::test_witness_is_eigenvector checks is an eigenvector
        matrix = ("-a", "-2", "-b", "3", "-c", "1", "-d", "-2", "--n", str(N))
        code, out, _ = run(capsys, "spectrum", *matrix, "--format", "json")
        assert code == 0
        assert json.loads(out)["global_phase"] is not None
        code, out, _ = run(capsys, "profile", *matrix, "--format", "json")
        assert code == 0
        _, report = experiments.clustered_spectrum(CatMatrix(-2, 3, 1, -2), N)
        witness = spectral.supnorm_summary(report).witness
        assert [row["abs_u_i"] for row in json.loads(out)] == np.abs(witness).tolist()

    def test_normalization_failure_exit_code(self, capsys, drifted_witness):
        code, out, err = run(capsys, "profile", "--n", "71")
        assert code == 4
        assert out == ""
        assert re.fullmatch(
            r"catlab: certification failed: eigenfunction profile at N=71:"
            r" witness normalization drift 0\.020100\d* exceeds 1e-10\n",
            err,
        )


class TestDispersiveCommand:
    def test_csv_and_bound(self, capsys):
        code, out, _ = run(capsys, "dispersive", "--n", "15", "--jmax", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "N,j,norm_1_inf,bound"
        assert len(lines) == 5
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[2]) <= float(cells[3]) + 1e-8

    def test_svg(self, capsys, tmp_path):
        path = tmp_path / "d.svg"
        code, _, _ = run(
            capsys, "dispersive", "--n", "15", "--jmax", "4", "--svg", str(path)
        )
        assert code == 0
        assert path.read_text().startswith("<svg ")

    def test_failed_records_reported_before_failed_svg(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments, "DRIFT_TOL", -1.0)
        path = tmp_path / "d.svg"
        code, _, err = run(
            capsys, "dispersive", "--n", "15", "--jmax", "3", "--svg", str(path)
        )
        assert code == 1
        first, *rest = err.splitlines()
        assert re.fullmatch(
            r"warning: 1 record\(s\) failed \(first: N=15: dispersive power M\^1 at N=15:"
            r" column norm drift 0\.0 exceeds -1\.0\)",
            first,
        )
        assert rest == ["catlab: no plottable dispersive records"]
        assert not path.exists()


class TestVerifyCommand:
    def test_from_records_file(self, capsys, tmp_path):
        csv_path = tmp_path / "scan.csv"
        run(capsys, "scan", "--n-min", "3", "--n-max", "31", "--out", str(csv_path))
        code, out, _ = run(
            capsys, "verify", "--records", str(csv_path), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["eps"] == 0.1
        assert payload["lower_testable"] is True
        assert {c["N"] for c in payload["lower"]} == {5, 19}
        assert all(c["ok"] for c in payload["lower"])

    def test_records_filtered_by_n_range(self, capsys, tmp_path):
        csv_path = tmp_path / "scan.csv"
        run(capsys, "scan", "--n-min", "3", "--n-max", "31", "--out", str(csv_path))
        code, out, _ = run(
            capsys, "verify", "--records", str(csv_path), "--n-min", "15",
            "--n-max", "21", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert [c["N"] for c in payload["lower"]] == [19]
        assert [c["N"] for c in payload["upper"]] == [15, 17, 19, 21]

    # explicit ids keep each case's name stable as the list of flags changes
    @pytest.mark.parametrize(
        "flag",
        [
            pytest.param(["--jobs", "2"], id="flag0"),
            # given on the command line, even at its default
            pytest.param(["--jobs", "1"], id="default_jobs"),
        ],
    )
    def test_records_reject_rescan_only_flags(self, capsys, tmp_path, flag):
        # the flag is rejected before the records file is opened
        missing = tmp_path / "scan.csv"
        code, out, err = run(capsys, "verify", "--records", str(missing), *flag)
        assert (code, out) == (2, "")
        assert err == (
            "catlab: usage error: --records replaces the rescan that --jobs would steer\n"
        )

    def test_records_ignore_rescan_only_config_keys(self, capsys, tmp_path):
        csv_path = tmp_path / "scan.csv"
        run(capsys, "scan", "--n-min", "3", "--n-max", "7", "--out", str(csv_path))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"jobs": 2, "n_min": 5}))
        code, out, _ = run(
            capsys, "verify", "--records", str(csv_path), "--config", str(config),
            "--format", "json",
        )
        assert code == 0
        assert [c["N"] for c in json.loads(out)["upper"]] == [3, 5, 7]

    def test_recompute_with_epsilon(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--n-min",
            "5",
            "--n-max",
            "9",
            "--epsilon",
            "0.5",
        )
        assert code == 0
        assert out.splitlines()[0] == "bound,N,value,threshold,ok"

    def test_failed_records_reported_before_failed_rescan_check(self, capsys, monkeypatch):
        monkeypatch.setattr(quantize, "UNITARITY_TOL", 1e-30)
        code, out, err = run(capsys, "verify", "--n-min", "3", "--n-max", "7")
        assert (code, out) == (1, "")
        first, *rest = err.splitlines()
        assert first.startswith(
            "warning: 3 record(s) failed (first: N=3: propagator build at N=3:"
        )
        assert rest == ["catlab: no usable records to verify"]

    def test_map_outside_short_period_hypotheses(self, capsys):
        code, out, _ = run(
            capsys, "verify", *INELIGIBLE, "--n-min", "3", "--n-max", "11",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["lower_testable"] is False
        assert payload["lower"] == []
        assert [c["N"] for c in payload["upper"]] == [3, 5, 7, 9, 11]


class TestConfigStack:
    def test_flag_overrides_config_overrides_default(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"count": 2, "format": "json"}))
        # config over default
        code, out, _ = run(capsys, "sequence", "--config", str(config))
        assert code == 0
        assert len(json.loads(out)) == 2
        # flag over config
        code, out, _ = run(
            capsys, "sequence", "--config", str(config), "--count", "3"
        )
        assert len(json.loads(out)) == 3
        # untouched keys fall back to defaults
        code, out, _ = run(capsys, "sequence")
        assert out.splitlines()[0] == "k,N_k,t_k"

    def test_unknown_config_key(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n_mxa": 5}))
        code, _, err = run(capsys, "scan", "--config", str(config))
        assert code == 2
        assert "n_mxa" in err

    # explicit ids keep the names the cases had when the third field was the key
    @pytest.mark.parametrize(
        "command, data, message",
        [
            pytest.param(
                ["scan", "--n-max", "7"], {"jobs": "2"}, 'jobs must be int, got "2"',
                id="command0-data0-jobs",
            ),
            pytest.param(
                ["period", "--n", "5"], {"a": 2.0}, "a must be int, got 2.0",
                id="command1-data1-a",
            ),
            pytest.param(
                ["scan", "--n-max", "7"], {"jobs": True}, "jobs must be int, got true",
                id="command2-data2-jobs",
            ),
            pytest.param(
                ["classify"], {"out": 5}, "out must be str | None, got 5",
                id="command4-data4-out",
            ),
        ],
    )
    def test_config_value_of_wrong_type(self, capsys, tmp_path, command, data, message):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(data))
        code, out, err = run(capsys, *command, "--config", str(config))
        assert (code, out) == (2, "")
        assert err == "catlab: usage error: config key %s\n" % message

    def test_config_value_checked_where_a_flag_overrides_it(self, capsys, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"n": "x"}))
        code, out, err = run(capsys, "period", "--n", "5", "--config", str(config))
        assert (code, out) == (2, "")
        assert err == 'catlab: usage error: config key n must be int | None, got "x"\n'

    def test_config_null_passes_type_check(self, capsys, tmp_path):
        # n is int | None, so null is the default: period then asks for --n
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n": None}))
        code, out, err = run(capsys, "period", "--config", str(config))
        assert (code, out) == (2, "")
        assert err == "catlab: usage error: this command requires --n\n"

    def test_config_int_epsilon_fails_only_range_check(self, capsys, tmp_path):
        # a float key takes an int; 1 is then out of range
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"epsilon": 1}))
        code, out, err = run(capsys, "verify", "--n-max", "5", "--config", str(config))
        assert (code, out) == (2, "")
        assert err == "catlab: usage error: epsilon must lie in (0, 1)\n"

    def test_malformed_config(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text("{nope")
        code, _, err = run(capsys, "classify", "--config", str(config))
        assert code == 2

    def test_missing_config(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "classify", "--config", str(tmp_path / "absent.json")
        )
        assert code == 2

    def test_bad_tolerance(self, capsys, tmp_path):
        # the certification bounds are constants, and N is always odd:
        # neither has a config key
        config = tmp_path / "cfg.json"
        for key, value in (("tol_unitarity", 1e-6), ("allow_even_n", True)):
            config.write_text(json.dumps({key: value}))
            code, out, err = run(capsys, "scan", "--n-max", "7", "--config", str(config))
            assert (code, out) == (2, "")
            assert err == "catlab: usage error: unknown config keys: %s\n" % key

    def test_bad_epsilon(self, capsys):
        code, _, err = run(capsys, "verify", "--n-min", "5", "--n-max", "5", "--epsilon", "2")
        assert code == 2


class TestIOErrors:
    def test_unwritable_output(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "out.csv"
        code, _, err = run(capsys, "sequence", "--out", str(target))
        assert code == 3
        assert "i/o" in err

    def test_closed_stdout_ends_quietly(self, cli_module_args):
        # N=101 writes ~400 kB, more than a pipe buffers, so the write
        # itself meets the closed pipe
        command = cli_module_args("propagator", "--n", "101")
        with subprocess.Popen(
            **command, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        ) as process:
            head = process.stdout.read(10)
            process.stdout.close()
            _, err = process.communicate(timeout=300)
        assert len(head) == 10
        assert (process.returncode, err) == (0, b"")


# Runs each argv list of sys.argv[1] through main in one interpreter and
# prints which of the lazily imported modules are loaded once the package
# is imported, then, per call, its exit code and which are loaded by then.
_IMPORT_PROBE = """
import json, sys
import catlab, catlab.arith, catlab.cli
from catlab.cli import main
lazy = ("numpy", "scipy", "scipy.linalg", "concurrent.futures.process")
print(json.dumps(["import", None, [m for m in lazy if m in sys.modules]]))
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    print(json.dumps([argv[0], code, [m for m in lazy if m in sys.modules]]))
"""


class TestImportBoundary:
    def test_only_eigensolving_commands_load_scipy(self, capsys, tmp_path, cli_module_args):
        # importing numpy costs about 0.1 s per process and scipy.linalg
        # about 0.25 s; the integer commands load neither, commands that
        # take no Schur form do not load SciPy nor start a worker pool, and
        # those that do load SciPy's LAPACK extension but not scipy.linalg
        records = tmp_path / "scan.csv"
        assert run(capsys, "scan", "--n-min", "3", "--n-max", "21", "--out", str(records))[0] == 0
        out = str(tmp_path / "out")
        calls = [
            ["classify", "--out", out],
            ["sequence", "--count", "2", "--out", out],
            ["period", "--n", "9", "--out", out],
            ["dispersive", "--n", "9", "--jmax", "3", "--out", out],
            ["propagator", "--n", "9", "--format", "binary", "--out", out],
            ["verify", "--records", str(records), "--out", out],
            ["spectrum", "--n", "9", "--out", out],
            ["profile", "--n", "9", "--out", out],
            ["scan", "--n-min", "3", "--n-max", "9", "--jobs", "1", "--out", out],
        ]
        command = cli_module_args()
        command["args"] = [sys.executable, "-c", _IMPORT_PROBE, json.dumps(calls)]
        done = subprocess.run(**command, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        loaded = [json.loads(line) for line in done.stdout.splitlines()]
        assert loaded == (
            [["import", None, []]]
            + [[argv[0], 0, []] for argv in calls[:3]]
            + [[argv[0], 0, ["numpy"]] for argv in calls[3:6]]
            + [[argv[0], 0, ["numpy", "scipy"]] for argv in calls[6:]]
        )


class TestFlagsPerCommand:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["spectrum", "--n", "5", "--svg", "{tmp}/x.svg"], "--svg"),
            (["dispersive", "--n", "5", "--jmax", "2", "--tol-cluster", "5"], "--tol-cluster"),
            (["dispersive", "--n", "5", "--jmax", "2", "--jobs", "4"], "--jobs"),
            (["dispersive", "--n", "5", "--jmax", "2", "--records", "{tmp}/x.csv"], "--records"),
            # the certification bounds are constants, so no command takes these
            (["propagator", "--n", "5", "--tol-unitarity", "1e-6"], "--tol-unitarity"),
            (["spectrum", "--n", "5", "--tol-unitarity", "1e-6"], "--tol-unitarity"),
            (["spectrum", "--n", "5", "--tol-cluster", "1e-6"], "--tol-cluster"),
            (["scan", "--n-max", "5", "--tol-unitarity", "1e-6"], "--tol-unitarity"),
            (["scan", "--n-max", "5", "--tol-cluster", "1e-6"], "--tol-cluster"),
            (["profile", "--n", "5", "--tol-unitarity", "1e-6"], "--tol-unitarity"),
            (["profile", "--n", "5", "--tol-cluster", "1e-6"], "--tol-cluster"),
            (["dispersive", "--n", "5", "--jmax", "2", "--tol-unitarity", "1e-6"], "--tol-unitarity"),
            (["verify", "--n-max", "5", "--tol-unitarity", "1e-6"], "--tol-unitarity"),
            (["verify", "--n-max", "5", "--tol-cluster", "1e-6"], "--tol-cluster"),
        ],
    )
    def test_flag_the_command_ignores_is_usage_error(self, capsys, tmp_path, argv, flag):
        with pytest.raises(SystemExit) as err:
            main([arg.format(tmp=tmp_path) for arg in argv])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith("usage: catlab %s " % argv[0])
        assert "catlab %s: error: unrecognized arguments: %s" % (argv[0], flag) in stderr
        assert list(tmp_path.iterdir()) == []


def _csv_rows(out):
    return [line.split(",") for line in out.splitlines()[1:]]


class TestTableFormat:
    """CSV cells are _cell of the values in the same command's JSON."""

    def test_spectrum(self, capsys):
        _, out, _ = run(capsys, "spectrum", "--n", "5", "--format", "json")
        payload = json.loads(out)
        _, out, _ = run(capsys, "spectrum", "--n", "5")
        rows = _csv_rows(out)
        assert len(rows) == payload["N"]
        for i, (index, re, im, phase, cid, _) in enumerate(rows):
            cluster = payload["clusters"][int(cid)]
            assert index == _cell(i) and i in cluster["indices"]
            assert [re, im] == [_cell(v) for v in payload["eigenvalues"][i]]
            assert phase == _cell(cluster["phase"])
        worst = max((row[5] for row in rows), key=float)
        assert worst == _cell(payload["residual_max"])

    @pytest.mark.parametrize(
        "argv, fields",
        [
            (["scan", "--n-min", "1", "--n-max", "3"], experiments.SCAN_FIELDS),
            (["dispersive", "--n", "5", "--jmax", "1080"], experiments.DISPERSIVE_FIELDS),
        ],
    )
    def test_non_finite_floats(self, capsys, argv, fields):
        # RFC 8259 has no Infinity or NaN token: JSON holds the CSV cell
        def reject(token):
            raise AssertionError("%s is not a JSON token" % token)

        _, out, _ = run(capsys, *argv, "--format", "json")
        payload = json.loads(out, parse_constant=reject)
        _, out, _ = run(capsys, *argv)
        assert _csv_rows(out) == [[_cell(row[f]) for f in fields] for row in payload]
        assert "inf" in {row[f] for row in payload for f in fields}

    def test_verify(self, capsys):
        argv = ["verify", "--n-min", "3", "--n-max", "31"]
        _, out, _ = run(capsys, *argv, "--format", "json")
        payload = json.loads(out)
        _, out, _ = run(capsys, *argv)
        expected = [
            [bound] + [_cell(v) for v in check.values()]
            for bound in ("lower", "upper")
            for check in payload[bound]
        ]
        assert _csv_rows(out) == expected
        assert len(payload["lower"]) == 2
        assert list(payload) == [
            "eps",
            "lower_testable",
            "lower_onset",
            "upper_onset",
            "upper_first_half_pass",
            "upper_second_half_pass",
            "lower",
            "upper",
        ]


@pytest.mark.parametrize(
    "argv",
    [
        ["classify"],
        ["propagator", "--n", "5"],
        ["spectrum", "--n", "5"],
        ["scan", "--n-min", "3", "--n-max", "7"],
        ["dispersive", "--n", "5", "--jmax", "3"],
        ["period", "--n", "9"],
        ["verify", "--n-min", "3", "--n-max", "15"],
    ],
)
def test_json_views_built_only_under_json_format(capsys, monkeypatch, argv):
    before = run(capsys, *argv)

    def refuse(*args):
        raise RuntimeError("JSON view built")

    for owner in (
        arith.AdmissibilityReport, experiments.ScanRecord, experiments.DispersiveRecord,
        quantize.Propagator,
    ):
        monkeypatch.setattr(owner, "to_dict", refuse)
    monkeypatch.setattr(spectral, "report_to_dict", refuse)
    monkeypatch.setattr(cli, "asdict", refuse)
    assert run(capsys, *argv) == before
    with pytest.raises(RuntimeError, match="JSON view built"):
        main([*argv, "--format", "json"])


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "name, argv",
    [
        ("classify", ["classify"]),
        ("sequence", ["sequence", "--count", "5"]),
        ("period-989", ["period", "--n", "989"]),
        ("period-8", ["period", "--n", "8"]),
        ("verify-3-61", ["verify", "--n-min", "3", "--n-max", "61"]),
    ],
)
def test_output_bytes(capsys, name, argv, fmt):
    # stdout byte for byte: key order, indentation and cell format
    expected = (GOLDEN / ("%s.%s" % (name, fmt))).read_text(encoding="utf-8")
    assert run(capsys, *argv, "--format", fmt) == (0, expected, "")


class TestParserReuse:
    """main builds the argparse tree once per process and reuses it."""

    def test_later_calls_construct_no_parser(self, capsys, monkeypatch):
        assert run(capsys, "classify")[0] == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert run(capsys, "sequence", "--count", "2")[0] == 0
        assert run(capsys, "period", "--n", "9")[0] == 0
        assert built == []
        assert cli.build_parser() is cli.build_parser()

    def test_rejections_leave_later_outputs_as_a_fresh_process_writes_them(
        self, capsys, tmp_path, monkeypatch, run_cli_module
    ):
        # usage lines wrap at the terminal width, which a process with
        # stderr on a pipe reads from COLUMNS
        monkeypatch.setenv("COLUMNS", "80")
        bogus, binary = ["dispersive", "--bogus"], ["scan", "--format", "binary"]
        with pytest.raises(SystemExit) as err:
            main(bogus)
        seen = [(err.value.code, capsys.readouterr().err)]
        seen.append((main(binary), capsys.readouterr().err))
        fresh = [run_cli_module(*argv) for argv in (bogus, binary)]
        assert seen == [(done.returncode, done.stderr) for done in fresh]
        assert [code for code, _ in seen] == [2, 2]
        assert "unrecognized arguments: --bogus" in seen[0][1]
        assert "usage error: format binary applies only to propagator" in seen[1][1]
        calls = [
            (["dispersive", "--n", "101", "--jmax", "10"], ("out",)),
            (["profile", "--n", "31"], ("out", "svg")),
            (["spectrum", "--n", "31", "--format", "json"], ("out",)),
            (["propagator", "--n", "31", "--format", "binary"], ("out",)),
        ]
        for argv, roles in calls:
            mine, theirs = (
                {role: tmp_path / ("%s-%s.%s" % (argv[0], here, role)) for role in roles}
                for here in ("in-process", "fresh")
            )
            assert run(capsys, *argv, *_output_flags(mine)) == (0, "", "")
            done = run_cli_module(*argv, *_output_flags(theirs))
            assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
            for role in roles:
                assert mine[role].read_bytes() == theirs[role].read_bytes() != b"", argv
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0
        usage = capsys.readouterr().out
        assert all(name in usage and text in usage for name, text, _, _ in cli.COMMANDS)


def _output_flags(paths):
    """--out/--svg flags for {role: path}."""
    return [arg for role, path in paths.items() for arg in ("--" + role, str(path))]
