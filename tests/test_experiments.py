"""Scan driver tests: sweeps, profiles, dispersive decay, bound checks."""

import io
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from catlab import experiments, quantize
from catlab.arith import (
    CatMatrix,
    CertificationError,
    matrix_power,
    quantum_period,
    short_period_moduli,
    validate_catmap,
    write_table,
)
from catlab.experiments import (
    DISPERSIVE_FIELDS,
    SCAN_FIELDS,
    ScanRecord,
    clustered_spectrum,
    dispersive_scan,
    eigenfunction_profile,
    process_map,
    read_scan_csv,
    scan_supnorms,
    verify_bounds,
    write_dispersive_csv,
    write_profile_csv,
    write_scan_csv,
)
from catlab.quantize import build_propagator
from catlab.spectral import (
    cluster_eigenvalues,
    eigendecompose,
    report_to_dict,
    supnorm_summary,
)
from conftest import dense_power_norms

A = CatMatrix(2, 3, 1, 2)
LAM = validate_catmap(2, 3, 1, 2).lam
# Maps of trace 4 and |b| = 3 in both orientations, and one with |b| = 45.
ORACLE_MAPS = [
    A,
    CatMatrix(2, -3, -1, 2),
    CatMatrix(8, 3, -11, -4),
    CatMatrix(-4, 3, -11, 8),
    CatMatrix(26, 45, 15, 26),
]


def _worker_probe(_item):
    """What a pool worker reports: its pid, its parent's pid, whether it
    held catlab.experiments before it imported this module, whether it
    holds scipy.linalg after a Schur form, its BLAS thread pin, and the
    bytes of the eigensystem of A at the tie N=15."""
    modules = list(sys.modules)  # in import order
    report = eigendecompose(build_propagator(A, 15))
    return (
        os.getpid(),
        os.getppid(),
        modules.index("catlab.experiments") < modules.index(__name__),
        "scipy.linalg" in sys.modules,
        os.environ.get("OPENBLAS_NUM_THREADS"),
        report.eigenvalues.tobytes() + report.eigenvectors.tobytes(),
    )


def _running(pid: int) -> bool:
    """Whether pid is a live process. An orphan that has exited but that
    its adopter has not reaped yet (a zombie, state Z) has stopped. The
    state is read from /proc; without it the check cannot be made."""
    if not Path("/proc/self/stat").exists():
        pytest.skip("needs /proc to tell a live process from a zombie")
    try:
        os.kill(pid, 0)
        stat = Path("/proc/%d/stat" % pid).read_text()
    except (ProcessLookupError, FileNotFoundError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _run_python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports catlab and this module."""
    tests = Path(__file__).resolve().parent
    src = Path(experiments.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(tests)])},
        capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def records_3_31():
    return scan_supnorms(A, 3, 31)


class TestClusteredSpectrum:
    @pytest.mark.parametrize("N", [71, 73])
    def test_matches_stage_composition(self, N):
        # 71 is a short-period modulus (n_N = 7); 73 has n_N = 36 >
        # 2*log_lambda(73) + 1. Both snap to the roots of a scalar M^n_N.
        record, report = clustered_spectrum(A, N)
        assert record == quantum_period(A, N)
        expected = cluster_eigenvalues(eigendecompose(build_propagator(A, N)), record.n_N)
        assert report.global_phase is not None
        assert report.global_phase == pytest.approx(expected.global_phase, abs=1e-12)
        assert [c.indices for c in report.clusters] == [
            c.indices for c in expected.clusters
        ]
        np.testing.assert_allclose(
            [c.phase for c in report.clusters],
            [c.phase for c in expected.clusters],
            atol=1e-12,
        )
        np.testing.assert_allclose(
            report.eigenvalues, expected.eigenvalues, atol=1e-12
        )

        summary = supnorm_summary(report)
        expected_value = supnorm_summary(expected).value
        assert summary.value == pytest.approx(expected_value, abs=1e-12)
        supnorms = [c["supnorm"] for c in report_to_dict(report)["clusters"]]
        assert len(supnorms) == len(report.clusters)
        assert max(supnorms) == supnorms[summary.cluster_id] == summary.value
        assert supnorms.index(summary.value) == summary.cluster_id


class TestShortPeriodSet:
    def test_reference_set(self):
        assert dict(short_period_moduli(A, 1000)) == {5: 3, 19: 5, 71: 7, 265: 9, 989: 11}

    def test_empty_below_first(self):
        assert dict(short_period_moduli(A, 4)) == {}

    def test_certifies_periods_as_the_sequence_does(self, off_by_one_period):
        with pytest.raises(
            CertificationError, match=r"^short-period modulus at N=5: \|n_N - t_k\| 1 exceeds 0$"
        ):
            dict(short_period_moduli(A, 201))

    def test_empty_outside_hypotheses(self):
        # quantizable, but gcd(b, c) = 15 fails the short-period
        # hypotheses: the scan runs and flags no row
        records = scan_supnorms(CatMatrix(26, 45, 15, 26), 3, 9)
        assert [(r.N, r.is_bdb) for r in records] == [(N, False) for N in (3, 5, 7, 9)]


class TestScan:
    def test_single_point(self):
        records = scan_supnorms(A, 5, 5)
        assert len(records) == 1
        record = records[0]
        assert record.N == 5
        assert record.n_N == 3
        assert record.is_bdb
        assert record.error is None
        assert record.max_supnorm >= math.sqrt(2 / 5) - 1e-12
        assert record.lower_env == pytest.approx((2 * math.log(5, LAM)) ** -0.5)
        assert record.upper_env == pytest.approx(math.log(5, LAM) ** -0.5)
        assert record.trivial_lb == pytest.approx(5**-0.5)

    def test_sweep_structure(self, records_3_31):
        records = records_3_31
        assert [r.N for r in records] == list(range(3, 32, 2))
        assert all(r.error is None for r in records)
        flagged = {r.N for r in records if r.is_bdb}
        assert flagged == {5, 19}
        for r in records:
            assert r.trivial_lb - 1e-12 <= r.max_supnorm <= 1.0 + 1e-12
            assert 0 <= r.witness_index < r.N
            assert 1 <= r.cluster_dim <= r.N
        envelopes = [(r.lower_env, r.upper_env) for r in records]
        assert all(x > y for (x, _), (y, _) in zip(envelopes, envelopes[1:]))
        assert all(x > y for (_, x), (_, y) in zip(envelopes, envelopes[1:]))

    def test_deterministic_and_job_independent(self, records_3_31):
        again = scan_supnorms(A, 3, 31)
        assert again == records_3_31
        threaded = scan_supnorms(A, 3, 31, jobs=3)
        assert threaded == records_3_31

    def test_short_period_lower_bound(self, records_3_31):
        for r in records_3_31:
            if r.is_bdb:
                assert r.max_supnorm >= (2 * math.log(r.N, LAM) + 1) ** -0.5 - 1e-9

    def test_certification_failure_error_row(self, monkeypatch):
        monkeypatch.setattr(quantize, "UNITARITY_TOL", 1e-30)
        records = scan_supnorms(A, 5, 5)
        assert len(records) == 1
        assert re.fullmatch(
            r"propagator build at N=5: unitarity residual \S+ exceeds 2\.23606797749979e-30",
            records[0].error,
        )
        assert records[0].max_supnorm is None
        assert records[0].N == 5

    def test_schur_failure_error_row(self, failing_zgees):
        records = scan_supnorms(A, 5, 7)
        assert [(r.N, r.error) for r in records] == [
            (N, "Schur form not found at N=%d: zgees info 1" % N) for N in (5, 7)
        ]
        assert all(r.max_supnorm is None for r in records)

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bug in a stage")

        monkeypatch.setattr(experiments, "build_propagator", broken)
        with pytest.raises(TypeError, match="bug in a stage"):
            scan_supnorms(A, 5, 7)

    def test_worker_certification_failure_error_row(self, strict_unitarity_in_workers):
        records = scan_supnorms(A, 5, 7, jobs=2)
        assert [r.N for r in records] == [5, 7]
        assert all("unitarity residual" in r.error for r in records)
        assert all(r.max_supnorm is None for r in records)

    def test_worker_programming_error_propagates(self, broken_stage_in_workers):
        with pytest.raises(TypeError, match="bug in a stage"):
            scan_supnorms(A, 5, 7, jobs=2)

    def test_jobs_leave_environment_unchanged(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        before = dict(os.environ)
        scan_supnorms(A, 3, 9, jobs=2)
        assert dict(os.environ) == before

    def test_workers_start_warm_and_pinned(self, monkeypatch):
        # the parent's own BLAS pin is 3; every pool forks its workers
        # from one server that already holds catlab and a pin of 1, and a
        # worker takes its Schur forms without loading scipy.linalg
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        first = process_map(_worker_probe, range(4), jobs=2)
        second = process_map(_worker_probe, range(4), jobs=2)
        assert all(pid != os.getpid() for pid, *_ in first + second)
        servers = {ppid for _, ppid, *_ in first + second}
        assert len(servers) == 1 and os.getpid() not in servers
        assert [probe[2:5] for probe in second] == [(True, False, "1")] * 4
        assert [probe[5] for probe in second] == [_worker_probe(None)[5]] * 4

    def test_no_worker_or_server_outlives_its_caller(self):
        done = _run_python(
            "from catlab.experiments import process_map\n"
            "from test_experiments import _worker_probe\n"
            "reports = process_map(_worker_probe, range(4), jobs=2)\n"
            "print(*sorted({pid for report in reports for pid in report[:2]}))\n"
        )
        assert done.returncode == 0, done.stderr
        pids = [int(pid) for pid in done.stdout.split()]
        assert len(pids) >= 2  # the server and at least one worker
        deadline = time.monotonic() + 5.0
        running = set(pids)
        while running and time.monotonic() < deadline:
            running = {pid for pid in running if _running(pid)}
            time.sleep(0.05)
        assert not running, "processes left running: %s" % sorted(running)

    def test_workers_of_an_unpinned_server_fail_loudly(self):
        # a forkserver that something else started before catlab's first
        # pool keeps its own BLAS thread count; the workers must refuse
        # to run rather than oversubscribe the cores
        done = _run_python(
            "import os, multiprocessing.forkserver\n"
            "os.environ['OPENBLAS_NUM_THREADS'] = '4'\n"
            "multiprocessing.forkserver.ensure_running()\n"
            "from catlab.experiments import process_map\n"
            "process_map(abs, range(4), jobs=2)\n"
        )
        assert done.returncode != 0
        assert "BrokenProcessPool" in done.stderr
        assert "started without catlab's BLAS pin of 1" in done.stderr

    def test_jobs_give_identical_csv(self, run_cli_module):
        # 65 is a point where clusters of different dimension tie in
        # sup norm, so the CSV pins which one the rounding picks
        outputs = []
        for jobs in ("1", "2"):
            done = run_cli_module(
                "scan", "--n-min", "3", "--n-max", "65", "--jobs", jobs,
                OPENBLAS_NUM_THREADS="1",
            )
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 1 + len(range(3, 66, 2))

    def test_walks_the_odd_n_in_range(self):
        assert [r.N for r in scan_supnorms(A, 4, 8)] == [5, 7]
        assert scan_supnorms(A, 4, 4) == []

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            scan_supnorms(A, 9, 3)
        with pytest.raises(ValueError):
            scan_supnorms(A, 0, 3)
        with pytest.raises(ValueError):
            scan_supnorms(A, 3, 9, jobs=0)
        with pytest.raises(ValueError):
            scan_supnorms(CatMatrix(1, 0, 0, 1), 3, 9)

    def test_upper_envelope_mostly_holds(self, upper_surrogate_sweep):
        # beyond N = 50 the sweep stays under (log_lambda N)^-1/2 for at
        # least 95% of moduli; the short-period spikes are the exceptions
        points = [p for p in upper_surrogate_sweep.points if p.N <= 599]
        below = [p for p in points if p.max_supnorm <= p.upper_env]
        assert len(below) / len(points) >= 0.95


class TestProfile:
    def test_witness_profile(self):
        profile = eigenfunction_profile(A, 19)
        assert profile.shape == (19,)
        assert float(np.sum(profile**2)) == pytest.approx(1.0, abs=1e-10)
        assert profile.max() >= 19**-0.5

    def test_matches_scan_maximum(self):
        profile = eigenfunction_profile(A, 5)
        record = scan_supnorms(A, 5, 5)[0]
        assert float(profile.max()) == pytest.approx(record.max_supnorm, abs=1e-10)

    def test_normalization_drift_is_certification_failure(self, drifted_witness):
        with pytest.raises(
            CertificationError,
            match=r"^eigenfunction profile at N=71: witness normalization drift"
            r" 0\.020100\d* exceeds 1e-10$",
        ):
            eigenfunction_profile(A, 71)


class TestDispersive:
    def test_scalar_power_at_period(self):
        records = dispersive_scan(A, 5, 3)
        assert [r.j for r in records] == [1, 2, 3]
        last = records[-1]
        # the third power is a unit scalar, so its largest entry is 1
        assert last.norm_1_inf == pytest.approx(1.0, abs=1e-9)
        assert all(r.error is None for r in records)

    def test_bounds_hold(self):
        for N in (15, 33):
            for r in dispersive_scan(A, N, 12):
                b_j = matrix_power(A, r.j).b
                assert r.bound == pytest.approx(math.sqrt(abs(b_j) / N))
                assert r.norm_1_inf <= r.bound + 1e-8

    def test_bounds_past_float_range_are_rounded_square_roots(self):
        # j = 541..1079 at N=5: |b_j|/N is past float range, sqrt(|b_j|/N)
        # is not until j = 1080; Fractions give the exact neighbourhood
        # of the nearest double
        for r in dispersive_scan(A, 5, 1080):
            q = Fraction(abs(matrix_power(A, r.j).b), 5)
            if q <= sys.float_info.max:
                assert r.bound == math.sqrt(float(q))
            elif math.isinf(r.bound):
                assert q > Fraction(sys.float_info.max) ** 2 and r.j == 1080
            else:
                below, above = (Fraction(math.nextafter(r.bound, t)) for t in (0, math.inf))
                x = Fraction(r.bound)
                assert ((x + below) / 2) ** 2 < q < ((x + above) / 2) ** 2

    def test_rejects_even_or_empty(self):
        # the build rejects even N before it allocates anything
        with pytest.raises(ValueError, match="^expected odd N, got 4$"):
            dispersive_scan(A, 4, 40)
        with pytest.raises(ValueError):
            dispersive_scan(A, 5, 0)

    def test_drift_past_bound_ends_n_with_error_row(self, monkeypatch):
        # the first column's drift is exactly 0.0 at N=15, so only a
        # negative bound fails it
        monkeypatch.setattr(experiments, "DRIFT_TOL", -1.0)
        records = dispersive_scan(A, 15, 3)
        assert [(r.N, r.j, r.norm_1_inf, r.bound) for r in records] == [(15, 1, None, None)]
        assert [(r.N, r.j, r.norm_1_inf, r.bound) for r in dispersive_scan(A, 17, 3)] == [
            (17, 1, None, None)
        ]
        assert re.fullmatch(
            r"dispersive power M\^1 at N=15: column norm drift 0\.0 exceeds -1\.0",
            records[0].error,
        )
        assert list(records[0].to_dict()) == [*DISPERSIVE_FIELDS, "error"]

    def test_intertwining_defect_ends_n_with_error_row(self, perturbed_propagator):
        records = dispersive_scan(A, 15, 3)
        assert [(r.N, r.j, r.norm_1_inf, r.bound) for r in records] == [(15, 1, None, None)]
        assert [(r.N, r.j, r.norm_1_inf, r.bound) for r in dispersive_scan(A, 17, 3)] == [
            (17, 1, None, None)
        ]
        assert re.fullmatch(
            r"dispersive column at N=15: intertwining defect 0\.001\d* exceeds 1e-07",
            records[0].error,
        )

    @pytest.mark.parametrize("matrix", ORACLE_MAPS)
    @pytest.mark.parametrize("N", [15, 33, 101])
    def test_matches_dense_power_oracle(self, matrix, N):
        records = dispersive_scan(matrix, N, 12)
        dense = dense_power_norms(matrix, N, 12)
        assert [(r.N, r.j, r.bound, r.error) for r in records] == [
            (r.N, r.j, r.bound, r.error) for r in dense
        ]
        for fast, oracle in zip(records, dense):
            assert fast.norm_1_inf == pytest.approx(oracle.norm_1_inf, rel=1e-12)

    @pytest.mark.parametrize(
        "matrix", [A, CatMatrix(4, 3, 5, 4), CatMatrix(26, 45, 15, 26)]
    )
    def test_norm_is_sqrt_gcd_over_n(self, matrix):
        # the largest entry of M^j has modulus sqrt(gcd(b_j, N)/N), with
        # gcd(0, N) = N: sharper than the bound sqrt(|b_j|/N)
        for N in (101, 243, 625, 855):
            records = dispersive_scan(matrix, N, 40)
            assert [(r.N, r.j) for r in records] == [(N, j) for j in range(1, 41)]
            for r in records:
                exact = math.sqrt(math.gcd(matrix_power(matrix, r.j).b, N) / N)
                assert r.norm_1_inf == pytest.approx(exact, rel=1e-12)


class TestVerifyBounds:
    def test_lower_bound_on_flagged_records(self, records_3_31):
        report = verify_bounds(records_3_31, eps=0.1)
        assert report.lower_testable
        assert {c.N for c in report.lower} == {5, 19}
        assert all(c.ok for c in report.lower)
        assert report.lower_onset == 5

    def test_upper_checks_cover_all_records(self, records_3_31):
        report = verify_bounds(records_3_31, eps=0.5)
        assert len(report.upper) == len(records_3_31)
        for check in report.upper:
            record = next(r for r in records_3_31 if r.N == check.N)
            assert check.threshold == pytest.approx(
                record.upper_env / math.sqrt(0.5)
            )
            assert check.ok == (check.value <= check.threshold)
        assert report.upper_first_half_pass is not None

    def test_not_testable_without_flagged_records(self):
        records = scan_supnorms(A, 7, 17)
        report = verify_bounds(records, eps=0.1)
        assert not report.lower_testable
        assert report.lower_onset is None

    def test_rejects_bad_eps(self, records_3_31):
        with pytest.raises(ValueError):
            verify_bounds(records_3_31, eps=0.0)
        with pytest.raises(ValueError):
            verify_bounds(records_3_31, eps=1.0)

    def test_onset_logic(self):
        def rec(N, value, bdb=False):
            return ScanRecord(
                N=N,
                n_N=1,
                max_supnorm=value,
                lower_env=0.5,
                upper_env=0.4,
                trivial_lb=0.1,
                is_bdb=bdb,
                witness_index=0,
                cluster_dim=1,
            )

        # upper threshold at eps=0.5: 0.4/sqrt(0.5) ~ 0.5657
        rows = [rec(3, 0.9), rec(5, 0.2), rec(7, 0.3), rec(9, 0.2)]
        report = verify_bounds(rows, eps=0.5)
        assert report.upper_onset == 5
        rows[-1] = rec(9, 0.99)
        report = verify_bounds(rows, eps=0.5)
        assert report.upper_onset is None


class TestSerialization:
    def test_scan_csv_header_and_rows(self, records_3_31):
        fh = io.StringIO()
        write_scan_csv(records_3_31, fh)
        lines = fh.getvalue().splitlines()
        assert lines[0] == ",".join(SCAN_FIELDS)
        assert lines[0] == (
            "N,n_N,max_supnorm,lower_env,upper_env,trivial_lb,"
            "is_bdb,witness_index,cluster_dim"
        )
        assert len(lines) == 1 + len(records_3_31)
        first = lines[1].split(",")
        assert first[0] == "3"
        assert first[6] in ("true", "false")

    def test_scan_csv_round_trip(self, records_3_31):
        fh = io.StringIO()
        write_scan_csv(records_3_31, fh)
        fh.seek(0)
        parsed = read_scan_csv(fh)
        assert parsed == list(records_3_31)

    def test_error_row_round_trip(self, monkeypatch):
        monkeypatch.setattr(quantize, "UNITARITY_TOL", 1e-30)
        records = scan_supnorms(A, 5, 5)
        fh = io.StringIO()
        write_scan_csv(records, fh)
        fh.seek(0)
        parsed = read_scan_csv(fh)
        assert parsed[0].max_supnorm is None
        assert parsed[0].error is not None

    def test_scan_json_fields(self, records_3_31):
        payload = [r.to_dict() for r in records_3_31]
        assert set(payload[0]) == set(SCAN_FIELDS)
        assert payload[0]["N"] == 3

    def test_table_cell_format(self):
        fh = io.StringIO()
        rows = [
            (None, True, np.float64(0.1), np.int64(7), "odd_N"),
            (1, False, 2.5, -3, ""),
        ]
        write_table(("a", "b", "c", "d", "e"), rows, fh)
        assert fh.getvalue() == "a,b,c,d,e\n,true,0.1,7,odd_N\n1,false,2.5,-3,\n"

    def test_read_rejects_is_bdb_other_than_true_or_false(self, records_3_31):
        fh = io.StringIO()
        write_scan_csv(records_3_31, fh)
        # N=3 on line 2 is not flagged; N=5 on line 3 is
        text = fh.getvalue().replace(",true,", ",True,")
        with pytest.raises(ValueError, match="line 3: is_bdb must be true or false"):
            read_scan_csv(io.StringIO(text))

    @pytest.mark.parametrize("column", ["max_supnorm", "cluster_dim"])
    def test_read_names_line_of_unparseable_cell(self, records_3_31, column):
        fh = io.StringIO()
        write_scan_csv(records_3_31, fh)
        lines = fh.getvalue().splitlines()
        cells = lines[2].split(",")
        cells[SCAN_FIELDS.index(column)] = "x"
        lines[2] = ",".join(cells)
        message = "malformed scan CSV row at line 3: %r" % lines[2]
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            read_scan_csv(io.StringIO("\n".join(lines) + "\n"))

    def test_dispersive_csv(self):
        records = dispersive_scan(A, 5, 2)
        fh = io.StringIO()
        write_dispersive_csv(records, fh)
        lines = fh.getvalue().splitlines()
        assert lines[0] == ",".join(DISPERSIVE_FIELDS) == "N,j,norm_1_inf,bound"
        assert len(lines) == 3

    def test_profile_csv(self):
        fh = io.StringIO()
        write_profile_csv(np.array([0.5, 0.25]), fh)
        assert fh.getvalue() == "i,abs_u_i\n0,0.5\n1,0.25\n"

    def test_rejects_bad_header(self):
        with pytest.raises(ValueError):
            read_scan_csv(io.StringIO("bogus\n1,2\n"))
