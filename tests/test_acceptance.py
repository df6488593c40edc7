"""Acceptance suite: the exit criteria of the laboratory, one test per
criterion, each printing a pass/fail line and enforcing its tolerance and
runtime budget.

Heavier shared artifacts (propagators and eigensystems on the
short-period moduli) are built once per session.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from catlab import cli
from catlab.arith import (
    IDENTITY,
    CatMatrix,
    matrix_order_mod,
    p_sequence,
    period_modulus,
    quantum_period,
    validate_catmap,
)
from catlab.quantize import build_propagator
from catlab.spectral import (
    cluster_eigenvalues,
    eigendecompose,
    projector,
    report_to_dict,
    supnorm_summary,
)
from catlab.experiments import dispersive_scan
from conftest import egorov_defect

A = CatMatrix(2, 3, 1, 2)
LAM = validate_catmap(2, 3, 1, 2).lam
SHORT_PAIRS = [(5, 3), (19, 5), (71, 7), (265, 9), (989, 11)]


@contextmanager
def criterion(num, description, budget_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print("[criterion %d] FAIL: %s" % (num, description))
        raise
    elapsed = time.monotonic() - start
    print("[criterion %d] PASS: %s (%.1fs)" % (num, description, elapsed))
    assert elapsed < budget_seconds, (
        "criterion %d exceeded its %.0fs budget: %.1fs" % (num, budget_seconds, elapsed)
    )


@pytest.fixture(scope="module")
def short_period_props():
    return {N: build_propagator(A, N) for N, _ in SHORT_PAIRS}


def test_criterion_1_sequence_golden(capsys):
    with criterion(1, "short-period sequence golden values", 1.0):
        expected = [(5, 3), (19, 5), (71, 7), (265, 9), (989, 11), (3691, 13)]
        code = cli.main(["sequence", "--count", "6"])
        out = capsys.readouterr().out
        assert code == 0
        rows = [tuple(map(int, line.split(","))) for line in out.splitlines()[1:]]
        assert [(n, t) for _, n, t in rows] == expected

        # independent recurrence oracle for every pair
        seq = [0, 1]
        while len(seq) < 9:
            seq.append(4 * seq[-1] - seq[-2])
        oracle = [(seq[k] + seq[k + 1], 2 * k + 1) for k in range(1, 7)]
        assert oracle == expected

        # modular-order cross-check for the paper-scale moduli
        for modulus, period in expected:
            if modulus <= 989:
                assert matrix_order_mod(A, modulus) == period


def test_criterion_2_order_identities():
    with criterion(2, "modulus/order identities for k <= 12", 5.0):
        for k in range(1, 13):
            even_form = 2 * p_sequence(4, k)
            odd_form = p_sequence(4, k) + p_sequence(4, k + 1)
            assert period_modulus(A, 2 * k) == even_form
            assert period_modulus(A, 2 * k + 1) == odd_form
            assert matrix_order_mod(A, period_modulus(A, k)) == k

        # independent oracle: the largest modulus fixing A^k is the gcd
        # of the entries of A^k - I, via brute repeated multiplication
        power = IDENTITY
        for k in range(1, 13):
            power = power @ A
            gcd_value = math.gcd(
                math.gcd(power.a - 1, power.b), math.gcd(power.c, power.d - 1)
            )
            assert period_modulus(A, k) == gcd_value


def test_criterion_3_propagator_certification():
    with criterion(3, "propagator certification over odd N in [3, 101]", 30.0):
        for matrix in (A, CatMatrix(2, 1, 3, 2)):
            bound_b = abs(matrix.b)
            for N in range(3, 102, 2):
                prop = build_propagator(matrix, N)
                assert prop.unitarity_residual <= 1e-9 * math.sqrt(N)
                assert np.abs(prop.entries).max() <= math.sqrt(bound_b / N) + 1e-9
                assert egorov_defect(prop) <= 1e-8


def test_criterion_4_quantum_period_realization(short_period_props):
    with criterion(4, "scalar powers realized exactly at the quantum period", 300.0):
        for N, t_k in SHORT_PAIRS:
            entries = short_period_props[N].entries
            power = np.eye(N, dtype=np.complex128)
            for t in range(1, t_k + 1):
                power = power @ entries
                phi = np.angle(power[0, 0])
                residual = np.abs(power - np.exp(1j * phi) * np.eye(N)).max()
                if t < t_k:
                    assert residual > 1e-7, "premature scalar power at t=%d, N=%d" % (t, N)
                else:
                    assert residual <= 1e-7, "period power not scalar at N=%d" % N


def test_criterion_5_lower_bound_chain(short_period_props):
    with criterion(5, "sup-norm lower bound on the short-period moduli", 600.0):
        eps = 0.1
        for N, t_k in SHORT_PAIRS:
            report = cluster_eigenvalues(eigendecompose(short_period_props[N]), n=t_k)
            # short period forces few clusters, hence a fat eigenspace
            assert len(report.clusters) <= t_k
            assert max(c.dim for c in report.clusters) >= math.ceil(N / t_k)
            value = supnorm_summary(report).value
            assert value >= (2 * math.log(N, LAM) + 1) ** -0.5 - 1e-9
            assert value >= (1 - eps) * (2 * math.log(N, LAM)) ** -0.5

        # the witness profile at N=989 carries the predicted spike
        from catlab.experiments import eigenfunction_profile

        profile = eigenfunction_profile(A, 989)
        assert float(profile.max()) >= 0.29
        assert float(np.sum(profile**2)) == pytest.approx(1.0, abs=1e-10)


def test_criterion_6_upper_bound_surrogate(upper_surrogate_sweep):
    with criterion(6, "upper-bound surrogate over odd N in [101, 601]", 600.0):
        # the sweep itself runs once per session on 4 workers and is
        # budgeted here, where its full range is consumed
        assert upper_surrogate_sweep.workers == 4
        assert upper_surrogate_sweep.elapsed < 600.0
        points = [p for p in upper_surrogate_sweep.points if 101 <= p.N <= 601]
        assert len(points) == 251
        exceptions = [
            (p.N, p.max_supnorm, p.upper_env)
            for p in points
            if p.max_supnorm > p.upper_env
        ]
        fraction = 1 - len(exceptions) / len(points)
        if exceptions:
            print("envelope exceptions:", exceptions)
        assert fraction >= 0.95, "only %.1f%% below the envelope" % (100 * fraction)
        bad_pairs = [p.N for p in points if not p.pair_bound_ok]
        assert not bad_pairs, "eigenpair bound failed at N in %s" % bad_pairs


def test_criterion_7_dispersive_figure():
    with criterion(7, "dispersive power-norm bounds at N=855", 20.0):
        records = dispersive_scan(A, 855, 50)
        assert len(records) == 50
        for r in records:
            assert r.error is None
            assert r.norm_1_inf <= r.bound + 1e-8
        first = records[0]
        assert first.bound == pytest.approx(math.sqrt(3 / 855))
        assert math.sqrt(3 / 855) == pytest.approx(0.05923, abs=5e-6)
        assert first.norm_1_inf <= math.sqrt(3 / 855) + 1e-8


def test_criterion_8_small_dimension_oracles():
    with criterion(8, "projector sup norms match brute-force search, N <= 8", 60.0):
        rng = np.random.default_rng(2024)
        for N in (1, 3, 5, 7):
            record = quantum_period(A, N)
            prop = build_propagator(A, N)
            report = cluster_eigenvalues(eigendecompose(prop), n=record.n_N)
            values = [c["supnorm"] for c in report_to_dict(report)["clusters"]]
            for cid, (cluster, value) in enumerate(zip(report.clusters, values)):
                basis = projector(report, cid)

                # random-unit-vector search lower-bounds the sup
                z = rng.normal(size=(100_000, cluster.dim, 2)) @ np.array([1.0, 1.0j])
                z /= np.linalg.norm(z, axis=1, keepdims=True)
                sampled = float(np.abs(z @ basis.T).max())
                assert value >= sampled - 1e-9
                assert value - sampled < 2e-2

                # deterministic fine sweep for small clusters
                if cluster.dim == 1:
                    swept = float(np.abs(basis[:, 0]).max())
                    assert abs(value - swept) < 1e-6
                elif cluster.dim == 2:
                    swept = _two_dim_sweep(basis)
                    assert abs(value - swept) < 1e-6
                    assert swept <= value + 1e-12


def _two_dim_sweep(basis, n_t=2048, n_alpha=4096):
    """Brute grid over unit vectors cos(t)v1 + exp(i alpha) sin(t)v2."""
    t = np.linspace(0.0, np.pi / 2, n_t)
    alpha = np.linspace(0.0, 2 * np.pi, n_alpha, endpoint=False)
    phase = np.exp(1j * alpha)
    best = 0.0
    for start in range(0, n_t, 128):
        chunk = t[start : start + 128]
        u = (
            np.cos(chunk)[:, None, None] * basis[:, 0][None, None, :]
            + (np.sin(chunk)[:, None] * phase[None, :])[:, :, None]
            * basis[:, 1][None, None, :]
        )
        best = max(best, float(np.abs(u).max()))
    return best


def test_criterion_9_scan_determinism(tmp_path, capsys):
    with criterion(9, "byte-identical repeated scan output", 300.0):
        outputs = []
        for tag in ("one", "two"):
            csv_path = tmp_path / ("%s.csv" % tag)
            svg_path = tmp_path / ("%s.svg" % tag)
            code = cli.main(
                [
                    "scan",
                    "--n-min",
                    "3",
                    "--n-max",
                    "61",
                    "--out",
                    str(csv_path),
                    "--svg",
                    str(svg_path),
                ]
            )
            assert code == 0
            outputs.append((csv_path.read_bytes(), svg_path.read_bytes()))
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]
