"""Exact-arithmetic tests: admissibility, recurrences, orders, periods,
and the one certification check every stage goes through."""

import ast
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import catlab
from catlab import arith, experiments, quantize, spectral
from catlab.arith import (
    IDENTITY,
    CatMatrix,
    CertificationError,
    certify,
    matrix_order_mod,
    matrix_power,
    p_sequence,
    period_modulus,
    quantum_period,
    short_period_sequence,
    validate_catmap,
)

A = CatMatrix(2, 3, 1, 2)
LAMBDA = 2 + math.sqrt(3)


def brute_p(trace, t):
    """Independent recurrence oracle for the entry sequence."""
    seq = [0, 1]
    while len(seq) <= t:
        seq.append(trace * seq[-1] - seq[-2])
    return seq[t]


def brute_power(M, j):
    """Repeated-multiplication oracle, independent of binary exponentiation."""
    out = IDENTITY
    for _ in range(j):
        out = out @ M
    return out


class TestValidate:
    def test_reference_matrix(self):
        report = validate_catmap(2, 3, 1, 2)
        assert report.is_quantizable
        assert report.short_period_eligible
        assert report.lam == pytest.approx(LAMBDA, abs=1e-9)
        assert report.failure_reasons == ()

    def test_identity_rejected(self):
        report = validate_catmap(1, 0, 0, 1)
        assert not report.is_quantizable
        assert "|trace| <= 2" in report.failure_reasons
        assert report.lam is None

    def test_parity_violation(self):
        report = validate_catmap(2, 1, 1, 1)
        assert not report.is_quantizable
        assert "c*d odd" in report.failure_reasons

    def test_eligibility_needs_coprime_offdiagonal(self):
        report = validate_catmap(3, 2, 4, 3)
        assert report.is_quantizable
        assert not report.short_period_eligible
        assert "gcd(b, c) != 1" in report.eligibility_failures

    def test_negative_trace_quantizable_without_lambda(self):
        report = validate_catmap(-2, -3, -1, -2)
        assert report.is_quantizable
        assert report.lam is None
        assert not report.short_period_eligible

    # det 1 is rare among random quadruples: the examples make sure both
    # sides of b = 0 are drawn, the maps of the paper and det 1, trace +-2
    @given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
    @example(2, 3, 1, 2)
    @example(2, -3, -1, 2)
    @example(-2, -3, -1, -2)
    @example(8, 3, -11, -4)
    @example(1, 0, 4, 1)
    @example(-1, 0, 6, -1)
    def test_eligible_implies_quantizable(self, a, b, c, d):
        report = validate_catmap(a, b, c, d)
        assert not report.short_period_eligible or report.is_quantizable
        assert report.is_quantizable == (not report.failure_reasons)
        assert (report.lam is not None) == (report.trace > 2)
        if report.is_quantizable:
            # the kernel divides by b_j, and no caller checks it for zero
            assert b != 0
            A = CatMatrix(a, b, c, d)
            assert all(matrix_power(A, j).b != 0 for j in range(1, 41))


class TestPSequence:
    def test_base_cases(self):
        assert p_sequence(4, 0) == 0
        assert p_sequence(4, 1) == 1
        assert p_sequence(4, 2) == 4

    def test_value_at_six(self):
        # frozen from the recurrence oracle: 0,1,4,15,56,209,780
        assert brute_p(4, 6) == 780
        assert p_sequence(4, 6) == 780

    @pytest.mark.parametrize("t", range(0, 21))
    def test_closed_form(self, t):
        expected = (LAMBDA**t - LAMBDA**-t) / (LAMBDA - 1 / LAMBDA)
        value = p_sequence(4, t)
        assert value == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_rejects_low_trace(self):
        with pytest.raises(ValueError):
            p_sequence(2, 3)
        with pytest.raises(ValueError):
            p_sequence(4, -1)

    @pytest.mark.parametrize("t", range(0, 61))
    def test_matrix_identity(self, t):
        # A^t == p_t*A - p_{t-1}*I, exact in big integers (p_{-1} = -1)
        p_t = p_sequence(4, t)
        p_prev = -1 if t == 0 else p_sequence(4, t - 1)
        power = matrix_power(A, t)
        assert power.a == p_t * A.a - p_prev
        assert power.b == p_t * A.b
        assert power.c == p_t * A.c
        assert power.d == p_t * A.d - p_prev

    @given(st.integers(4, 40).filter(lambda x: x % 2 == 0), st.integers(1, 40))
    @settings(max_examples=60)
    def test_recurrence_for_companion_matrices(self, trace, t):
        companion = CatMatrix(trace, -1, 1, 0)
        power = matrix_power(companion, t)
        p_t = p_sequence(trace, t)
        p_prev = p_sequence(trace, t - 1)
        assert power.a == p_t * trace - p_prev
        assert power.b == -p_t
        assert power.c == p_t
        assert power.d == -p_prev


class TestMatrixPower:
    def test_zeroth_power(self):
        assert matrix_power(A, 0) == IDENTITY

    def test_square(self):
        assert matrix_power(A, 2) == CatMatrix(7, 12, 4, 7)

    def test_against_brute_force(self):
        for j in range(0, 25):
            assert matrix_power(A, j) == brute_power(A, j)

    def test_b_entry_tracks_p_sequence(self):
        assert matrix_power(A, 6).b == 780 * 3 == 2340

    @given(st.integers(0, 20), st.integers(0, 20))
    @settings(max_examples=40)
    def test_power_additivity(self, i, j):
        assert matrix_power(A, i) @ matrix_power(A, j) == matrix_power(A, i + j)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            matrix_power(A, -1)


class TestOrderMod:
    def test_reference_orders(self):
        assert matrix_order_mod(A, 5) == 3
        assert matrix_order_mod(A, 1) == 1
        assert matrix_order_mod(A, 989) == 11

    def test_order_definition_minimal(self):
        for N in (5, 7, 12, 989):
            t = matrix_order_mod(A, N)
            assert matrix_power(A, t).mod(N) == IDENTITY.mod(N)
            for s in range(1, t):
                assert matrix_power(A, s).mod(N) != IDENTITY.mod(N)

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            matrix_order_mod(A, 0)

    def test_rejects_unquantizable(self):
        with pytest.raises(ValueError):
            matrix_order_mod(CatMatrix(1, 0, 0, 1), 5)


class TestPeriodModulus:
    def test_reference_values(self):
        assert period_modulus(A, 1) == 1
        assert period_modulus(A, 2) == 2
        assert period_modulus(A, 7) == 15 + 56 == 71
        assert period_modulus(A, 11) == 989

    @pytest.mark.parametrize("k", range(1, 15))
    def test_gcd_oracle(self, k):
        # N'_k is the largest N with A^k = I mod N, i.e. the gcd of the
        # entries of A^k - I; that brute-force value must match the
        # closed form.
        power = brute_power(A, k)
        gcd_oracle = math.gcd(
            math.gcd(power.a - 1, power.b), math.gcd(power.c, power.d - 1)
        )
        assert period_modulus(A, k) == gcd_oracle

    @pytest.mark.parametrize("k", range(1, 13))
    def test_order_recovers_index(self, k):
        assert matrix_order_mod(A, period_modulus(A, k)) == k

    def test_nondecreasing(self):
        values = [period_modulus(A, k) for k in range(1, 26)]
        assert all(x <= y for x, y in zip(values, values[1:]))

    @pytest.mark.parametrize("k", range(1, 13))
    def test_parity_split(self, k):
        assert period_modulus(A, 2 * k) % 2 == 0
        assert period_modulus(A, 2 * k + 1) % 2 == 1

    def test_rejects_ineligible(self):
        with pytest.raises(ValueError, match="gcd"):
            period_modulus(CatMatrix(3, 2, 4, 3), 3)

    def test_rejects_zero_index(self):
        with pytest.raises(ValueError):
            period_modulus(A, 0)

    def test_congruence_failure_raises(self, monkeypatch):
        monkeypatch.setattr(arith, "matrix_power", lambda A, k: CatMatrix(2, 0, 0, 1))
        # A^k - I is patched to [[1, 0], [0, 0]]; large indices are
        # certified as well as small ones
        for k, N in ((3, "5"), (513, r"\d+")):
            match = r"^period modulus at N=%s: largest residue of A\^%d - I mod N 1 exceeds 0$"
            with pytest.raises(CertificationError, match=match % (N, k)):
                period_modulus(A, k)


class TestQuantumPeriod:
    def test_odd_cases(self):
        record = quantum_period(A, 989)
        assert (record.T_N, record.n_N) == (11, 11)
        assert record.rule == "odd_N"
        record = quantum_period(A, 5)
        assert (record.T_N, record.n_N) == (3, 3)

    def test_even_with_even_offdiagonals(self):
        # A^2 - I = 2*[[3, 6], [2, 3]]: both off-diagonal entries even
        record = quantum_period(A, 2)
        assert (record.T_N, record.n_N) == (2, 2)
        assert record.rule == "even_N_both_even"
        power = matrix_power(A, 2)
        assert (power.b // 2, power.c // 2) == (6, 2)

    def test_even_doubled(self):
        # A^4 - I = 8*[[12, 21], [7, 12]]: odd off-diagonals double the period
        record = quantum_period(A, 8)
        assert (record.T_N, record.n_N) == (4, 8)
        assert record.rule == "even_N_doubled"

    def test_order_failure_raises(self, monkeypatch):
        # A^2 - I = [[6, 12], [4, 6]], which is not 0 mod 5
        monkeypatch.setattr(arith, "matrix_order_mod", lambda A, N: 2)
        # the residues of A^2 - I mod 5 are 1, 2, 4, 1
        match = r"^quantum period at N=5: largest residue of A\^T_N - I mod N 4 exceeds 0$"
        with pytest.raises(CertificationError, match=match):
            quantum_period(A, 5)

    @pytest.mark.parametrize("N", list(range(1, 40)) + [96, 233, 989])
    def test_period_is_order_or_double(self, N):
        record = quantum_period(A, N)
        assert record.n_N in (record.T_N, 2 * record.T_N)
        if N % 2 == 1:
            assert record.n_N == record.T_N


class TestShortPeriodSequence:
    def test_first_five_pairs(self):
        assert short_period_sequence(A, 5) == [
            (5, 3),
            (19, 5),
            (71, 7),
            (265, 9),
            (989, 11),
        ]

    def test_single_pair_and_log_bound(self):
        assert short_period_sequence(A, 1) == [(5, 3)]
        assert 2 * math.log(5, LAMBDA) + 1 == pytest.approx(3.444, abs=1e-3)
        assert 2 * math.log(5, LAMBDA) + 1 >= 3

    def test_all_moduli_odd(self):
        for modulus, period in short_period_sequence(A, 12):
            assert modulus % 2 == 1
            assert period % 2 == 1

    def test_growth_lower_bound(self):
        for k, (modulus, _) in enumerate(short_period_sequence(A, 12), start=1):
            assert modulus >= LAMBDA**k * (1 - 1e-9)

    def test_rejects_ineligible(self):
        with pytest.raises(ValueError):
            short_period_sequence(CatMatrix(3, 2, 4, 3), 3)

    def test_periods_match_quantum_period(self):
        for modulus, period in short_period_sequence(A, 6):
            assert quantum_period(A, modulus).n_N == period


class TestCertify:
    def test_value_at_bound_passes(self):
        certify("stage", 5, "check", 1e-9, 1e-9)
        certify("stage", 5, "check", 0, 0)

    def test_value_past_bound_names_everything(self):
        with pytest.raises(CertificationError) as info:
            certify("propagator build", 31, "unitarity residual", 2.5e-15, np.float64(1e-30))
        assert str(info.value) == (
            "propagator build at N=31: unitarity residual 2.5e-15 exceeds 1e-30"
        )

    def test_nan_fails(self):
        with pytest.raises(CertificationError, match=r"^s at N=3: c nan exceeds 1\.0$"):
            certify("s", 3, "c", math.nan, 1.0)

    def test_int_value_prints_as_int(self):
        with pytest.raises(CertificationError, match=r"^s at N=5: c 4 exceeds 0$"):
            certify("s", 5, "c", 4, 0)


def _raised(call):
    with pytest.raises(CertificationError) as info:
        call()
    return str(info.value)


def _scalar_report(value, N):
    """A diagonal report of value times the identity."""
    values = np.full(N, value, dtype=np.complex128)
    return spectral.SpectrumReport(
        N=N,
        eigenvalues=values,
        eigenvectors=np.eye(N, dtype=np.complex128),
        residuals=np.zeros(N),
    )


def _doubled_phases(patch):
    # entries twice their size: unitarity residual 3 passes a bound of
    # sqrt(15), the entry bound sqrt(3/15) does not
    real = quantize._phase_grid
    patch.setattr(quantize, "UNITARITY_TOL", 1.0)
    patch.setattr(quantize, "_phase_grid", lambda v, L: 2 * real(v, L))


def _reweighted_column_0(scale):
    """A patch: the apply's weights[0], the weights of slice rho = 0 and
    so its image of e_0, multiplied by scale(weights[0])."""

    def patch_apply(patch):
        real = quantize.matrix_free_propagator

        def reweighted(A, N):
            apply = real(A, N)
            weights = apply.weights.copy()
            weights[0] *= scale(weights[0])
            return dataclasses.replace(apply, weights=weights)

        patch.setattr(experiments, "matrix_free_propagator", reweighted)

    return patch_apply


def _uneven(column):
    # two nonzero entries scaled by sqrt(1.5) and sqrt(0.5): the norm
    # stays 1, the largest modulus grows by 22%
    scale = np.ones(len(column))
    scale[np.flatnonzero(np.abs(column) > 1e-8)[:2]] = np.sqrt([1.5, 0.5])
    return scale


# (stage, check, patch, call returning the failure message) for every
# certify call in the library, driven past its bound.
CHECKS = [
    (
        "quantum period", "largest residue of A^T_N - I mod N",
        lambda patch: patch.setattr(arith, "matrix_order_mod", lambda A, N: 2),
        lambda: _raised(lambda: quantum_period(A, 5)),
    ),
    (
        "period modulus", "largest residue of A^3 - I mod N",
        lambda patch: patch.setattr(arith, "matrix_power", lambda A, k: CatMatrix(2, 0, 0, 1)),
        lambda: _raised(lambda: period_modulus(A, 3)),
    ),
    (
        "short-period modulus", "(N + 1) mod 2",
        lambda patch: patch.setattr(arith, "period_modulus", lambda A, k: 4),
        lambda: _raised(lambda: short_period_sequence(A, 1)),
    ),
    (
        # t_1 = 3 exceeds 2*log_lambda(3) + 1 = 2.67
        "short-period modulus", "t_k - 2*log_lambda(N) - 1",
        lambda patch: patch.setattr(arith, "period_modulus", lambda A, k: 3),
        lambda: _raised(lambda: short_period_sequence(A, 1)),
    ),
    (
        "short-period modulus", "|n_N - t_k|",
        "off_by_one_period",
        lambda: _raised(lambda: short_period_sequence(A, 1)),
    ),
    (
        "propagator build", "unitarity residual",
        lambda patch: patch.setattr(quantize, "UNITARITY_TOL", 1e-30),
        lambda: _raised(lambda: experiments.clustered_spectrum(A, 31)),
    ),
    (
        "propagator build", "entry modulus",
        _doubled_phases,
        lambda: _raised(lambda: quantize.build_propagator(A, 15)),
    ),
    (
        "eigensolve", "eigenpair residual",
        lambda patch: patch.setattr(spectral, "RESIDUAL_TOL", -1.0),
        lambda: _raised(lambda: experiments.clustered_spectrum(A, 5)),
    ),
    (
        "eigensolve", "max |modulus - 1|",
        lambda patch: patch.setattr(spectral, "MODULUS_TOL", -1.0),
        lambda: _raised(lambda: experiments.clustered_spectrum(A, 5)),
    ),
    (
        # N=5 has quantum period 3, so M^2 is not scalar
        "clustering", "off-scalar bound of M^2",
        lambda patch: None,
        lambda: _raised(
            lambda: spectral.cluster_eigenvalues(
                spectral.eigendecompose(quantize.build_propagator(A, 5)), n=2
            )
        ),
    ),
    (
        "clustering", "||lam_0^1| - 1|",
        lambda patch: None,
        lambda: _raised(lambda: spectral.cluster_eigenvalues(_scalar_report(0.5, 3), n=1)),
    ),
    (
        "clustering", "largest snap distance",
        lambda patch: patch.setattr(spectral, "CLUSTER_TOL", 10),
        lambda: _raised(lambda: experiments.clustered_spectrum(A, 71)),
    ),
    (
        "eigenfunction profile", "witness normalization drift",
        "drifted_witness",
        lambda: _raised(lambda: experiments.eigenfunction_profile(A, 71)),
    ),
    (
        # an error row, not an exception: the scan moves on to the next N.
        # The drift of the first column is exactly 0.0 at N=15.
        "dispersive power M^1", "column norm drift",
        lambda patch: patch.setattr(experiments, "DRIFT_TOL", -1.0),
        lambda: experiments.dispersive_scan(A, 15, 3)[0].error,
    ),
    (
        # column 0 keeps its norm, not its flat moduli sqrt(3/15)
        "dispersive power M^1", "|norm - sqrt(gcd(b_j, N)/N)|",
        _reweighted_column_0(_uneven),
        lambda: experiments.dispersive_scan(A, 15, 3)[0].error,
    ),
    (
        # column 0 turned by the phase 1e-3: moduli kept, off by 4.5e-4
        "dispersive column", "closed-form column 0",
        _reweighted_column_0(lambda column: np.exp(1e-3j)),
        lambda: experiments.dispersive_scan(A, 15, 3)[0].error,
    ),
    (
        "dispersive column", "intertwining defect",
        "perturbed_propagator",
        lambda: experiments.dispersive_scan(A, 15, 3)[0].error,
    ),
]


@pytest.mark.parametrize(
    "stage, check, patch, fail",
    CHECKS,
    ids=[re.sub(r"\W+", "_", "%s %s" % case[:2]).strip("_") for case in CHECKS],
)
def test_every_check_names_stage_n_check_value_and_bound(
    request, monkeypatch, stage, check, patch, fail
):
    if isinstance(patch, str):
        request.getfixturevalue(patch)
    else:
        patch(monkeypatch)
    pattern = r"%s at N=\d+: %s \S+ exceeds \S+" % (re.escape(stage), re.escape(check))
    assert re.fullmatch(pattern, fail())


def test_every_certify_call_has_a_failure_case():
    calls = [
        node
        for path in Path(catlab.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "certify"
    ]
    assert len(calls) == len(CHECKS)
