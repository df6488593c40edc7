"""Exact-arithmetic tests: admissibility, recurrences, orders, periods."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catlab import arith
from catlab.arith import (
    IDENTITY,
    CatMatrix,
    CertificationError,
    ParityRule,
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

    @given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
    def test_eligible_implies_quantizable(self, a, b, c, d):
        report = validate_catmap(a, b, c, d)
        assert not report.short_period_eligible or report.is_quantizable
        assert report.is_quantizable == (not report.failure_reasons)
        assert (report.lam is not None) == (report.trace > 2)


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
        match = r"period modulus N=5: A\^3 mod N is \(2, 0, 0, 1\), expected the identity"
        with pytest.raises(CertificationError, match=match):
            period_modulus(A, 3)


class TestQuantumPeriod:
    def test_odd_cases(self):
        record = quantum_period(A, 989)
        assert (record.T_N, record.n_N) == (11, 11)
        assert record.parity_rule_used is ParityRule.ODD_N
        record = quantum_period(A, 5)
        assert (record.T_N, record.n_N) == (3, 3)

    def test_even_with_even_offdiagonals(self):
        # A^2 - I = 2*[[3, 6], [2, 3]]: both off-diagonal entries even
        record = quantum_period(A, 2)
        assert (record.T_N, record.n_N) == (2, 2)
        assert record.parity_rule_used is ParityRule.EVEN_N_BOTH_EVEN
        power = matrix_power(A, 2)
        assert (power.b // 2, power.c // 2) == (6, 2)

    def test_even_doubled(self):
        # A^4 - I = 8*[[12, 21], [7, 12]]: odd off-diagonals double the period
        record = quantum_period(A, 8)
        assert (record.T_N, record.n_N) == (4, 8)
        assert record.parity_rule_used is ParityRule.EVEN_N_DOUBLED

    def test_order_failure_raises(self, monkeypatch):
        # A^2 - I = [[6, 12], [4, 6]], which is not 0 mod 5
        monkeypatch.setattr(arith, "matrix_order_mod", lambda A, N: 2)
        match = r"quantum period at N=5: A\^T_N - I has entry 1 mod N at T_N=2, expected 0"
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
