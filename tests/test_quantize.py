"""Propagator and translation construction tests.

The decisive construction oracle is the exact intertwining of lattice
translations: it certifies the kernel formula and the basis phase
convention together, so most tests here lean on unitarity plus the
intertwining defect rather than on matrix entries. A small set of golden
entries freezes the phase convention itself.
"""

import io
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from catlab import quantize
from catlab.arith import CatMatrix, CertificationError, _cell, matrix_power, validate_catmap
from catlab.quantize import (
    Propagator,
    build_propagator,
    matrix_free_propagator,
    write_matrix_csv,
    write_matrix_binary,
)
from conftest import egorov_defect, intertwining_defect, translation_matrix

A = CatMatrix(2, 3, 1, 2)
A2 = CatMatrix(2, 1, 3, 2)


def test_golden_translation_phases():
    # frozen from the delta-comb derivation: basis vector j shifts to
    # (j+p) mod N with phase exp(i*pi*(p*q + 2*q*j)/N)
    T = translation_matrix(1, 1, 3)
    assert T[1, 0] == pytest.approx(np.exp(1j * np.pi / 3), abs=1e-14)
    assert T[2, 1] == pytest.approx(-1.0, abs=1e-14)
    assert T[0, 2] == pytest.approx(np.exp(-1j * np.pi / 3), abs=1e-14)


def test_golden_propagator_entries():
    M = build_propagator(A, 3).entries
    w = np.exp(2j * np.pi / 3)
    assert M[0, 0] == pytest.approx(1.0, abs=1e-13)
    assert M[1, 2] == pytest.approx(w, abs=1e-13)
    assert M[2, 1] == pytest.approx(w, abs=1e-13)
    assert abs(M[0, 1]) < 1e-13 and abs(M[1, 1]) < 1e-13


class TestTranslations:
    def test_zero_is_identity(self):
        assert np.allclose(translation_matrix(0, 0, 7), np.eye(7))

    def test_full_lattice_shift_is_identity(self):
        for N in (3, 5, 8):
            assert np.allclose(translation_matrix(N, 0, N), np.eye(N))
            assert np.allclose(translation_matrix(0, N, N), np.eye(N))

    def test_diagonal_lattice_vector_sign(self):
        # translation by the integer vector (1, 1) acts as (-1)^N
        for N in (3, 4, 5, 8):
            expected = (-1.0) ** N * np.eye(N)
            assert np.allclose(translation_matrix(N, N, N), expected)

    @pytest.mark.parametrize("N", [1, 2, 3, 5, 8, 13])
    def test_unitary_permutation_structure(self, N):
        T = translation_matrix(2, -3, N)
        assert np.abs(T.conj().T @ T - np.eye(N)).max() < 1e-12 * math.sqrt(N)
        moduli = np.abs(T)
        assert ((moduli > 1e-12).sum(axis=0) == 1).all()
        assert ((moduli > 1e-12).sum(axis=1) == 1).all()
        assert moduli.max() == pytest.approx(1.0, abs=1e-12)

    def test_commutator(self):
        for N in (3, 5, 8):
            left = translation_matrix(1, 0, N) @ translation_matrix(0, 1, N)
            right = translation_matrix(0, 1, N) @ translation_matrix(1, 0, N)
            assert np.allclose(left, np.exp(-2j * np.pi / N) * right, atol=1e-13)

    @given(
        st.integers(-7, 7),
        st.integers(-7, 7),
        st.integers(-7, 7),
        st.integers(-7, 7),
        st.integers(1, 12),
    )
    @settings(max_examples=80)
    def test_group_law(self, p, q, pp, qq, N):
        # composition picks up exp(i*pi*(q*pp - p*qq)/N)
        lhs = translation_matrix(p, q, N) @ translation_matrix(pp, qq, N)
        phase = np.exp(1j * np.pi * (q * pp - p * qq) / N)
        rhs = phase * translation_matrix(p + pp, q + qq, N)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_adjoint_is_inverse_translation(self):
        T = translation_matrix(3, 2, 7)
        assert np.allclose(T.conj().T, translation_matrix(-3, -2, 7))


def exp_per_term_entries(M: CatMatrix, N: int) -> np.ndarray:
    """The kernel's r-sum with one complex exp per entry per r.

    The direct evaluation that build_propagator's root-of-unity table and
    class sums replace; kept as the oracle its entries must match bit for
    bit.
    """
    a, b, d = M.a, M.b, M.d
    absb = abs(b)
    sign = 1 if b > 0 else -1
    L = 2 * absb * N
    j = np.arange(N, dtype=np.int64)
    k = j[:, None]
    aL = a % L
    dL = d % L
    jline = (aL * j * j) % L
    kline = (dL * k * k) % L
    matrix = np.zeros((N, N), dtype=np.complex128)
    for r in range(absb):
        const = (a * N * N * r * r) % L
        rj = ((2 * a * N * r) % L) * j
        rk = ((2 * N * r) % L) * k
        numer = const + rj + jline + kline - rk - 2 * k * j
        matrix += np.exp((2j * np.pi / L) * np.mod(sign * numer, L))
    matrix /= np.sqrt(N * absb)
    return matrix


# Maps with |b| = 1 and 3 whose a and d lie far outside int64: the build
# must reduce them mod L before any array arithmetic.
HUGE_B1 = CatMatrix(2 * 10**30 + 6, 1, (2 * 10**30 + 6) * 10**20 - 1, 10**20)
HUGE_B3 = CatMatrix(10**30, -3, (1 - 10**30 * 4 * 10**20) // 3, 4 * 10**20)
# The |b| = 45 maps of the propagator export benchmark.
B45_MAPS = (
    CatMatrix(26, 45, 15, 26),
    CatMatrix(26, -45, -15, 26),
    CatMatrix(2, 45, 3, 68),
    CatMatrix(4, 45, 3, 34),
)


@st.composite
def quantizable_maps(draw) -> CatMatrix:
    """Quantizable maps with 0 < |b| <= 60, of either sign of b."""
    b = draw(st.integers(-60, 60).filter(bool))
    a = draw(st.sampled_from([a for a in range(-60, 61) if math.gcd(a, b) == 1]))
    d = pow(a, -1, abs(b)) + abs(b) * draw(st.integers(-2, 2))
    c = (a * d - 1) // b
    assume(validate_catmap(a, b, c, d).is_quantizable)
    return CatMatrix(a, b, c, d)


class TestBuildMatchesExpPerTerm:
    @pytest.mark.parametrize(
        "matrix,N",
        [
            (A2, 1),
            (A2, 7),
            (CatMatrix(2, -1, -3, 2), 9),
            (A, 1),
            (CatMatrix(2, -3, -1, 2), 5),
            *((A, N) for N in (15, 39, 65, 165, 195)),
            *((CatMatrix(2, -3, -1, 2), N) for N in (15, 39, 65, 165, 195)),
            (CatMatrix(26, 45, 15, 26), 1),
            (CatMatrix(26, 45, 15, 26), 31),
            (CatMatrix(26, -45, -15, 26), 33),
            (HUGE_B1, 9),
            (HUGE_B3, 25),
            # N below |b|, and N sharing the factors 3, 5 and 9 with |b|
            *((matrix, N) for matrix in B45_MAPS for N in (3, 43, 135, 225)),
        ],
    )
    def test_bit_identical(self, matrix, N):
        entries = build_propagator(matrix, N).entries
        expected = exp_per_term_entries(matrix, N)
        assert np.array_equal(entries.view(np.float64), expected.view(np.float64))

    @given(quantizable_maps(), st.integers(0, 30).map(lambda n: 2 * n + 1))
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_on_small_maps(self, matrix, N):
        # the class key rests on ad - bc = 1: both signs of b, |b| <= 60, odd N <= 61
        entries = build_propagator(matrix, N).entries
        expected = exp_per_term_entries(matrix, N)
        assert np.array_equal(entries.view(np.float64), expected.view(np.float64))


def test_build_peak_memory():
    # The result is the build's one N x N array. Beyond it the build holds
    # the class sums (L complex) and the fill's keys over blocks of
    # _KERNEL_ROWS rows, then the certificates' scratch over blocks of 128
    # rows (three block arrays): a second N x N array would not fit.
    matrix, N = B45_MAPS[0], 401
    L = 2 * abs(matrix.b) * N
    build_propagator(matrix, 9)
    tracemalloc.start()
    try:
        build_propagator(matrix, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    allowance = 16 * L + 16 * (3 * 128 + 4 * quantize._KERNEL_ROWS) * N
    assert peak <= 16 * N * N + allowance


class TestPropagator:
    @pytest.mark.parametrize("matrix", [A, A2])
    @pytest.mark.parametrize("N", [1, 3, 5, 7, 9, 15, 33])
    def test_certified_construction(self, matrix, N):
        prop = build_propagator(matrix, N)
        assert prop.unitarity_residual <= 1e-9 * math.sqrt(N)
        assert np.abs(prop.entries).max() <= math.sqrt(abs(matrix.b) / N) + 1e-9
        assert egorov_defect(prop) <= 1e-8

    def test_small_unitarity(self):
        M = build_propagator(A, 3).entries
        assert np.abs(M.conj().T @ M - np.eye(3)).max() < 1e-12

    def test_entry_bound_at_five(self):
        M = build_propagator(A, 5).entries
        assert np.abs(M).max() <= math.sqrt(3 / 5) + 1e-9
        assert math.sqrt(3 / 5) == pytest.approx(0.774597, abs=1e-6)

    @pytest.mark.parametrize("N,period", [(5, 3), (19, 5), (71, 7)])
    def test_short_period_scalar_power(self, N, period):
        prop = build_propagator(A, N)
        power = np.linalg.matrix_power(prop.entries, period)
        phase = power[0, 0] / abs(power[0, 0])
        assert abs(abs(power[0, 0]) - 1) < 1e-9
        assert np.abs(power - phase * np.eye(N)).max() < 1e-7

    @pytest.mark.parametrize("N", [2, 8])
    def test_even_dimension_rejected(self, N):
        with pytest.raises(ValueError, match="^expected odd N, got %d$" % N):
            build_propagator(A, N)

    def test_rejects_unquantizable(self):
        with pytest.raises(ValueError):
            build_propagator(CatMatrix(1, 0, 0, 1), 5)
        with pytest.raises(ValueError):
            build_propagator(CatMatrix(2, 1, 1, 1), 5)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            build_propagator(A, 0)

    def test_certification_trips_on_impossible_tolerance(self, monkeypatch):
        monkeypatch.setattr(quantize, "UNITARITY_TOL", 1e-18)
        with pytest.raises(CertificationError, match="unitarity"):
            build_propagator(A, 5)

    def test_defect_sensitive_to_perturbation(self):
        prop = build_propagator(A, 5)
        entries = prop.entries.copy()
        entries[2, 3] += 1e-3
        perturbed = Propagator(
            N=5, A=A, entries=entries, unitarity_residual=prop.unitarity_residual
        )
        assert egorov_defect(perturbed) > 1e-4
        assert intertwining_defect(perturbed) > 1e-4

    @pytest.mark.parametrize(
        "matrix",
        [
            A,
            CatMatrix(2, -3, -1, 2),
            CatMatrix(8, 3, -11, -4),
            CatMatrix(-4, 3, -11, 8),
            CatMatrix(26, 45, 15, 26),
            CatMatrix(26, -45, -15, 26),
            HUGE_B3,
        ],
    )
    @pytest.mark.parametrize("N", [1, 15, 33, 101])
    def test_intertwining_defect_matches_dense_oracle(self, matrix, N):
        # the entrywise and the spectral-norm defect both vanish to
        # rounding on an exact propagator
        prop = build_propagator(matrix, N)
        assert intertwining_defect(prop) == pytest.approx(egorov_defect(prop), abs=1e-14)

    def test_intertwining_defect_sees_one_phase_error(self):
        # every entry has modulus sqrt(gcd(3, 101)/101), so a phase error
        # of 1e-3 in one entry moves it by 1e-3 / sqrt(101)
        prop = build_propagator(A, 101)
        entries = prop.entries.copy()
        entries[7, 40] *= np.exp(1e-3j)
        perturbed = Propagator(
            N=101, A=A, entries=entries, unitarity_residual=prop.unitarity_residual
        )
        assert intertwining_defect(prop) < 1e-14
        assert intertwining_defect(perturbed) == pytest.approx(
            1e-3 / math.sqrt(101), rel=1e-6
        )

    def test_negative_b_matrix(self):
        # conjugate dynamics with b < 0: construction must still certify
        B = CatMatrix(2, -3, -1, 2)
        prop = build_propagator(B, 7)
        assert prop.unitarity_residual <= 1e-9 * math.sqrt(7)
        assert egorov_defect(prop) <= 1e-8

    def test_defect_at_figure_scale(self):
        prop = build_propagator(A, 989)
        assert egorov_defect(prop) <= 1e-8


# Both orientations of b, |b| from 1 to 45, and |b| > N at small N.
APPLY_MAPS = [
    A,
    CatMatrix(2, -3, -1, 2),
    CatMatrix(8, 3, -11, -4),
    CatMatrix(4, 3, 5, 4),
    CatMatrix(26, 45, 15, 26),
    CatMatrix(26, -45, -15, 26),
    CatMatrix(2, 45, 3, 68),
    A2,
    HUGE_B3,
]


class TestMatrixFreePropagator:
    @pytest.mark.parametrize("matrix", APPLY_MAPS)
    @pytest.mark.parametrize("N", [1, 3, 9, 15, 101, 243])
    def test_matches_dense_oracle(self, matrix, N):
        entries = build_propagator(matrix, N).entries
        apply = matrix_free_propagator(matrix, N)
        rng = np.random.default_rng(N)
        noise = rng.standard_normal((3, N)) + 1j * rng.standard_normal((3, N))
        for v in (*np.eye(2, N), *noise):
            expected = entries @ v
            assert np.abs(apply(v) - expected).max() <= 1e-13 * np.abs(expected).max()
        assert np.abs(apply.kernel_column_0() - entries[:, 0]).max() <= 1e-13
        assert apply.intertwining_defect() <= 1e-13

    def test_intertwining_defect_sees_one_phase_error(self):
        # a phase error in the chirp far from coordinate 0 leaves column 0
        # as it was, and one in the weights moves columns past 0 as well
        apply = matrix_free_propagator(A, 101)
        chirp = apply.chirp.copy()
        chirp[50] *= np.exp(1e-3j)
        weights = apply.weights.copy()
        weights[2, 60] *= np.exp(1e-3j)
        for perturbed in (replace(apply, chirp=chirp), replace(apply, weights=weights)):
            assert perturbed.intertwining_defect() > 1e-6
        e_0 = np.eye(1, 101)[0]
        assert np.array_equal(replace(apply, chirp=chirp)(e_0), apply(e_0))

    def test_shares_the_dense_build_domain(self):
        for construct in (build_propagator, matrix_free_propagator):
            with pytest.raises(ValueError, match="^expected odd N, got 4$"):
                construct(A, 4)
            with pytest.raises(ValueError, match="^dimension must be positive, got 0$"):
                construct(A, 0)
            with pytest.raises(ValueError, match="is not quantizable"):
                construct(CatMatrix(2, 1, 1, 1), 5)

    def test_rejects_phases_past_int64(self):
        # L = 2|b|N = 4e9: a product of two residues mod L would overflow
        huge_b = CatMatrix(1, 2 * 10**9, 2, 4 * 10**9 + 1)
        with pytest.raises(ValueError, match="^2\\|b\\|N = 4000000000 is past"):
            matrix_free_propagator(huge_b, 1)


class TestMatrixExport:
    def test_csv_layout(self):
        fh = io.StringIO()
        write_matrix_csv(np.array([[1 + 2j, 3j], [0.5, -1.0]]), fh)
        lines = fh.getvalue().splitlines()
        assert lines[0] == "1.0,2.0,0.0,3.0"
        assert lines[1] == "0.5,0.0,-1.0,0.0"

    def test_csv_matches_per_entry_cells(self):
        # the cells as two numpy scalars per entry made them
        matrix = build_propagator(A, 5).entries.copy()
        matrix[0, 1] = complex(-0.0, 5e-324)
        matrix[2, 3] = complex(2.5e-310, -0.0)
        matrix[4, 4] = complex(-np.inf, np.nan)
        for m in (matrix, matrix.T, matrix.real, matrix.astype(np.complex64)):
            fh = io.StringIO()
            write_matrix_csv(m, fh)
            expected = "".join(
                ",".join(_cell(float(part)) for v in row for part in (v.real, v.imag)) + "\n"
                for row in m
            )
            assert fh.getvalue() == expected

    def test_binary_round_trip(self):
        prop = build_propagator(A, 5)
        buf = io.BytesIO()
        write_matrix_binary(prop.entries, buf)
        raw = buf.getvalue()
        assert raw[:4] == b"CATM"
        assert int.from_bytes(raw[4:8], "little") == 5
        assert len(raw) == 16 + 16 * 25
        restored = np.frombuffer(raw, dtype="<c16", offset=16).reshape(5, 5)
        assert np.array_equal(restored, prop.entries)

    def test_binary_bytes_are_interleaved_float64(self):
        matrix = build_propagator(A, 5).entries.copy()
        matrix[0, 1] = complex(-0.0, np.inf)
        matrix[2, 3] = complex(np.nan, -0.0)
        for m in (matrix, matrix.T, matrix.real, matrix.astype(">c16")):
            buf = io.BytesIO()
            write_matrix_binary(m, buf)
            interleaved = np.empty(m.shape + (2,), dtype="<f8")
            interleaved[:, :, 0] = m.real
            interleaved[:, :, 1] = m.imag
            assert buf.getvalue()[16:] == interleaved.tobytes(order="C")
            restored = np.frombuffer(buf.getvalue(), dtype="<c16", offset=16).reshape(m.shape)
            expected = np.ascontiguousarray(m, dtype=np.complex128)
            assert restored.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
