"""Finite-dimensional quantization on the N-dimensional state space.

The state space for inverse Planck constant 2*pi*N is identified with C^N
through the delta-comb basis {e_j}. This module builds the propagator
of a hyperbolic torus map, one kernel r-sum per phase class, certified
through unitarity and the entry law sqrt(gcd(b, N)/N), and applies it
matrix-free, v -> M v in O(|b| N log N), with the certificates of that
path: its column 0 against the kernel's closed form, and the exact
intertwining of lattice translations (the decisive oracle: it pins down
both the kernel formula and the basis phase convention at once).

Phase bookkeeping is exact: every phase below is exp(2*pi*i * v/L) with
integers v, L reduced mod L before any float conversion, so large
quadratic terms never cancel catastrophically.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import IO

import numpy as np

from .arith import CatMatrix, _cell, certify, require_quantizable

__all__ = [
    "Propagator",
    "MatrixFreePropagator",
    "build_propagator",
    "matrix_free_propagator",
    "write_matrix_csv",
    "write_matrix_binary",
]

MATRIX_MAGIC = b"CATM"
# magic, u32 N, u32 reserved, 4 zero-pad bytes -> 16 bytes total
_HEADER = struct.Struct("<4sII4x")
# Certification bound on the propagator's unitarity residual, times sqrt(N).
UNITARITY_TOL = 1e-9


@dataclass(frozen=True)
class Propagator:
    """Unitary N x N propagator of a torus map on the delta-comb basis.

    entries[k, j] is the coefficient of basis vector k in the image of
    basis vector j. The stored global phase is whatever the kernel
    formula produces; every quantity derived downstream is phase
    invariant.
    """

    N: int
    A: CatMatrix
    entries: np.ndarray
    unitarity_residual: float

    def to_dict(self) -> dict:
        """JSON-ready view: N, the unitarity residual and the entries as
        rows of [re, im] pairs."""
        entries = np.stack((self.entries.real, self.entries.imag), -1).tolist()
        return {"N": self.N, "unitarity_residual": self.unitarity_residual, "entries": entries}


# Rows of the propagator per block of its fill from the class sums. A
# block's integer keys (16 N entries) stay in cache through the gather,
# and the fill allocates no N x N array besides the build's result.
_KERNEL_ROWS = 16


def _blocks(n: int, width: int = 128) -> list[slice]:
    """Blocks of range(n) starting at multiples of width, a one-index tail
    joined to the block before it. A product taken over them holds no
    N x N scratch and keeps the bits of the full product: GEMM's tiles
    line up, and no block is one column, which numpy hands to GEMV."""
    starts = [start for start in range(0, n, width) if start == 0 or n - start > 1]
    return [slice(start, stop) for start, stop in zip(starts, starts[1:] + [n])]


def _phase_grid(numerators: np.ndarray, L: int) -> np.ndarray:
    """exp(2*pi*i * numerators/L) with the integer numerators reduced mod L."""
    reduced = np.mod(numerators, L)
    return np.exp((2j * np.pi / L) * reduced)


# L^2 in int64: no product of two residues mod L = 2|b|N overflows.
_MAX_MODULUS = math.isqrt(2**63 - 1)


def _require_kernel_domain(A: CatMatrix, N: int) -> tuple[int, int, int]:
    """The domain of the kernel formula, the one gate of both
    constructors: N positive and odd, A quantizable, and L = 2|b|N at
    most _MAX_MODULUS (L < 3.04e9). Quantizable gives b != 0, which the
    kernel divides by: b = 0 and det A = 1 force |tr A| = 2, and powers
    keep b_j = p_j(tr A) b != 0, so no caller checks b. Returns the
    kernel's integers (|b|, sign of b, L)."""
    if N < 1:
        raise ValueError("dimension must be positive, got %d" % N)
    require_quantizable(A)
    if N % 2 == 0:
        raise ValueError("expected odd N, got %d" % N)
    absb = abs(A.b)
    L = 2 * absb * N
    if L > _MAX_MODULUS:
        raise ValueError("2|b|N = %d is past the kernel's int64 bound %d" % (L, _MAX_MODULUS))
    return absb, (1 if A.b > 0 else -1), L


def entry_modulus(b: int, N: int) -> float:
    """sqrt(gcd(b, N)/N), the modulus of every nonzero entry of the
    propagator at dimension N of a map with upper-right entry b: (N|b|)^(-1/2)
    times a unimodular factor times a quadratic Gauss sum of squared
    modulus 0 or |b| gcd(b, N) (Berndt, Evans and Williams, Gauss and
    Jacobi Sums, 1998)."""
    return math.sqrt(math.gcd(b, N) / N)


def build_propagator(A: CatMatrix, N: int) -> Propagator:
    """Propagator matrix of the map A at dimension N.

    entries[k, j] = (N|b|)^(-1/2) * sum over r < |b| of
    exp((2*pi*i/b) * (a*N*r^2/2 + a*r*j + a*j^2/(2N) + d*k^2/(2N) - k*r - k*j/N)),
    evaluated with the rational phase reduced mod 1 in exact integers.
    With L = 2|b|N every term is exp(2*pi*i * v/L) for an integer v in
    [0, L), looked up in one table of the L roots of unity, made once by
    the same elementwise expression (_phase_grid) that would evaluate
    each term directly. The term of step r is

        v = base + sign(b) * (a N^2 r^2 + 2 N r s) mod L,
        base = sign(b) * (a j^2 - 2 j k + d k^2) mod L,  s = (a j - k) mod |b|,

    so the r-sum of entry (k, j) depends only on its phase class
    (base, s). Since ad - bc = 1, base = rho(s) = sign(b) d s^2 mod |b|,
    and key = base - rho(s) + s labels the classes one to one in [0, L).
    The build sums each class once, into L complex numbers as the roots
    take, and fills entries[k, j] = sums[key] / sqrt(N|b|) over blocks of
    _KERNEL_ROWS rows. The bits are those of the per-term evaluation: v
    is the same exact integer, so each term is the same double as a
    direct exp, added in the same r order from zero. The sums cost
    2|b|^2 N table gathers and the fill N^2, where a sum per entry costs
    |b| N^2: fewer once N exceeds about 2|b|.

    The result is certified unitary (max-norm residual <= UNITARITY_TOL *
    sqrt(N)), and every entry is checked against the entry law
    entry_modulus(b, N), both over blocks of rows: the result is the
    build's one N x N array.

    N must be odd, the regime of the spectral statements verified here;
    even N, and L past _MAX_MODULUS, are rejected before anything is
    allocated.
    """
    absb, sign, L = _require_kernel_domain(A, N)
    a, d = A.a, A.d

    # Every int64 product below is of two numbers below L, so the
    # domain's bound on L keeps it from overflow.
    aL = a % L
    dL = d % L
    table = _phase_grid(np.arange(L), L)
    # Class key |b| m + s has base |b| m + rho(s), so its term of step r
    # sits at |b| m + offset(s) mod L, which take's wrap mode reduces.
    s = np.arange(absb, dtype=np.int64)
    rho = (sign * (d % absb) * ((s * s) % absb)) % absb
    stride = absb * np.arange(2 * N, dtype=np.int64)[:, None]
    sums = np.zeros((2 * N, absb), dtype=np.complex128)
    term = np.empty_like(sums)
    for r in range(absb):
        offset = np.mod(rho + sign * ((aL * N * N * r * r) % L + ((2 * N * r) % L) * s), L)
        np.take(table, stride + offset, out=term, mode="wrap")
        sums += term
    del table, term  # freed before the N x N result is allocated

    j = np.arange(N, dtype=np.int64)
    jline = (aL * ((j * j) % L)) % L
    # key - base = s - rho(s), by k mod |b| (rows) and j (columns)
    shift = (s - rho)[((a % absb) * j - s[:, None]) % absb]
    matrix = np.empty((N, N), dtype=np.complex128)
    for block in _blocks(N, _KERNEL_ROWS):
        k = j[block, None]
        key = np.mod(sign * (jline + (dL * ((k * k) % L)) % L - 2 * k * j), L)
        key += shift[j[block] % absb]
        np.take(sums, key, out=matrix[block])
    del sums, shift  # the certificates below need neither
    matrix /= np.sqrt(N * absb)

    # the Hermitian M^H M - I, block rows of its upper block triangle
    gram_max, entry_max = [], []
    for rows in _blocks(N):
        gram = matrix[:, rows].conj().T @ matrix[:, rows.start :]
        diag = np.arange(gram.shape[0])
        gram[diag, diag] -= 1
        gram_max.append(np.abs(gram).max())
        entry_max.append(np.abs(matrix[rows]).max())
    residual = float(np.max(gram_max))  # np.max keeps a NaN, Python's max may not
    certify("propagator build", N, "unitarity residual", residual, UNITARITY_TOL * np.sqrt(N))
    bound = entry_modulus(absb, N) + 1e-9
    certify("propagator build", N, "entry modulus", float(np.max(entry_max)), bound)
    return Propagator(N=N, A=A, entries=matrix, unitarity_residual=residual)


@dataclass(frozen=True)
class MatrixFreePropagator:
    """The propagator of a torus map at dimension N as the apply v -> M v.

    Write e(x) = exp(2*pi*i*x), chi_a(j) = e(a j^2/(2bN)) and
    G(s) = sum over r < |b| of e((a N r^2/2 + r s)/b). The kernel's r-sum
    depends on j and k only through s = (a j - k) mod |b|, so with
    j = rho + |b| m,

        (M v)_k = (N|b|)^(-1/2) chi_d(k) sum over rho < |b| of
                  G((a rho - k) mod |b|) e(-k rho/(bN)) F_rho(k),

    where F_rho is the length-N DFT, of the sign of b, of
    (chi_a v)[rho::|b|] zero-padded to N. chirp holds chi_a, and
    weights[rho, k] every factor of the sum but F_rho(k), for the
    rho < min(|b|, N) whose slice is not empty. An apply costs that many
    FFTs of length N, in one batched call, and holds O(|b| N) numbers.
    """

    N: int
    A: CatMatrix
    chirp: np.ndarray
    weights: np.ndarray

    def __call__(self, v: np.ndarray) -> np.ndarray:
        N, b = self.N, self.A.b
        absb = abs(b)
        m = -(-N // absb)  # the length of the longest slice
        u = np.zeros(m * absb, dtype=np.complex128)
        u[:N] = self.chirp * v
        slices = u.reshape(m, absb).T[: len(self.weights)]
        if b > 0:
            spectra = np.fft.fft(slices, n=N, axis=1)
        else:  # the unscaled DFT with e(+k m/N)
            spectra = np.fft.ifft(slices, n=N, axis=1, norm="forward")
        spectra *= self.weights
        return spectra.sum(axis=0)

    def kernel_column_0(self) -> np.ndarray:
        """Column 0 of the kernel, K e_0 = (N|b|)^(-1/2) chi_d(k) G(-k mod |b|),
        straight from the r-sum of build_propagator's formula at j = 0:
        O(|b| N) phases, no FFT, and none of the apply's stored arrays."""
        A, N = self.A, self.N
        absb, sign, L = _require_kernel_domain(A, N)
        k = np.arange(N, dtype=np.int64)
        base = ((A.d % L) * ((k * k) % L)) % L
        column = np.zeros(N, dtype=np.complex128)
        for r in range(absb):
            numerators = base + (A.a * N * N * r * r) % L - ((2 * N * r) % L) * k
            column += _phase_grid(sign * numerators, L)
        return column / np.sqrt(N * absb)

    def intertwining_defect(self) -> float:
        """Largest modulus of U_w M x - M U_v x, v = A^-1 w, over the
        generators w in {(1, 0), (0, 1)}, for the unit chirp
        x_j = N^(-1/2) e(j^2/(2N)).

        U_(p,q) is the quantum translation by (p/N, q/N): it moves e_j to
        e_((j+p) mod N) with phase exp(i*pi*(p*q + 2*q*j)/N). The map
        intertwines translations exactly, U_w M = M U_(A^-1 w), so near
        machine precision certifies the kernel formula and the
        translation phase convention at once. x has no zero entry, so
        every stored phase of the apply enters the check. Three applies.
        """
        A, N = self.A, self.N
        j = np.arange(N, dtype=np.int64)
        x = _phase_grid((j * j) % (2 * N), 2 * N) / np.sqrt(N)
        image = self(x)
        worst = 0.0
        for p, q in ((1, 0), (0, 1)):
            v_p, v_q = A.d * p - A.b * q, -A.c * p + A.a * q
            defect = _translate(image, p, q) - self(_translate(x, v_p, v_q))
            worst = max(worst, float(np.abs(defect).max()))
        return worst


def _translate(y: np.ndarray, p: int, q: int) -> np.ndarray:
    """U_(p,q) y: entry j moves to (j + p) mod N with phase
    exp(i*pi*(p*q + 2*q*j)/N)."""
    N = len(y)
    L = 2 * N
    j = np.arange(N, dtype=np.int64)
    phase = _phase_grid((p * q) % L + ((2 * q) % L) * j, L)
    return np.roll(phase * y, p % N)


def matrix_free_propagator(A: CatMatrix, N: int) -> MatrixFreePropagator:
    """The apply of the propagator build_propagator would build, with no
    N x N array.

    Every phase is exp(2*pi*i * v/L), L = 2|b|N, from integer numerators
    v reduced mod L before each product, as in build_propagator; only
    the O(|b| N) numerators the apply needs are evaluated, with no table
    of the L roots. G takes |b|^2 phases, one r at a time. The domain is
    build_propagator's (_require_kernel_domain).
    """
    absb, sign, L = _require_kernel_domain(A, N)
    a, d = A.a, A.d

    j = np.arange(N, dtype=np.int64)
    square = (j * j) % L
    chirp = _phase_grid(sign * (((a % L) * square) % L), L)
    s = np.arange(absb, dtype=np.int64)
    gauss = np.zeros(absb, dtype=np.complex128)
    for r in range(absb):
        gauss += _phase_grid(sign * ((a * N * N * r * r) % L + ((2 * N * r) % L) * s), L)
    rho = np.arange(min(absb, N), dtype=np.int64)[:, None]
    # chi_d(k) e(-k rho/(bN)), times G((a rho - k) mod |b|)
    weights = _phase_grid(sign * (((d % L) * square) % L - 2 * rho * j), L)
    weights *= gauss[((a % absb) * rho - j) % absb]
    weights /= np.sqrt(N * absb)
    return MatrixFreePropagator(N=N, A=A, chirp=chirp, weights=weights)


def write_matrix_csv(matrix: np.ndarray, fh: IO[str]) -> None:
    """Dump a complex matrix as CSV rows of interleaved re,im pairs."""
    for row in np.asarray(matrix):
        parts = np.ascontiguousarray(row, dtype=np.complex128).view(np.float64)
        fh.write(",".join(map(_cell, parts.tolist())) + "\n")


def write_matrix_binary(matrix: np.ndarray, fh: IO[bytes]) -> None:
    """Dump a square complex matrix in the CATM binary format.

    16-byte header (magic "CATM", u32 N, u32 reserved, zero padding)
    followed by row-major little-endian float64 interleaved re/im, which
    is the memory layout of a C-contiguous little-endian complex128
    matrix: a propagator's entries are written without a copy.
    """
    matrix = np.ascontiguousarray(matrix, dtype="<c16")
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError("binary dump expects a square matrix")
    fh.write(_HEADER.pack(MATRIX_MAGIC, n, 0))
    fh.write(memoryview(matrix).cast("B"))
