"""Finite-dimensional quantization on the N-dimensional state space.

The state space for inverse Planck constant 2*pi*N is identified with C^N
through the delta-comb basis {e_j}. This module builds the propagator
matrix of a hyperbolic torus map, and certifies the construction
through unitarity, the entry bound sqrt(|b|/N), and the exact
intertwining of lattice translations (the decisive oracle: it pins down
both the kernel formula and the basis phase convention at once).

Phase bookkeeping is exact: every phase below is exp(2*pi*i * v/L) with
integers v, L reduced mod L before any float conversion, so large
quadratic terms never cancel catastrophically.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import IO

import numpy as np

from .arith import CatMatrix, _cell, certify, require_quantizable

__all__ = [
    "Propagator",
    "build_propagator",
    "intertwining_defect",
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


# Rows of the propagator per block of the kernel's r-sum and of the
# intertwining defect. A block's index and term scratch (16 N entries
# each) stays in cache across the r loop, and neither allocates an N x N
# array besides the build's result.
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


def build_propagator(A: CatMatrix, N: int) -> Propagator:
    """Propagator matrix of the map A at dimension N.

    entries[k, j] = (N|b|)^(-1/2) * sum over r < |b| of
    exp((2*pi*i/b) * (a*N*r^2/2 + a*r*j + a*j^2/(2N) + d*k^2/(2N) - k*r - k*j/N)),
    evaluated with the rational phase reduced mod 1 in exact integers.
    With L = 2|b|N every term is exp(2*pi*i * v/L) for an integer v in
    [0, L), so the terms are looked up in one table of the L roots of
    unity, made once by the same elementwise expression (_phase_grid) that
    would evaluate each term directly. The integer v is exact whatever
    order its parts are reduced in, so each term is the same double as a
    direct exp, added in the same r order: the entries are bit-identical
    to the per-term evaluation, at one table gather and one add per term
    instead of a complex exp. The sum runs over blocks of _KERNEL_ROWS
    rows, so the integer phases and gathered terms never fill an N x N
    scratch array.

    The result is certified unitary (max-norm residual <= UNITARITY_TOL *
    sqrt(N)), and every entry is checked against the dispersive bound
    sqrt(|b|/N), both over blocks of rows: the result is the build's one
    N x N array.

    N must be odd, the regime of the spectral statements verified here;
    even N is rejected before anything is allocated.
    """
    if N < 1:
        raise ValueError("dimension must be positive, got %d" % N)
    require_quantizable(A)
    if A.b == 0:
        raise ValueError("kernel formula requires b != 0")
    if N % 2 == 0:
        raise ValueError("expected odd N, got %d" % N)

    a, b, d = A.a, A.b, A.d
    absb = abs(b)
    sign = 1 if b > 0 else -1
    L = 2 * absb * N

    j = np.arange(N, dtype=np.int64)
    # Reduce coefficients mod L first so every int64 product below stays
    # far from overflow even for large map entries.
    aL = a % L
    dL = d % L
    jline = (aL * j * j) % L
    table = _phase_grid(np.arange(L), L)
    # The numerator's per-r parts that depend on j alone and on k alone,
    # each reduced mod L.
    jparts = [
        np.mod(sign * ((a * N * N * r * r) % L + ((2 * a * N * r) % L) * j), L)
        for r in range(absb)
    ]
    kparts = [np.mod(-sign * ((2 * N * r) % L) * j, L) for r in range(absb)]
    matrix = np.zeros((N, N), dtype=np.complex128)
    for block in _blocks(N, _KERNEL_ROWS):
        k = j[block, None]
        # The r-independent part, reduced mod L: with the two per-r parts
        # the numerator lies in [0, 3L), which take's wrap mode maps onto
        # the table without a mod over the block.
        base = np.mod(sign * (jline + (dL * k * k) % L - 2 * k * j), L)
        index = np.empty_like(base)
        term = np.empty(base.shape, dtype=np.complex128)
        rows = matrix[block]
        for jpart, kpart in zip(jparts, kparts):
            np.add(base, jpart, out=index)
            index += kpart[block, None]
            np.take(table, index, out=term, mode="wrap")
            rows += term
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
    bound = np.sqrt(absb / N) + 1e-9
    certify("propagator build", N, "entry modulus", float(np.max(entry_max)), bound)
    return Propagator(N=N, A=A, entries=matrix, unitarity_residual=residual)


def intertwining_defect(M: Propagator) -> float:
    """Largest entry modulus of U_w M - M U_v, v = A^-1 w, over the
    generators w in {(1, 0), (0, 1)}.

    U_(p,q) is the quantum translation by (p/N, q/N): it moves e_j to
    e_((j+p) mod N) with phase exp(i*pi*(p*q + 2*q*j)/N). The map
    intertwines translations exactly, U_w M = M U_(A^-1 w), so near
    machine precision certifies the kernel formula and the translation
    phase convention at once. U_w M is M with its rows moved and scaled,
    M U_v is M with its columns moved and scaled, so the defect costs
    O(N^2): it is taken over blocks of _KERNEL_ROWS rows, with no N x N
    scratch array.
    """
    A, N, entries = M.A, M.N, M.entries
    L = 2 * N
    j = np.arange(N, dtype=np.int64)
    worst = 0.0
    for p, q in ((1, 0), (0, 1)):
        v_p, v_q = A.d * p - A.b * q, -A.c * p + A.a * q
        # (U_w M)[k, l] = phase_w(k - p) M[k - p, l]
        rows = (j - p) % N
        row_phase = _phase_grid(p * q + 2 * q * rows, L)
        # (M U_v)[k, l] = M[k, l + v_p] phase_v(l)
        cols = (j + v_p % N) % N
        col_phase = _phase_grid((v_p * v_q) % L + ((2 * v_q) % L) * j, L)
        for block in _blocks(N, _KERNEL_ROWS):
            left = entries[rows[block]] * row_phase[block, None]
            right = entries[block][:, cols] * col_phase
            worst = max(worst, float(np.abs(left - right).max()))
    return worst


def write_matrix_csv(matrix: np.ndarray, fh: IO[str]) -> None:
    """Dump a complex matrix as CSV rows of interleaved re,im pairs."""
    for row in np.asarray(matrix):
        fh.write(",".join(_cell(float(part)) for v in row for part in (v.real, v.imag)))
        fh.write("\n")


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
