"""Spectral analysis of propagator matrices.

Eigendecomposition with residual certification, clustering of unit-circle
eigenvalues into eigenspaces at the roots of the scalar M^n (n the
quantum period, which every N has), and extraction of the extremal sup
norm of each eigenspace through its orthogonal projector.

The projector identity doing the real work: for the orthogonal projector
P onto a subspace V, the largest l-infinity norm over l2-normalized
vectors of V equals max_j ||P e_j||, attained by P e_j / ||P e_j|| at the
maximizing coordinate j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, partial
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from typing import Iterator, NamedTuple

import numpy as np

from .arith import certify
from .quantize import Propagator, _blocks

__all__ = [
    "EigenCluster",
    "SpectrumReport",
    "SupnormResult",
    "eigendecompose",
    "cluster_eigenvalues",
    "projector",
    "supnorm_summary",
    "report_to_dict",
]

TWO_PI = 2.0 * math.pi
# Certification bounds: eigenpair residual (times sqrt(N)), eigenvalue
# distance from the unit circle, scalar M^n. CLUSTER_TOL is the largest
# phase distance of an eigenvalue from its snapped root.
RESIDUAL_TOL = 1e-8
MODULUS_TOL = 1e-8
SCALAR_TOL = 1e-7
CLUSTER_TOL = 1e-7


@dataclass(frozen=True)
class EigenCluster:
    """One eigenvalue cluster: representative phase and member indices."""

    phase: float
    indices: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class SpectrumReport:
    """Certified eigensystem of one unitary, sorted by eigenvalue phase.

    eigenvectors holds one orthonormal eigenvector per column (Schur
    vectors, so orthonormality is exact to machine precision even inside
    degenerate clusters). clusters is empty until cluster_eigenvalues
    runs; global_phase is then phi = angle(lambda_0^n), the phase of the
    certified scalar matrix M^n = e^(i phi) I at the quantum period n (in
    (-pi, pi], unlike the cluster phases in [0, 2*pi)). The matrix itself
    is not kept; a caller that needs it holds on to the propagator.
    """

    N: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    clusters: tuple[EigenCluster, ...] = ()
    global_phase: float | None = None


class SupnormResult(NamedTuple):
    value: float
    cluster_id: int
    witness_index: int
    witness: np.ndarray
    cluster_dim: int


@cache
def _zgees():
    """LAPACK's zgees from SciPy's _flapack extension, loaded once per
    process by its file: the routine scipy.linalg.lapack.get_lapack_funcs
    returns for "gees" on complex128, from the same library, without
    scipy.linalg's package init. A missing extension is a broken SciPy
    install: ImportError."""
    # scipy's own init (about 10 ms) runs: in Windows wheels it is what
    # puts SciPy's bundled DLLs on the search path
    import scipy

    spec = PathFinder.find_spec("_flapack", [scipy.__path__[0] + "/linalg"])
    if spec is None:
        raise ImportError("SciPy's LAPACK extension scipy/linalg/_flapack is missing")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.zgees


def eigendecompose(M: Propagator | np.ndarray) -> SpectrumReport:
    """Full eigensystem of a unitary with residual certification.

    Uses the complex Schur form, whose basis is orthonormal by
    construction; for a unitary input the Schur factor is diagonal to
    machine precision, so its columns are eigenvectors. LAPACK's zgees
    overwrites one Fortran-order copy with T (scipy.linalg.schur's bits)
    and the residuals run over column blocks: with the caller's matrix,
    three N x N arrays at most. Raises ValueError on a non-finite matrix,
    LinAlgError when zgees fails, and CertificationError when per-pair
    residuals exceed RESIDUAL_TOL*sqrt(N) or any eigenvalue modulus
    strays from 1 by more than MODULUS_TOL.

    The first call of a process loads zgees (_zgees): 14-21 ms and 3.3 MB
    of RSS, against 0.16-0.31 s and 26.6 MB to import scipy.linalg.
    """
    matrix = M.entries if isinstance(M, Propagator) else np.asarray(M, dtype=np.complex128)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("expected a square matrix")
    n = matrix.shape[0]
    # scipy.linalg.schur's finite check, then the one copy zgees overwrites
    T = Z = np.array(np.asarray_chkfinite(matrix), order="F")
    if n:  # zgees rejects an empty matrix, its own Schur form
        gees = partial(_zgees(), lambda value: None, overwrite_a=True)
        T, _, _, Z, _, info = gees(T, lwork=int(gees(T, lwork=-1)[-2][0].real))
        if info != 0:
            raise np.linalg.LinAlgError("Schur form not found at N=%d: zgees info %d" % (n, info))
    values = np.diag(T).copy()
    del T
    phases = np.mod(np.angle(values), TWO_PI)
    order = np.argsort(phases, kind="stable")
    values = values[order]
    vectors = Z[:, order]
    del Z

    residuals = np.empty(n)
    for cols in _blocks(n):
        residual = matrix @ vectors[:, cols]
        residual -= vectors[:, cols] * values[cols]
        residuals[cols] = np.linalg.norm(residual, axis=0)
    worst = float(residuals.max(initial=0.0))
    certify("eigensolve", n, "eigenpair residual", worst, RESIDUAL_TOL * math.sqrt(n))
    stray = float(np.abs(np.abs(values) - 1).max(initial=0.0))
    certify("eigensolve", n, "max |modulus - 1|", stray, MODULUS_TOL)
    return SpectrumReport(
        N=n,
        eigenvalues=values,
        eigenvectors=vectors,
        residuals=residuals,
    )


def cluster_eigenvalues(report: SpectrumReport, n: int) -> SpectrumReport:
    """Group the eigenvalues of a report into eigenspace clusters at the
    n-th roots of the scalar M^n, n the quantum period.

    First certifies M^n = c I from the certified eigenpairs. With V the
    Schur basis, Lambda the eigenvalues and R = M V - V Lambda, whose
    column norms are report.residuals,
    M^n V - V Lambda^n = sum_{k<n} M^(n-1-k) R Lambda^k. Assuming V
    orthonormal (Schur) and M unitary (certified by its build), and with
    |lambda_i| = 1 to MODULUS_TOL (certified by eigendecompose), every c
    obeys ||M^n - c I||_2 <= max_i |lambda_i^n - c| + n ||R||_F. The right
    side at c = lambda_0^n is certified within SCALAR_TOL; it also bounds
    the largest entry of M^n - c I, and it costs O(N), with no M^n formed.

    Then snaps each eigenvalue to the nearest n-th root of c, found by
    rounding, also in O(N); every cluster is an exact eigenspace, so
    degeneracy is certified, never assumed.
    """
    if report.N == 0:
        return replace(report, clusters=())
    if n < 1:
        raise ValueError("quantum period must be positive")
    powers = report.eigenvalues**n
    scalar = complex(powers[0])
    off = float(np.abs(powers - scalar).max()) + n * float(np.linalg.norm(report.residuals))
    certify("clustering", report.N, "off-scalar bound of M^%d" % n, off, SCALAR_TOL)
    certify("clustering", report.N, "||lam_0^%d| - 1|" % n, abs(abs(scalar) - 1), SCALAR_TOL)
    phi = float(np.angle(scalar))
    roots = np.mod((phi + TWO_PI * np.arange(n)) / n, TWO_PI)
    phases = np.mod(np.angle(report.eigenvalues), TWO_PI)

    # The root nearest phase theta is k = rint((n*theta - phi) / 2*pi)
    # mod n. An eigenvalue at circular distance d from it lies 2*pi/n - d
    # from the second nearest, which must stay beyond 2*CLUSTER_TOL.
    nearest = np.mod(np.rint((n * phases - phi) / TWO_PI), n).astype(np.intp)
    dist = np.mod(roots[nearest] - phases, TWO_PI)
    snap = float(np.minimum(dist, TWO_PI - dist).max())
    bound = CLUSTER_TOL if n == 1 else min(CLUSTER_TOL, TWO_PI / n - 2 * CLUSTER_TOL)
    certify("clustering", report.N, "largest snap distance", snap, bound)
    # Phase-0 rule: a root within CLUSTER_TOL of phase 0 is reported as
    # exactly 0.0 and sorts first, whatever the sign of the rounding in
    # phi. The snap check keeps roots 2*CLUSTER_TOL or more apart, so at
    # most one moves.
    roots[np.minimum(roots, TWO_PI - roots) < CLUSTER_TOL] = 0.0
    members: dict[int, list[int]] = {}
    for i, m in enumerate(nearest.tolist()):
        members.setdefault(m, []).append(i)

    order = sorted(members, key=lambda m: roots[m])
    clusters = tuple(
        EigenCluster(phase=float(roots[m]), indices=tuple(members[m])) for m in order
    )
    return replace(report, clusters=clusters, global_phase=phi)


def projector(report: SpectrumReport, cluster_id: int) -> np.ndarray:
    """Orthonormal basis (columns) of one cluster's eigenspace.

    The orthogonal projector onto the eigenspace is basis @ basis^H.
    Member eigenvectors are re-orthonormalized (QR). Schur vectors are
    orthonormal to ~1e-14 already, but the QR moves the last bits of the
    row norms and so decides which of several clusters with equal sup
    norms supnorm_summary reports (N = 15, 39, 65, 165, 195 over 3..201
    for the maps (2,3,1,2), (2,-3,-1,2), (8,3,-11,-4), (-4,3,-11,8)).
    """
    cluster = report.clusters[cluster_id]
    if cluster.dim == 0:
        raise ValueError("cluster %d is empty" % cluster_id)
    basis, _ = np.linalg.qr(report.eigenvectors[:, list(cluster.indices)])
    return basis


def _cluster_supnorms(
    report: SpectrumReport,
) -> Iterator[tuple[float, np.ndarray, np.ndarray]]:
    """Yield (value, basis, row_norms) for each cluster in phase order.

    basis is the cluster's orthonormal basis from projector, row_norms
    the l2 norms ||P e_j|| of its rows, and value = max_j ||P e_j|| the
    cluster's extremal sup norm, always >= sqrt(dim/N) by the trace
    pigeonhole. Lazy, so a caller holds one basis at a time.
    """
    for cid in range(len(report.clusters)):
        basis = projector(report, cid)
        row_norms = np.linalg.norm(basis, axis=1)
        yield float(row_norms.max()), basis, row_norms


def supnorm_summary(report: SpectrumReport) -> SupnormResult:
    """Maximum extremal sup norm over all clusters of a clustered report.

    The witness P e_j* / ||P e_j*|| at the maximizing coordinate j*
    attains it. Deterministic tie-breaking: the first cluster (by phase
    order) attaining the maximum wins, and within a cluster the smallest
    maximizing coordinate index is the witness.
    """
    if not report.clusters:
        raise ValueError("report has no clusters; run cluster_eigenvalues first")
    # max keeps the first of equal keys, so the first cluster wins a tie
    cid, (value, basis, row_norms) = max(
        enumerate(_cluster_supnorms(report)), key=lambda item: item[1][0]
    )
    index = int(np.argmax(row_norms))
    witness = basis @ basis[index].conj()
    return SupnormResult(
        value=value,
        cluster_id=cid,
        witness_index=index,
        witness=witness / value,
        cluster_dim=report.clusters[cid].dim,
    )


def report_to_dict(report: SpectrumReport) -> dict:
    """JSON-ready view of a clustered spectrum report."""
    return {
        "N": report.N,
        "eigenvalues": [[float(v.real), float(v.imag)] for v in report.eigenvalues],
        "clusters": [
            {
                "phase": cluster.phase,
                "indices": list(cluster.indices),
                "dim": cluster.dim,
                "supnorm": supnorm,
            }
            for cluster, (supnorm, _, _) in zip(report.clusters, _cluster_supnorms(report))
        ],
        "global_phase": report.global_phase,
        "residual_max": float(report.residuals.max()) if report.N else 0.0,
    }
