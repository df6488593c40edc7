"""Spectral analysis of propagator matrices.

Eigendecomposition with residual certification, clustering of unit-circle
eigenvalues into eigenspaces, extraction of the extremal sup norm of each
eigenspace through its orthogonal projector, and the averaging-operator
machinery behind the dispersive upper bound.

The projector identity doing the real work: for the orthogonal projector
P onto a subspace V, the largest l-infinity norm over l2-normalized
vectors of V equals max_j ||P e_j||, attained by P e_j / ||P e_j|| at the
maximizing coordinate j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .quantize import CertificationError, Propagator

__all__ = [
    "ResidualError",
    "AmbiguousClusterError",
    "EigenCluster",
    "SpectrumReport",
    "SupnormResult",
    "eigendecompose",
    "cluster_eigenvalues",
    "projector",
    "extremal_supnorm",
    "supnorm_summary",
    "op_norm_1_inf",
    "op_norm_2_inf",
    "averaging_operator",
    "report_to_dict",
]

TWO_PI = 2.0 * math.pi
# Certification bounds: eigenpair residual (times sqrt(N)), eigenvalue
# distance from the unit circle, scalar M^n.
RESIDUAL_TOL = 1e-8
MODULUS_TOL = 1e-8
SCALAR_TOL = 1e-7


class ResidualError(CertificationError):
    """Eigensystem residuals (or eigenvalue moduli) exceeded certification bounds."""


class AmbiguousClusterError(CertificationError):
    """An eigenvalue sits too close to two different cluster representatives,
    or farther than the tolerance from the nearest one."""


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
    runs; global_phase is the phase of the scalar matrix M^n when the
    short quantum period n certifies one.
    """

    N: int
    matrix: np.ndarray
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


def _as_matrix(M: Propagator | np.ndarray) -> tuple[np.ndarray, int]:
    if isinstance(M, Propagator):
        return M.entries, M.N
    matrix = np.asarray(M, dtype=np.complex128)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("expected a square matrix")
    return matrix, matrix.shape[0]


def eigendecompose(M: Propagator | np.ndarray) -> SpectrumReport:
    """Full eigensystem of a unitary with residual certification.

    Uses the complex Schur form, whose basis is orthonormal by
    construction; for a unitary input the Schur factor is diagonal to
    machine precision, so its columns are eigenvectors. Raises
    ResidualError when per-pair residuals exceed RESIDUAL_TOL*sqrt(N) or
    any eigenvalue modulus strays from 1 by more than MODULUS_TOL; scipy's
    LinAlgError propagates on solver non-convergence.
    """
    matrix, n = _as_matrix(M)
    T, Z = scipy.linalg.schur(matrix, output="complex")
    values = np.diag(T).copy()
    phases = np.mod(np.angle(values), TWO_PI)
    order = np.argsort(phases, kind="stable")
    values = values[order]
    vectors = Z[:, order]

    residuals = np.linalg.norm(matrix @ vectors - vectors * values[None, :], axis=0)
    worst = float(residuals.max()) if n else 0.0
    if worst > RESIDUAL_TOL * math.sqrt(n):
        raise ResidualError(
            "N=%d: eigenpair residual %.3e exceeds %.3e"
            % (n, worst, RESIDUAL_TOL * math.sqrt(n))
        )
    moduli = np.abs(values)
    if moduli.size and (moduli.max() > 1 + MODULUS_TOL or moduli.min() < 1 - MODULUS_TOL):
        raise ResidualError(
            "N=%d: eigenvalue modulus strays from the unit circle by %.3e"
            " (bound %.3e)" % (n, float(np.abs(moduli - 1).max()), MODULUS_TOL)
        )
    return SpectrumReport(
        N=n,
        matrix=matrix,
        eigenvalues=values,
        eigenvectors=vectors,
        residuals=residuals,
    )


def _circular_distance(x: np.ndarray | float, y: float) -> np.ndarray | float:
    d = np.mod(np.asarray(x) - y, TWO_PI)
    return np.minimum(d, TWO_PI - d)


def _snap_clusters(report: SpectrumReport, n: int, tol: float) -> SpectrumReport:
    power = np.linalg.matrix_power(report.matrix, n)
    scalar = power[0, 0]
    off = float(np.abs(power - scalar * np.eye(report.N)).max())
    if off > SCALAR_TOL:
        raise ResidualError(
            "N=%d: matrix power %d is not scalar (residual %.3e exceeds %.3e);"
            " wrong period?" % (report.N, n, off, SCALAR_TOL)
        )
    if abs(abs(scalar) - 1) > SCALAR_TOL:
        raise ResidualError(
            "N=%d: scalar matrix power %d strays from the unit circle by %.3e"
            " (bound %.3e)" % (report.N, n, abs(abs(scalar) - 1), SCALAR_TOL)
        )
    phi = float(np.angle(scalar))
    roots = np.mod((phi + TWO_PI * np.arange(n)) / n, TWO_PI)
    phases = np.mod(np.angle(report.eigenvalues), TWO_PI)

    members: dict[int, list[int]] = {}
    for i, theta in enumerate(phases):
        dist = _circular_distance(roots, float(theta))
        nearest = int(np.argmin(dist))
        runner_up = np.partition(dist, 1)[1] if n > 1 else math.inf
        if runner_up < 2 * tol:
            raise AmbiguousClusterError(
                "N=%d: eigenvalue %d lies %.3e from a second period-%d root,"
                " within 2*tol %.3e" % (report.N, i, runner_up, n, 2 * tol)
            )
        if dist[nearest] > tol:
            raise AmbiguousClusterError(
                "N=%d: eigenvalue %d lies %.3e from its nearest period-%d root"
                " (tol %.3e)" % (report.N, i, dist[nearest], n, tol)
            )
        members.setdefault(nearest, []).append(i)

    order = sorted(members, key=lambda m: roots[m])
    clusters = tuple(
        EigenCluster(phase=float(roots[m]), indices=tuple(members[m])) for m in order
    )
    return replace(report, clusters=clusters, global_phase=phi)


def _gap_clusters(report: SpectrumReport, tol: float) -> SpectrumReport:
    n = report.N
    phases = np.mod(np.angle(report.eigenvalues), TWO_PI)
    groups: list[list[int]] = [[0]]
    for i in range(1, n):
        if phases[i] - phases[i - 1] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    # circular wrap: the first and last groups may be one cluster
    if len(groups) > 1 and (phases[groups[0][0]] + TWO_PI - phases[-1]) <= tol:
        groups[0] = groups.pop() + groups[0]
    clusters = []
    for members in groups:
        rep = complex(np.sum(report.eigenvalues[members]))
        clusters.append(
            EigenCluster(
                phase=float(np.mod(np.angle(rep), TWO_PI)), indices=tuple(members)
            )
        )
    clusters.sort(key=lambda cl: cl.phase)
    return replace(report, clusters=tuple(clusters), global_phase=None)


def cluster_eigenvalues(
    report: SpectrumReport,
    n: int | None = None,
    lam: float | None = None,
    tol: float = 1e-7,
) -> SpectrumReport:
    """Group the eigenvalues of a report into eigenspace clusters.

    In the short-period regime (n <= 2*log_lambda(N) + 1, decidable when
    both n and lam are supplied) M^n is verified to be scalar and each
    eigenvalue is snapped to the nearest n-th root of its phase, so the
    clustering is exact. Otherwise eigenvalues are grouped by phase gaps
    at tolerance tol, merging near-degenerate neighbours; degeneracy away
    from the short-period regime is declared, never assumed.
    """
    if report.N == 0:
        return replace(report, clusters=())
    if tol <= 0:
        raise ValueError("cluster tolerance must be positive")
    if n is not None and n < 1:
        raise ValueError("quantum period must be positive")
    if (
        n is not None
        and lam is not None
        and report.N > 1
        and n <= 2 * math.log(report.N, lam) + 1 + 1e-12
    ):
        return _snap_clusters(report, n, tol)
    if n == 1:
        # scalar matrix regardless of lam knowledge
        return _snap_clusters(report, 1, tol)
    return _gap_clusters(report, tol)


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


def extremal_supnorm(basis: np.ndarray) -> tuple[float, int, np.ndarray]:
    """Largest sup norm over l2-normalized vectors of the eigenspace.

    basis holds an orthonormal basis of the eigenspace in its columns.
    Returns (value, witness_index, witness): value = max_j ||P e_j||,
    computed as the largest row norm of the basis, and the witness
    P e_j* / ||P e_j*|| attains it. Always >= sqrt(dim/N) by the trace
    pigeonhole.
    """
    if not basis.size:
        raise ValueError("eigenspace basis is empty")
    row_norms = np.linalg.norm(basis, axis=1)
    index = int(np.argmax(row_norms))
    value = float(row_norms[index])
    witness = basis @ basis[index].conj()
    return value, index, witness / value


def supnorm_summary(report: SpectrumReport) -> SupnormResult:
    """Maximum extremal sup norm over all clusters of a clustered report.

    Deterministic tie-breaking: the first cluster (by phase order)
    attaining the maximum wins, and within a cluster the smallest
    maximizing coordinate index is the witness.
    """
    if not report.clusters:
        raise ValueError("report has no clusters; run cluster_eigenvalues first")
    bases = [projector(report, cid) for cid in range(len(report.clusters))]
    norms = [op_norm_2_inf(basis) for basis in bases]
    cid = norms.index(max(norms))
    value, index, witness = extremal_supnorm(bases[cid])
    return SupnormResult(
        value=value,
        cluster_id=cid,
        witness_index=index,
        witness=witness,
        cluster_dim=report.clusters[cid].dim,
    )


def op_norm_1_inf(X: np.ndarray) -> float:
    """The l1 -> l-infinity operator norm: the largest entry modulus."""
    X = np.asarray(X)
    return float(np.abs(X).max()) if X.size else 0.0


def op_norm_2_inf(X: np.ndarray) -> float:
    """The l2 -> l-infinity operator norm: the largest row l2 norm (exact)."""
    X = np.asarray(X)
    if not X.size:
        return 0.0
    return float(np.linalg.norm(X, axis=1).max())


def averaging_operator(
    M: Propagator | np.ndarray, mu: complex, T: int
) -> np.ndarray:
    """Time average B = (1/T) * sum_{n<T} mu^-n M^n.

    For an eigenvector u of M with eigenvalue mu, B u = u; the largest
    row l2 norm of B therefore bounds ||u||_inf for every such unit
    eigenvector. mu must be unimodular.
    """
    if T < 1:
        raise ValueError("averaging window must be positive, got %d" % T)
    mu = complex(mu)
    if abs(abs(mu) - 1) > 1e-12:
        raise ValueError("eigenvalue must be unimodular, |mu| = %.15f" % abs(mu))
    matrix, n = _as_matrix(M)
    accum = np.zeros((n, n), dtype=np.complex128)
    power = np.eye(n, dtype=np.complex128)
    weight = 1.0 + 0.0j
    for step in range(T):
        accum += weight * power
        if step + 1 < T:
            power = matrix @ power
            weight /= mu
    return accum / T


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
                "supnorm": op_norm_2_inf(projector(report, cid)),
            }
            for cid, cluster in enumerate(report.clusters)
        ],
        "global_phase": report.global_phase,
        "residual_max": float(report.residuals.max()) if report.N else 0.0,
    }
