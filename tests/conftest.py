"""Shared heavy artifacts: the upper-bound surrogate sweep is computed
once per session and consumed by both the module-invariant test and the
acceptance criterion. Also runners for `python -m catlab.cli` in a fresh
interpreter, scan stages patched inside scan worker processes, and the
dense oracles the library's fast paths are checked against: translation
matrices, the Egorov and the entrywise intertwining defects, dense
propagator powers, the dense scalar power M^n, phase-gap clustering, the
table of distances to the roots of M^n, the averaging operator, and the
full products and scipy Schur form that the blocked certificates and the
direct zgees call replace."""

import dataclasses
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import catlab
from catlab import arith, experiments, quantize, spectral
from catlab.arith import CatMatrix, certify, matrix_power, validate_catmap
from catlab.experiments import DispersiveRecord, process_map
from catlab.quantize import Propagator, build_propagator
from catlab.spectral import CLUSTER_TOL, TWO_PI, EigenCluster, SpectrumReport, supnorm_summary


def translation_matrix(p: int, q: int, N: int) -> np.ndarray:
    """Quantum translation by the lattice vector (p/N, q/N), an N x N unitary.

    Derived once by applying the translation operator to the delta-comb
    basis: e_j picks up phase exp(i*pi*(p*q + 2*q*j)/N) and moves to
    e_{(j+p) mod N}. Golden tests freeze this convention.
    """
    L = 2 * N
    j = np.arange(N, dtype=np.int64)
    phases = np.exp((2j * np.pi / L) * np.mod((p * q) % L + ((2 * q) % L) * j, L))
    entries = np.zeros((N, N), dtype=np.complex128)
    entries[(j + p % N) % N, j] = phases
    return entries


def egorov_defect(M: Propagator) -> float:
    """Max spectral-norm defect of the exact translation intertwining.

    For the generators w in {(1/N, 0), (0, 1/N)} compares M^-1 U_w M with
    the translation by A^-1 w, which stays on the lattice: the dense
    oracle for intertwining_defect.
    """
    A, N = M.A, M.N
    Minv = M.entries.conj().T
    worst = 0.0
    for (p, q) in ((1, 0), (0, 1)):
        U = translation_matrix(p, q, N)
        target = translation_matrix(A.d * p - A.b * q, -A.c * p + A.a * q, N)
        defect = float(np.linalg.norm(Minv @ U @ M.entries - target, 2))
        worst = max(worst, defect)
    return worst


def intertwining_defect(M: Propagator) -> float:
    """Largest entry modulus of U_w M - M U_v, v = A^-1 w, over the
    generators w in {(1, 0), (0, 1)}, from the dense translation matrices:
    the entrywise oracle for the matrix-free apply's intertwining defect,
    which takes the same difference on one vector."""
    A, N = M.A, M.N
    worst = 0.0
    for (p, q) in ((1, 0), (0, 1)):
        U = translation_matrix(p, q, N)
        V = translation_matrix(A.d * p - A.b * q, -A.c * p + A.a * q, N)
        worst = max(worst, float(np.abs(U @ M.entries - M.entries @ V).max()))
    return worst


def op_norm_1_inf(X: np.ndarray) -> float:
    """The l1 -> l-infinity operator norm: the largest entry modulus."""
    X = np.asarray(X)
    return float(np.abs(X).max()) if X.size else 0.0


def op_norm_2_inf(X: np.ndarray) -> float:
    """The l2 -> l-infinity operator norm: the largest row l2 norm (exact)."""
    X = np.asarray(X)
    return float(np.linalg.norm(X, axis=1).max()) if X.size else 0.0


def averaging_operator(M: Propagator, mu: complex, T: int) -> np.ndarray:
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
    n = M.N
    accum = np.zeros((n, n), dtype=np.complex128)
    power = np.eye(n, dtype=np.complex128)
    weight = 1.0 + 0.0j
    for step in range(T):
        accum += weight * power
        if step + 1 < T:
            power = M.entries @ power
            weight /= mu
    return accum / T


def dense_scalar_residual(M: np.ndarray, n: int) -> tuple[float, float]:
    """(max |M^n - M^n[0,0] I|, angle(M^n[0,0])) from the dense power: the
    oracle for the scalar-power bound of spectral's snap clustering."""
    power = np.linalg.matrix_power(M, n)
    scalar = power[0, 0]
    return float(np.abs(power - scalar * np.eye(len(M))).max()), float(np.angle(scalar))


def gap_clusters(report: SpectrumReport) -> SpectrumReport:
    """Clusters from phase gaps: neighbours in phase order within
    CLUSTER_TOL share a cluster, whose phase is that of the sum of its
    eigenvalues. The oracle for the memberships and phases of
    spectral.cluster_eigenvalues, which needs no tolerance to group."""
    n = report.N
    phases = np.mod(np.angle(report.eigenvalues), TWO_PI)
    groups: list[list[int]] = [[0]]
    for i in range(1, n):
        if phases[i] - phases[i - 1] <= CLUSTER_TOL:
            groups[-1].append(i)
        else:
            groups.append([i])
    # circular wrap: the first and last groups may be one cluster
    if len(groups) > 1 and (phases[groups[0][0]] + TWO_PI - phases[-1]) <= CLUSTER_TOL:
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
    return dataclasses.replace(report, clusters=tuple(clusters), global_phase=None)


def table_snap(phases: np.ndarray, phi: float, n: int) -> tuple[np.ndarray, float]:
    """(nearest root index per phase, largest distance to it) from the full
    N x n table of circular distances to the roots (phi + 2*pi*k)/n: the
    oracle for the rounding in spectral.cluster_eigenvalues."""
    roots = np.mod((phi + TWO_PI * np.arange(n)) / n, TWO_PI)
    dist = np.mod(roots[None, :] - phases[:, None], TWO_PI)
    dist = np.minimum(dist, TWO_PI - dist)
    return np.argmin(dist, axis=1), float(dist.min(axis=1).max())


def dense_unitarity_residual(M: np.ndarray) -> float:
    """max |M^H M - I| from the full product: the oracle for the blocked
    unitarity certificate of quantize.build_propagator."""
    return float(np.abs(M.conj().T @ M - np.eye(len(M))).max())


def schur_eigensystem(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors, residual column norms) in phase order
    from scipy.linalg.schur and the full product M V - V Lambda: the
    oracle for spectral.eigendecompose."""
    import scipy.linalg

    T, Z = scipy.linalg.schur(M, output="complex")
    values = np.diag(T).copy()
    order = np.argsort(np.mod(np.angle(values), TWO_PI), kind="stable")
    values, vectors = values[order], Z[:, order]
    residual = M @ vectors - vectors * values[None, :]
    return values, vectors, np.linalg.norm(residual, axis=0)


def _bits(x) -> list[int]:
    return np.ascontiguousarray(x).view(np.uint64).ravel().tolist()


def blocked_bits_differ(case: tuple[tuple[int, int, int, int], int]) -> list[str]:
    """Names of the outputs of build_propagator and eigendecompose at one
    (map, N) whose bits differ from the full-product oracles; the Schur
    oracle runs SciPy's own zgees, not the one spectral._zgees loads from
    the same file. Run it in a process_map worker: a GEMM split over
    several BLAS threads may round differently from the same GEMM on
    one, so bits compare on one thread."""
    entries, N = case
    prop = build_propagator(CatMatrix(*entries), N)
    report = spectral.eigendecompose(prop)
    values, vectors, residuals = schur_eigensystem(prop.entries)
    pairs = {
        "unitarity_residual": (prop.unitarity_residual, dense_unitarity_residual(prop.entries)),
        "eigenvalues": (report.eigenvalues, values),
        "eigenvectors": (report.eigenvectors, vectors),
        "residuals": (report.residuals, residuals),
    }
    return [name for name, (fast, oracle) in pairs.items() if _bits(fast) != _bits(oracle)]


def snapped_spectrum(case: tuple[tuple[int, int, int, int], int]):
    """experiments.clustered_spectrum's (record, report) at one (map, N),
    plus the largest snap distance cluster_eigenvalues certified. Module
    level, so process_map workers can run it; it patches spectral.certify
    in its own process."""
    entries, N = case
    snaps = []

    def recording(stage, dim, check, value, bound):
        if check == "largest snap distance":
            snaps.append(value)
        certify(stage, dim, check, value, bound)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "certify", recording)
        record, report = experiments.clustered_spectrum(CatMatrix(*entries), N)
    return record, report, snaps[-1]


def dense_power_norms(A: CatMatrix, N: int, jmax: int) -> list[DispersiveRecord]:
    """dispersive_scan at one N from dense powers: the oracle for its
    evolved column.

    M^j is formed by repeated products, each certified with its unitarity
    drift max|P^H P - I| within experiments.DRIFT_TOL (a failure ends
    the records with an error row), and its largest entry is the norm.
    """
    prop = build_propagator(A, N)
    records = []
    power = prop.entries
    for j in range(1, jmax + 1):
        drift = float(np.abs(power.conj().T @ power - np.eye(N)).max())
        try:
            certify("dispersive power M^%d" % j, N, "unitarity drift", drift, experiments.DRIFT_TOL)
        except arith.CertificationError as exc:
            records.append(DispersiveRecord(N, j, None, None, error=str(exc)))
            break
        b_j = matrix_power(A, j).b
        bound = math.sqrt(abs(b_j) / N) if b_j != 0 else None
        records.append(DispersiveRecord(N, j, op_norm_1_inf(power), bound))
        if j < jmax:
            power = power @ prop.entries
    return records


SWEEP_MAP = CatMatrix(2, 3, 1, 2)
SWEEP_LAM = validate_catmap(2, 3, 1, 2).lam
SWEEP_WORKERS = 4


@dataclass(frozen=True)
class SurrogatePoint:
    N: int
    max_supnorm: float
    upper_env: float
    pair_bound_ok: bool


@dataclass(frozen=True)
class SurrogateSweep:
    points: tuple[SurrogatePoint, ...]
    elapsed: float
    workers: int


def _surrogate_point(N: int) -> SurrogatePoint:
    """Sup norm of one modulus plus the averaged-power bound on every
    eigenpair at window T = ceil(0.75 * log_lam N)."""
    # the pipeline of experiments.clustered_spectrum, keeping the propagator
    n = arith.quantum_period(SWEEP_MAP, N).n_N
    prop = build_propagator(SWEEP_MAP, N)
    report = spectral.cluster_eigenvalues(spectral.eigendecompose(prop), n)
    value = supnorm_summary(report).value

    # Powers come from repeated multiplication; row norms of the
    # averaging operator B = (1/T) sum mu^-t M^t follow from
    # ||B[i,:]||^2 = (B B*)_ii = (1/T^2) sum_{t,s} mu^{s-t} D[t,s,i]
    # with D[t,s,i] = sum_j M^t[i,j] conj(M^s[i,j]).
    T = math.ceil(0.75 * math.log(N, SWEEP_LAM))
    matrix = prop.entries
    powers = np.empty((T, N, N), dtype=np.complex128)
    acc = np.eye(N, dtype=np.complex128)
    for t in range(T):
        powers[t] = acc
        if t + 1 < T:
            acc = matrix @ acc
    diag_products = np.einsum("tij,sij->tsi", powers, powers.conj())
    mu = report.eigenvalues
    steps = np.arange(T)
    weights = mu[:, None] ** (steps[None, None, :] - steps[None, :, None]).reshape(
        1, T * T
    )
    row_sq = (weights @ diag_products.reshape(T * T, N)).real / (T * T)
    row_bounds = np.sqrt(row_sq.max(axis=1))
    sup = np.abs(report.eigenvectors).max(axis=0)
    pair_ok = bool((sup <= row_bounds + 1e-8).all())

    # spot cross-check against a materialized averaging operator
    for i in (0, N // 2, N - 1):
        B = np.tensordot(mu[i] ** (-steps), powers, axes=1) / T
        direct = float(np.linalg.norm(B, axis=1).max())
        pair_ok = pair_ok and abs(direct - row_bounds[i]) < 1e-10

    return SurrogatePoint(
        N=N,
        max_supnorm=value,
        upper_env=math.log(N, SWEEP_LAM) ** -0.5,
        pair_bound_ok=pair_ok,
    )


@pytest.fixture(scope="session")
def upper_surrogate_sweep() -> SurrogateSweep:
    values = list(range(51, 602, 2))
    start = time.monotonic()
    points = tuple(process_map(_surrogate_point, values, SWEEP_WORKERS))
    return SurrogateSweep(
        points=points, elapsed=time.monotonic() - start, workers=SWEEP_WORKERS
    )


def _cli_module(*argv: str, **env: str) -> dict:
    """subprocess arguments for `python -m catlab.cli *argv` in a fresh
    interpreter that imports this catlab, with env added to the
    environment."""
    src = str(Path(catlab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {
        "args": [sys.executable, "-m", "catlab.cli", *argv],
        "env": {**os.environ, "PYTHONPATH": path, **env},
    }


@pytest.fixture
def cli_module_args():
    """_cli_module, for tests that start the process themselves."""
    return _cli_module


@pytest.fixture
def run_cli_module():
    """run(*argv, **env) runs `python -m catlab.cli *argv` (see
    _cli_module) and returns the CompletedProcess (text output)."""

    def run(*argv: str, **env: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            **_cli_module(*argv, **env), capture_output=True, text=True, timeout=300
        )

    return run


@pytest.fixture
def off_by_one_period(monkeypatch):
    """arith.quantum_period reports n_N + 1, so the closed-form short
    periods t_k no longer match it."""
    real = arith.quantum_period

    def off_by_one(A, N):
        record = real(A, N)
        return dataclasses.replace(record, n_N=record.n_N + 1)

    monkeypatch.setattr(arith, "quantum_period", off_by_one)


@pytest.fixture
def drifted_witness(monkeypatch):
    """Scale the witness supnorm_summary hands to the profile driver by
    1.01, so its squared norm misses 1 by 2.01e-2."""

    def drifted(report):
        result = supnorm_summary(report)
        return result._replace(witness=1.01 * result.witness)

    monkeypatch.setattr(experiments, "supnorm_summary", drifted)


@pytest.fixture
def perturbed_propagator(monkeypatch):
    """experiments.matrix_free_propagator turns the apply's phase
    chi_a(N // 2) by 1e-3: column 0, the image of e_0, keeps its exact
    entries, and the intertwining defect on the unit chirp grows to about
    2e-3 * N^-1/2 * sqrt(gcd(b, N)/N), 2.3e-4 at N=15."""
    real = quantize.matrix_free_propagator

    def perturbed(A, N):
        apply = real(A, N)
        chirp = apply.chirp.copy()
        chirp[N // 2] *= np.exp(1e-3j)
        return dataclasses.replace(apply, chirp=chirp)

    monkeypatch.setattr(experiments, "matrix_free_propagator", perturbed)


@pytest.fixture
def failing_zgees(monkeypatch):
    """LAPACK's zgees answers its workspace query, then reports info 1,
    a Schur form that did not converge."""
    real = spectral._zgees()

    def failing(select, a, lwork, **kwargs):
        result = real(select, a, lwork=lwork, **kwargs)
        return result if lwork == -1 else (*result[:-1], 1)

    monkeypatch.setattr(spectral, "_zgees", lambda: failing)


# Scan workers are forked from a preloaded server, an interpreter of its
# own that imported catlab from source when it started, so a monkeypatch
# in the test process does not reach them. These replacements for
# experiments._scan_single are module level, so a worker imports them and
# patches a stage in its own process before it runs the real one.
_real_scan_single = experiments._scan_single


def _scan_single_strict_unitarity(A, blank):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quantize, "UNITARITY_TOL", 1e-30)
        return _real_scan_single(A, blank)


def _broken_stage(*args, **kwargs):
    raise TypeError("bug in a stage")


def _scan_single_broken_stage(A, blank):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "build_propagator", _broken_stage)
        return _real_scan_single(A, blank)


@pytest.fixture
def strict_unitarity_in_workers(monkeypatch):
    """Scan workers certify propagators against a unitarity bound of
    1e-30 * sqrt(N), which none meets."""
    monkeypatch.setattr(experiments, "_scan_single", _scan_single_strict_unitarity)


@pytest.fixture
def broken_stage_in_workers(monkeypatch):
    """Scan workers build propagators with a stage that raises TypeError."""
    monkeypatch.setattr(experiments, "_scan_single", _scan_single_broken_stage)
