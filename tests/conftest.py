"""Shared heavy artifacts: the upper-bound surrogate sweep is computed
once per session and consumed by both the module-invariant test and the
acceptance criterion. Also a runner for `python -m catlab.cli` in a fresh
interpreter."""

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
from catlab import experiments
from catlab.arith import CatMatrix, validate_catmap
from catlab.experiments import clustered_spectrum, process_map
from catlab.spectral import supnorm_summary

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
    _, report = clustered_spectrum(SWEEP_MAP, N)
    value = supnorm_summary(report).value

    # Powers come from repeated multiplication; row norms of the
    # averaging operator B = (1/T) sum mu^-t M^t follow from
    # ||B[i,:]||^2 = (B B*)_ii = (1/T^2) sum_{t,s} mu^{s-t} D[t,s,i]
    # with D[t,s,i] = sum_j M^t[i,j] conj(M^s[i,j]).
    T = math.ceil(0.75 * math.log(N, SWEEP_LAM))
    matrix = report.matrix
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


@pytest.fixture
def run_cli_module():
    """run(*argv, **env) runs `python -m catlab.cli *argv` in a fresh
    interpreter that imports this catlab, with env added to the
    environment, and returns the CompletedProcess (text output)."""
    src = str(Path(catlab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(*argv: str, **env: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "catlab.cli", *argv],
            env={**os.environ, "PYTHONPATH": path, **env},
            capture_output=True,
            text=True,
            timeout=300,
        )

    return run


@pytest.fixture
def drifted_witness(monkeypatch):
    """Scale the witness supnorm_summary hands to the profile driver by
    1.01, so its squared norm misses 1 by 2.01e-2."""

    def drifted(report):
        result = supnorm_summary(report)
        return result._replace(witness=1.01 * result.witness)

    monkeypatch.setattr(experiments, "supnorm_summary", drifted)
