"""Scan drivers: sup-norm sweeps, eigenfunction profiles, dispersive decay.

Each driver produces plain records with fixed CSV/JSON schemas so runs
are reproducible byte for byte. Failures of individual N are recorded as
error rows rather than aborting a sweep.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from operator import attrgetter
from typing import IO, Callable, Iterable, Sequence, TypeVar

import numpy as np

from .arith import (
    CatMatrix,
    CertificationError,
    PeriodRecord,
    certify,
    quantum_period,
    require_quantizable,
    short_period_moduli,
    write_table,
)
from .quantize import build_propagator, intertwining_defect
from .spectral import (
    SpectrumReport,
    cluster_eigenvalues,
    eigendecompose,
    supnorm_summary,
)

__all__ = [
    "ScanRecord",
    "DispersiveRecord",
    "BoundCheck",
    "BoundsReport",
    "SCAN_FIELDS",
    "DISPERSIVE_FIELDS",
    "PROFILE_FIELDS",
    "clustered_spectrum",
    "process_map",
    "scan_supnorms",
    "eigenfunction_profile",
    "dispersive_scan",
    "verify_bounds",
    "write_scan_csv",
    "read_scan_csv",
    "write_dispersive_csv",
    "write_profile_csv",
]


def _row_dict(record) -> dict:
    """JSON form of a sweep record: its fields, error only when set."""
    data = asdict(record)
    if data["error"] is None:
        del data["error"]
    return data


@dataclass(frozen=True)
class ScanRecord:
    """One row of a sup-norm sweep.

    lower_env and upper_env are the (2*log_lambda N)^-1/2 and
    (log_lambda N)^-1/2 envelopes, trivial_lb is N^-1/2. Error rows carry
    the exception text in `error` and None in the computed fields.
    """

    N: int
    n_N: int | None
    max_supnorm: float | None
    lower_env: float
    upper_env: float
    trivial_lb: float
    is_bdb: bool
    witness_index: int | None
    cluster_dim: int | None
    error: str | None = None

    def to_dict(self) -> dict:
        return _row_dict(self)


@dataclass(frozen=True)
class DispersiveRecord:
    """Norm of one propagator power against its dispersive bound.

    bound is sqrt(|b_j|/N) where b_j is the upper-right entry of the j-th
    map power; absent (None) when b_j = 0.
    """

    N: int
    j: int
    norm_1_inf: float | None
    bound: float | None
    error: str | None = None

    def to_dict(self) -> dict:
        return _row_dict(self)


# CSV columns: every field but the error text.
SCAN_FIELDS = tuple(f.name for f in fields(ScanRecord) if f.name != "error")
DISPERSIVE_FIELDS = tuple(f.name for f in fields(DispersiveRecord) if f.name != "error")
PROFILE_FIELDS = ("i", "abs_u_i")


def _envelopes(N: int, lam: float) -> tuple[float, float, float]:
    trivial = N ** -0.5
    if N < 2:
        return math.inf, math.inf, trivial
    log_lam = math.log(N, lam)
    return (2.0 * log_lam) ** -0.5, log_lam ** -0.5, trivial


def clustered_spectrum(A: CatMatrix, N: int) -> tuple[PeriodRecord, SpectrumReport]:
    """The per-N pipeline: quantum period, certified propagator, certified
    eigensystem, clusters snapped to the n_N-th roots of the certified
    scalar M^n_N (see cluster_eigenvalues).
    """
    record = quantum_period(A, N)
    prop = build_propagator(A, N)
    report = cluster_eigenvalues(eigendecompose(prop), record.n_N)
    return record, report


_T = TypeVar("_T")
_R = TypeVar("_R")

# BLAS thread counts for pool workers: one each, so jobs workers use
# jobs cores instead of oversubscribing them.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _check_blas_pin() -> None:
    """Pool initializer: refuse a worker whose BLAS did not load with one thread."""
    if any(os.environ.get(var) != "1" for var in _BLAS_THREAD_VARS):
        raise RuntimeError("this process's forkserver started without catlab's BLAS pin of 1")


def process_map(fn: Callable[[_T], _R], items: Iterable[_T], jobs: int) -> list[_R]:
    """list(map(fn, items)), on `jobs` worker processes when jobs > 1.

    Workers fork from multiprocessing's forkserver (so jobs > 1 needs
    POSIX), preloaded with catlab, numpy and the worker loop. The first
    pool of a process starts the server (about 0.25 s) while
    OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS read 1, so
    its BLAS loads with one thread, and the server keeps that environment;
    os.environ is restored afterwards. A worker loads zgees and SciPy's
    BLAS at its first Schur form (spectral._zgees, 15 ms). The preload
    replaces the process's forkserver preload list. Workers of a server
    started earlier without the pin fail their initializer, and the pool
    raises BrokenProcessPool. fn and the items must pickle (a module-level
    function or a partial of one). Results come back in item order; an
    exception raised by fn propagates. jobs == 1 runs in this process.
    """
    items = list(items)
    if jobs == 1 or len(items) <= 1:
        return list(map(fn, items))
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    saved = {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}
    context = multiprocessing.get_context("forkserver")
    context.set_forkserver_preload(["catlab.experiments", "concurrent.futures.process"])
    with ProcessPoolExecutor(max_workers=min(jobs, len(items)), mp_context=context,
                             initializer=_check_blas_pin) as pool:
        try:
            os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
            # map submits every item at once: it starts the server and every worker
            results = pool.map(fn, items)
        finally:
            for var, value in saved.items():
                if value is None:
                    os.environ.pop(var, None)
                else:
                    os.environ[var] = value
        return list(results)


# Sweeps record failed certification checks and domain rejections
# (ValueError, which covers LinAlgError) as error rows; bugs propagate.
_ROW_ERRORS = (ValueError, CertificationError)
# Certification bound in dispersive_scan on the squared norm drift
# |||M^j e_0||^2 - 1| of each evolved column, and on the intertwining
# defect of the propagator that makes one column stand for all of M^j.
DRIFT_TOL = 1e-7


def _scan_single(A: CatMatrix, blank: ScanRecord) -> ScanRecord:
    try:
        record, report = clustered_spectrum(A, blank.N)
        result = supnorm_summary(report)
    except _ROW_ERRORS as exc:
        return replace(blank, error=str(exc))
    return replace(
        blank,
        n_N=record.n_N,
        max_supnorm=result.value,
        witness_index=result.witness_index,
        cluster_dim=result.cluster_dim,
    )


def scan_supnorms(A: CatMatrix, n_min: int, n_max: int, jobs: int = 1) -> list[ScanRecord]:
    """Sup-norm sweep over the odd N in [n_min, n_max].

    One record per N, ordered by N; domain and certification failures
    of one N become error rows. is_bdb marks the short-period moduli
    N_k, and is false on every row for a map outside the short-period
    hypotheses. jobs > 1 distributes the per-N work over
    that many worker processes with one BLAS thread each (process_map)
    and keeps N order. The records are independent of jobs when BLAS
    runs one thread in this process too. With a multi-threaded BLAS,
    jobs 1 can differ in the last bits, and so at exact ties: over
    3..301 for the map (2,3,1,2) on two BLAS threads, cluster_dim at
    N = 65, 165, 195 and 219 and witness_index at 40 N.
    """
    report = require_quantizable(A)
    if A.b == 0:
        raise ValueError("sup-norm scan requires b != 0")
    if report.lam is None:
        raise ValueError("envelope bounds require trace > 2")
    if n_min > n_max:
        raise ValueError("empty range [%d, %d]" % (n_min, n_max))
    if n_min < 1:
        raise ValueError("range must start at 1 or above")
    if jobs < 1:
        raise ValueError("jobs must be positive")
    lam = report.lam
    values = range(n_min | 1, n_max + 1, 2)  # n_min | 1 is the least odd N >= n_min
    bdb = dict(short_period_moduli(A, n_max)) if report.short_period_eligible else {}

    blanks = [
        ScanRecord(N, None, None, *_envelopes(N, lam), N in bdb, None, None)
        for N in values
    ]
    return process_map(partial(_scan_single, A), blanks, jobs)


def eigenfunction_profile(A: CatMatrix, N: int) -> np.ndarray:
    """Coordinate moduli |u_i| of a maximal-sup-norm witness eigenfunction.

    Raises CertificationError when the witness's squared l2 norm is off
    1 by more than 1e-10.
    """
    _, report = clustered_spectrum(A, N)
    result = supnorm_summary(report)
    profile = np.abs(result.witness)
    drift = abs(float(np.sum(profile**2)) - 1.0)
    certify("eigenfunction profile", N, "witness normalization drift", drift, 1e-10)
    return profile


def _dispersive_bound(b: int, N: int) -> float:
    """sqrt(b/N) for integers b, N >= 1, inf only past float range. Where
    b/N is past it, r = isqrt(b // N) = floor(sqrt(b/N)) has over 500 bits,
    and r | 1 if inexact (round to odd) rounds to the float sqrt(b/N) does.
    """
    try:
        return math.sqrt(b / N)
    except OverflowError:
        root = math.isqrt(b // N)
    try:
        return float(root | (root * root * N != b))
    except OverflowError:
        return math.inf


def dispersive_scan(A: CatMatrix, N: int, j_max: int) -> list[DispersiveRecord]:
    """Largest entry modulus of propagator powers M^j for 1 <= j <= j_max.

    M^j intertwines translations, M^j U_v = phase * U_(A^j v) M^j, and
    e_k = U_(k,0) e_0, so every column of M^j holds the moduli of column 0
    cyclically shifted: the largest entry of M^j is the largest entry of
    x_j = M^j e_0. The column is evolved one matvec per power, x_j = M
    x_(j-1), and its squared l2 norm is checked against 1 within
    DRIFT_TOL at every power. The first power also certifies the
    intertwining the shift argument rests on: quantize.intertwining_defect
    of M within DRIFT_TOL. A failed check ends the records with an error
    row. The comparison bound sqrt(|b_j|/N) comes from the exact integer
    power A^j, a running product, keeping the two sides of the check
    independent.
    """
    require_quantizable(A)
    if j_max < 1:
        raise ValueError("j_max must be positive, got %d" % j_max)
    prop = build_propagator(A, N)
    column = prop.entries[:, 0].copy()
    power = A
    records: list[DispersiveRecord] = []
    for j in range(1, j_max + 1):
        drift = abs(float(np.vdot(column, column).real) - 1.0)
        try:
            certify("dispersive power M^%d" % j, N, "column norm drift", drift, DRIFT_TOL)
            if j == 1:
                defect = intertwining_defect(prop)
                certify("dispersive column", N, "intertwining defect", defect, DRIFT_TOL)
        except CertificationError as exc:
            records.append(DispersiveRecord(N=N, j=j, norm_1_inf=None, bound=None, error=str(exc)))
            break
        bound = _dispersive_bound(abs(power.b), N) if power.b else None
        records.append(
            DispersiveRecord(N=N, j=j, norm_1_inf=float(np.abs(column).max()), bound=bound)
        )
        if j < j_max:
            column = prop.entries @ column
            power = power @ A
    return records


@dataclass(frozen=True)
class BoundCheck:
    N: int
    value: float
    threshold: float
    ok: bool


@dataclass(frozen=True)
class BoundsReport:
    """Evaluation of the sup-norm inequality chains on scan data.

    The lower check applies the short-period lower bound
    (1-eps)*(2*log_lambda N)^-1/2 to the flagged short-period rows; the
    upper check applies ((1-eps)*log_lambda N)^-1/2 to every row. Onsets
    are the smallest N in the data beyond which a check never fails
    again (the asymptotic threshold itself is non-effective, so only the
    empirical onset is reported).
    """

    eps: float
    lower_testable: bool
    lower_onset: int | None
    upper_onset: int | None
    upper_first_half_pass: float | None
    upper_second_half_pass: float | None
    lower: tuple[BoundCheck, ...]
    upper: tuple[BoundCheck, ...]

    def to_dict(self) -> dict:
        return asdict(self)


def _onset(checks: Sequence[BoundCheck]) -> int | None:
    onset = None
    for check in checks:
        if check.ok:
            if onset is None:
                onset = check.N
        else:
            onset = None
    return onset


def verify_bounds(records: Iterable[ScanRecord], eps: float = 0.1) -> BoundsReport:
    """Evaluate both sup-norm envelope inequalities on scan records.

    Both thresholds are derived from the stored envelopes, so records
    loaded back from CSV verify identically to freshly computed ones.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1), got %r" % eps)
    rows = [r for r in records if r.error is None and r.max_supnorm is not None]
    rows.sort(key=lambda r: r.N)
    if not rows:
        raise ValueError("no usable records to verify")
    lower = []
    upper = []
    for row in rows:
        if row.is_bdb:
            threshold = (1.0 - eps) * row.lower_env
            lower.append(
                BoundCheck(
                    N=row.N,
                    value=row.max_supnorm,
                    threshold=threshold,
                    ok=row.max_supnorm >= threshold,
                )
            )
        if math.isfinite(row.upper_env):
            threshold = row.upper_env / math.sqrt(1.0 - eps)
            upper.append(
                BoundCheck(
                    N=row.N,
                    value=row.max_supnorm,
                    threshold=threshold,
                    ok=row.max_supnorm <= threshold,
                )
            )
    half = len(upper) // 2
    first = upper[:half]
    second = upper[half:]

    def _rate(checks: Sequence[BoundCheck]) -> float | None:
        if not checks:
            return None
        return sum(1 for c in checks if c.ok) / len(checks)

    return BoundsReport(
        eps=eps,
        lower=tuple(lower),
        upper=tuple(upper),
        lower_onset=_onset(lower),
        upper_onset=_onset(upper),
        lower_testable=bool(lower),
        upper_first_half_pass=_rate(first),
        upper_second_half_pass=_rate(second),
    )


def write_scan_csv(records: Iterable[ScanRecord], fh: IO[str]) -> None:
    write_table(SCAN_FIELDS, map(attrgetter(*SCAN_FIELDS), records), fh)


_CSV_BOOLS = {"true": True, "false": False}


def read_scan_csv(fh: IO[str]) -> list[ScanRecord]:
    """Parse scan CSV back into records (error rows come back as errors).

    Raises ValueError naming the line on a malformed row, including an
    is_bdb cell other than true or false.
    """
    header = fh.readline().strip()
    if header != ",".join(SCAN_FIELDS):
        raise ValueError("unexpected scan CSV header: %r" % header)
    records = []
    for lineno, line in enumerate(fh, start=2):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(SCAN_FIELDS):
            raise ValueError("malformed scan CSV row at line %d: %r" % (lineno, line))
        if cells[6] not in _CSV_BOOLS:
            raise ValueError(
                "scan CSV line %d: is_bdb must be true or false, got %r"
                % (lineno, cells[6])
            )
        blank = cells[2] == ""
        try:
            records.append(
                ScanRecord(
                    N=int(cells[0]),
                    n_N=None if cells[1] == "" else int(cells[1]),
                    max_supnorm=None if blank else float(cells[2]),
                    lower_env=float(cells[3]),
                    upper_env=float(cells[4]),
                    trivial_lb=float(cells[5]),
                    is_bdb=_CSV_BOOLS[cells[6]],
                    witness_index=None if cells[7] == "" else int(cells[7]),
                    cluster_dim=None if cells[8] == "" else int(cells[8]),
                    error="error row" if blank else None,
                )
            )
        except ValueError as exc:
            raise ValueError("malformed scan CSV row at line %d: %r" % (lineno, line)) from exc
    return records


def write_dispersive_csv(records: Iterable[DispersiveRecord], fh: IO[str]) -> None:
    write_table(DISPERSIVE_FIELDS, map(attrgetter(*DISPERSIVE_FIELDS), records), fh)


def write_profile_csv(profile: np.ndarray, fh: IO[str]) -> None:
    write_table(PROFILE_FIELDS, enumerate(profile), fh)
