"""Exact integer arithmetic for hyperbolic torus automorphisms.

Everything in this module works with arbitrary-precision integers: the
entry recurrence p_t grows like lambda^t and leaves 64-bit range around
t = 25 already for trace 4, and the modulus/order identities below are
meaningless unless they hold exactly. It also holds what every module
shares and needs no numpy for: certify and the CSV table format.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from math import gcd
from typing import IO, Iterable, Iterator, Sequence


class CertificationError(RuntimeError):
    """A certification check exceeded its bound; raised only by certify."""


def _cell(x) -> str:
    """One CSV cell: None empty, booleans true/false, floats as repr (which
    round-trips exactly), anything else with str."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    # float() first: repr of an np.float64 is "np.float64(...)"
    return repr(float(x)) if isinstance(x, float) else str(x)


def write_table(fields: Sequence[str], rows: Iterable[Iterable], fh: IO[str]) -> None:
    """The one CSV table format: a header line, then one line of _cell per row."""
    fh.write(",".join(fields) + "\n")
    for row in rows:
        fh.write(",".join(map(_cell, row)) + "\n")


def certify(stage: str, N: int, check: str, value: float, bound: float) -> None:
    """The one certification check: pass when value <= bound.

    Otherwise the CertificationError it raises reads "<stage> at N=<N>:
    <check> <value> exceeds <bound>", floats written as repr and ints as
    ints. NaN fails.
    """
    if not value <= bound:
        raise CertificationError(
            "%s at N=%d: %s %s exceeds %s" % (stage, N, check, _cell(value), _cell(bound))
        )


@dataclass(frozen=True)
class CatMatrix:
    """Integer 2x2 matrix [[a, b], [c, d]].

    A plain container: quadruples that are not valid torus maps (e.g.
    powers, residues) are still representable. Use validate_catmap for
    classification.
    """

    a: int
    b: int
    c: int
    d: int

    @property
    def trace(self) -> int:
        return self.a + self.d

    def __matmul__(self, other: "CatMatrix") -> "CatMatrix":
        return CatMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def mod(self, n: int) -> "CatMatrix":
        return CatMatrix(self.a % n, self.b % n, self.c % n, self.d % n)


IDENTITY = CatMatrix(1, 0, 0, 1)


@dataclass(frozen=True)
class AdmissibilityReport:
    """Classification of an integer quadruple as a quantizable torus map.

    is_quantizable requires determinant one, hyperbolicity (|trace| > 2)
    and the parity condition a*b, c*d both even; short_period_eligible adds even
    trace, trace > 2 and coprime off-diagonal entries, the hypotheses of
    the short-period construction. lam is the larger eigenvalue, defined
    whenever trace > 2.
    """

    a: int
    b: int
    c: int
    d: int
    is_quantizable: bool
    short_period_eligible: bool
    trace: int
    lam: float | None
    failure_reasons: tuple[str, ...]
    eligibility_failures: tuple[str, ...]

    def to_dict(self) -> dict:
        return {"lambda" if key == "lam" else key: value for key, value in asdict(self).items()}


@dataclass(frozen=True)
class PeriodRecord:
    """Order T_N of the map mod N and the quantum period n_N derived from it.

    rule names the branch of the parity rule that fired: odd_N,
    even_N_both_even or even_N_doubled.
    """

    N: int
    T_N: int
    n_N: int
    rule: str


def validate_catmap(a: int, b: int, c: int, d: int) -> AdmissibilityReport:
    """Classify four integers as a quantizable hyperbolic torus map.

    Never raises: rejection reasons are returned so callers can explain
    them. lam is populated iff trace > 2.
    """
    trace = a + d
    reasons = []
    if a * d - b * c != 1:
        reasons.append("det != 1")
    if abs(trace) <= 2:
        reasons.append("|trace| <= 2")
    if (a * b) % 2 != 0:
        reasons.append("a*b odd")
    if (c * d) % 2 != 0:
        reasons.append("c*d odd")
    is_quantizable = not reasons

    eligibility_failures = list(reasons)
    if trace <= 2:
        eligibility_failures.append("trace <= 2")
    if trace % 2 != 0:
        eligibility_failures.append("trace odd")
    if gcd(b, c) != 1:
        eligibility_failures.append("gcd(b, c) != 1")
    short_period_eligible = not eligibility_failures

    lam = None
    if trace > 2:
        lam = (trace + math.sqrt(trace * trace - 4)) / 2.0
    return AdmissibilityReport(
        a=a,
        b=b,
        c=c,
        d=d,
        is_quantizable=is_quantizable,
        short_period_eligible=short_period_eligible,
        trace=trace,
        lam=lam,
        failure_reasons=tuple(reasons),
        eligibility_failures=tuple(eligibility_failures),
    )


def require_quantizable(A: CatMatrix) -> AdmissibilityReport:
    """Return the admissibility report, raising ValueError when not quantizable."""
    report = validate_catmap(A.a, A.b, A.c, A.d)
    if not report.is_quantizable:
        raise ValueError(
            "matrix (%d,%d,%d,%d) is not quantizable: %s"
            % (A.a, A.b, A.c, A.d, ", ".join(report.failure_reasons))
        )
    return report


def require_eligible(A: CatMatrix) -> AdmissibilityReport:
    """Return the report, raising ValueError unless the short-period hypotheses hold."""
    report = validate_catmap(A.a, A.b, A.c, A.d)
    if not report.short_period_eligible:
        raise ValueError(
            "matrix (%d,%d,%d,%d) fails short-period hypotheses: %s"
            % (A.a, A.b, A.c, A.d, ", ".join(report.eligibility_failures))
        )
    return report


def p_sequence(trace: int, t: int) -> int:
    """t-th term of p_0 = 0, p_1 = 1, p_{t+1} = trace*p_t - p_{t-1}.

    Exact integers; equals (lam^t - lam^-t)/(lam - lam^-1) for the larger
    eigenvalue lam. Powers of a determinant-one matrix A with this trace
    satisfy A^t = p_t*A - p_{t-1}*I.
    """
    if trace <= 2:
        raise ValueError("trace must exceed 2, got %d" % trace)
    if t < 0:
        raise ValueError("t must be nonnegative, got %d" % t)
    prev, cur = 0, 1
    for _ in range(t):
        prev, cur = cur, trace * cur - prev
    return prev


def matrix_power(A: CatMatrix, j: int) -> CatMatrix:
    """Exact j-th power by binary exponentiation, j >= 0."""
    if j < 0:
        raise ValueError("power must be nonnegative, got %d" % j)
    result = IDENTITY
    base = A
    while j:
        if j & 1:
            result = result @ base
        j >>= 1
        if j:
            base = base @ base
    return result


def matrix_order_mod(A: CatMatrix, N: int) -> int:
    """Least t >= 1 with A^t congruent to the identity mod N.

    Sequential modular multiplication; the cap of 6*N^2 iterations guards
    against nontermination (RuntimeError) and is unreachable for valid
    input.
    """
    if N < 1:
        raise ValueError("modulus must be positive, got %d" % N)
    require_quantizable(A)
    identity = IDENTITY.mod(N)
    cap = 6 * N * N
    power = A.mod(N)
    t = 1
    while power != identity:
        power = (power @ A).mod(N)
        t += 1
        if t > cap:
            raise RuntimeError("no order found for modulus %d within %d steps" % (N, cap))
    return t


def _residue(power: CatMatrix, N: int) -> int:
    """Largest entry of power - I reduced mod N: 0 iff power is I mod N."""
    return max((power.a - 1) % N, power.b % N, power.c % N, (power.d - 1) % N)


def quantum_period(A: CatMatrix, N: int) -> PeriodRecord:
    """Quantum period n(N) of the propagator from the order T_N mod N.

    Writes A^{T_N} = I + N*B with exact integers; the period is T_N when
    N is odd, or when N is even and both off-diagonal entries of B are
    even, and 2*T_N otherwise.
    """
    T = matrix_order_mod(A, N)
    power = matrix_power(A, T)
    certify("quantum period", N, "largest residue of A^T_N - I mod N", _residue(power, N), 0)
    if N % 2 == 1:
        return PeriodRecord(N=N, T_N=T, n_N=T, rule="odd_N")
    b12 = power.b // N
    b21 = power.c // N
    if b12 % 2 == 0 and b21 % 2 == 0:
        return PeriodRecord(N=N, T_N=T, n_N=T, rule="even_N_both_even")
    return PeriodRecord(N=N, T_N=T, n_N=2 * T, rule="even_N_doubled")


# short_period_moduli re-checks moduli up to this bound with quantum_period.
_VERIFY_BELOW = 10**6


def period_modulus(A: CatMatrix, k: int) -> int:
    """Largest modulus N with A^k congruent to the identity mod N.

    Closed form from the entry recurrence: 2*p_m for k = 2m, and
    p_m + p_{m+1} for k = 2m + 1. Requires the coprime-off-diagonal,
    even-trace hypotheses. Every modulus is certified: A^k - I, computed
    in exact integers, must vanish mod N.
    """
    if k < 1:
        raise ValueError("index must be positive, got %d" % k)
    require_eligible(A)
    trace = A.trace
    m = k // 2
    if k % 2 == 0:
        modulus = 2 * p_sequence(trace, m)
    else:
        modulus = p_sequence(trace, m) + p_sequence(trace, m + 1)
    residue = _residue(matrix_power(A, k), modulus)
    certify("period modulus", modulus, "largest residue of A^%d - I mod N" % k, residue, 0)
    return modulus


def short_period_moduli(A: CatMatrix, n_max: float = math.inf) -> Iterator[tuple[int, int]]:
    """Certified pairs (N_k, t_k), k = 1, 2, ..., of odd moduli with short
    quantum period, up to N_k <= n_max.

    N_k is the odd-index modulus p_k + p_{k+1} and t_k = 2k + 1 its
    quantum period. Each pair is certified: N_k is odd, t_k <=
    2*log_lambda(N_k) + 1, and for N_k up to _VERIFY_BELOW the full
    order-plus-parity computation of quantum_period gives t_k.
    """
    lam = require_eligible(A).lam
    stage = "short-period modulus"
    for k in itertools.count(1):
        period = 2 * k + 1
        modulus = period_modulus(A, period)
        if modulus > n_max:
            return
        certify(stage, modulus, "(N + 1) mod 2", (modulus + 1) % 2, 0)
        excess = period - (2 * math.log(modulus, lam) + 1)
        certify(stage, modulus, "t_k - 2*log_lambda(N) - 1", excess, 1e-9)
        if modulus <= _VERIFY_BELOW:
            miss = abs(quantum_period(A, modulus).n_N - period)
            certify(stage, modulus, "|n_N - t_k|", miss, 0)
        yield modulus, period


def short_period_sequence(A: CatMatrix, count: int) -> list[tuple[int, int]]:
    """First `count` certified pairs (N_k, t_k) of short_period_moduli."""
    if count < 1:
        raise ValueError("count must be positive, got %d" % count)
    return list(itertools.islice(short_period_moduli(A), count))
