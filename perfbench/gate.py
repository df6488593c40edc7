"""Correctness gate: compare output summaries with the stored references.

Integer, boolean and string fields must match exactly. Floats match to
a declared tolerance, loose enough that an eigensolver or kernel change
moving the 13th digit still passes and tight enough that any change in
the mathematics fails. Eigenvalue and cluster phases live on a circle,
so they are matched by circular distance, not by list position: a
different solver may order degenerate eigenvalues differently or put an
eigenvalue at phase 0 on the other side of the cut.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
RTOL = 1e-8  # scalar float fields: sup norms, envelopes, power norms, bounds
ATOL = 1e-12
PHASE_TOL = 1e-9  # radians: eigenvalue, cluster and global phases
VALUE_ATOL = 1e-9  # profile coordinates and matrix entries (all <= 1)


def _close(ref: float, got: float) -> bool:
    return abs(got - ref) <= ATOL + RTOL * abs(ref)


def _circular(x, y):
    d = np.mod(np.asarray(x, dtype=float) - np.asarray(y, dtype=float), TWO_PI)
    return np.minimum(d, TWO_PI - d)


def _nearest_circular(points: np.ndarray, sorted_ref: np.ndarray) -> np.ndarray:
    """Circular distance from each point to its nearest phase in sorted_ref."""
    idx = np.searchsorted(sorted_ref, points)
    n = len(sorted_ref)
    left = sorted_ref[(idx - 1) % n]
    right = sorted_ref[idx % n]
    return np.minimum(_circular(points, left), _circular(points, right))


def _phases_match(ref: list, got: list) -> bool:
    a = np.mod(np.asarray(ref, dtype=float), TWO_PI)
    b = np.mod(np.asarray(got, dtype=float), TWO_PI)
    if a.shape != b.shape:
        return False
    if a.size == 0:
        return True
    a.sort()
    b.sort()
    return bool(
        _nearest_circular(a, b).max() <= PHASE_TOL
        and _nearest_circular(b, a).max() <= PHASE_TOL
    )


def _clusters_match(ref: list, got: list) -> bool:
    """Clusters [phase, dim, supnorm] pair up by phase; dims and sup norms agree."""
    if len(ref) != len(got):
        return False
    unused = list(got)
    for phase, dim, supnorm in ref:
        for k, (g_phase, g_dim, g_supnorm) in enumerate(unused):
            if _circular(phase, g_phase) <= PHASE_TOL:
                if g_dim != dim or not _close(supnorm, g_supnorm):
                    return False
                del unused[k]
                break
        else:
            return False
    return True


def _global_phase_match(ref, got) -> bool:
    if ref is None or got is None:
        return ref is got
    return bool(_circular(ref, got) <= PHASE_TOL)


def _values_match(ref: list, got: list) -> bool:
    a = np.asarray(ref, dtype=float)
    b = np.asarray(got, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= VALUE_ATOL))


def _samples_match(ref: list, got: list) -> bool:
    if len(ref) != len(got):
        return False
    for (i, j, re, im), (gi, gj, gre, gim) in zip(ref, got):
        if (i, j) != (gi, gj) or abs(re - gre) > VALUE_ATOL or abs(im - gim) > VALUE_ATOL:
            return False
    return True


FIELD_RULES = {
    "phases": _phases_match,
    "clusters": _clusters_match,
    "global_phase": _global_phase_match,
    "sorted": _values_match,
    "samples": _samples_match,
}


def field_matches(name: str, ref, got) -> bool:
    rule = FIELD_RULES.get(name)
    if rule is not None:
        return rule(ref, got)
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return _close(ref, float(got))
    return type(ref) is type(got) and ref == got


def compare_items(reference: dict, computed: dict) -> dict[str, str]:
    """{item key: what is wrong} for every item that is missing or differs.

    Items the reference does not know count as mismatches too, so a
    call that emits extra rows fails.
    """
    problems = {}
    for key, ref_fields in reference.items():
        got_fields = computed.get(key)
        if got_fields is None:
            problems[key] = "missing"
            continue
        bad = [
            name
            for name, ref_value in ref_fields.items()
            if name not in got_fields or not field_matches(name, ref_value, got_fields[name])
        ]
        if bad:
            problems[key] = "%s differ" % ", ".join(bad)
    for key in computed.keys() - reference.keys():
        problems[key] = "not in reference"
    return problems
