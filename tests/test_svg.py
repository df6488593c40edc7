"""Golden bytes of the three figure archetypes.

The records are synthetic, so no BLAS bits reach the figures: a changed
digest means the renderer changed, not the numerics.
"""

import hashlib
import io
import math

import pytest

from catlab import svg
from catlab.experiments import DispersiveRecord, ScanRecord


def _scan_row(N, value, is_bdb=False, error=None):
    lower, upper = (math.inf, math.inf) if N == 1 else ((0.9 / N) ** 0.5, (1.7 / N) ** 0.5)
    if error is not None:
        return ScanRecord(N, None, None, lower, upper, N ** -0.5, is_bdb, None, None, error)
    return ScanRecord(N, 2 * N, value, lower, upper, N ** -0.5, is_bdb, 0, 1)


# one N: the None bound at j = 3 and the inf bound at j = 5 are not drawn
DISPERSIVE = [
    DispersiveRecord(15, 1, 0.4472135954999579, 0.4472135954999579),
    DispersiveRecord(15, 2, 0.2581988897471611, 0.7745966692414834),
    DispersiveRecord(15, 3, 1.0, None),
    DispersiveRecord(15, 4, 0.2581988897471611, 1.5491933384829668),
    DispersiveRecord(15, 5, 0.1, math.inf),
]
# N=1 has infinite envelopes, N=7 is a short-period modulus, N=9 an error row
SCAN = [
    _scan_row(1, 1.0),
    _scan_row(3, 0.75),
    _scan_row(5, 0.6),
    _scan_row(7, 0.62, is_bdb=True),
    _scan_row(9, None, error="certification failed"),
    _scan_row(11, 0.41),
]
# one point: the degenerate x range and a single x tick
ONE_POINT_SCAN = [_scan_row(5, 0.6)]
PROFILE = [0.125, 0.5, 0.25, 0.0, 0.375]

# name: (renderer, records, sha256 of the UTF-8 figure)
GOLDEN = {
    "dispersive": (
        svg.render_dispersive_svg,
        DISPERSIVE,
        "c9973844984873768a08ca1eedaa186e6489ee2d302e0deb3977538563ad1133",
    ),
    "scan": (
        svg.render_scan_svg,
        SCAN,
        "da1d11b49e77f1fd624378d54284e2ad058b496ec569cbfa9a08327ab9367eae",
    ),
    "one-point-scan": (
        svg.render_scan_svg,
        ONE_POINT_SCAN,
        "1916b89d275a0ed2118445359a0dd3e96960c72703abeebdfbb4cbc6ea707e7a",
    ),
    "profile": (
        svg.render_profile_svg,
        PROFILE,
        "de5c80c864d4e78e5b508b7823a753f29b631d5ce443a7f728c9d6553935ac08",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_figure_bytes(name):
    render, records, digest = GOLDEN[name]
    fh = io.StringIO()
    render(records, fh)
    assert hashlib.sha256(fh.getvalue().encode("utf-8")).hexdigest() == digest
