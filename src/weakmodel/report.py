"""The report contract: 12 significant digits, bounds rounded up, atomic writes.

Every JSON file the package writes goes through `write_json_atomic`, so
repeated runs are byte-identical and a reader never sees a half-written
file.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from decimal import ROUND_CEILING, Decimal


def round12(x):
    """x with every float at 12 significant digits; inf and nan as strings."""
    if isinstance(x, float):
        if math.isnan(x):
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        return float(f"{x:.12g}")
    if isinstance(x, dict):
        return {k: round12(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [round12(v) for v in x]
    return x


def round_up_3(x):
    """The least 3-significant-digit decimal >= x, as a float.

    A bound printed this way is still a bound; its digits beyond the third
    are roundoff.  inf, nan and x <= 0 are returned unchanged.
    """
    if not math.isfinite(x) or x <= 0:
        return x
    d = Decimal(repr(x))   # float(d) == x, so rounding d up keeps >= x
    return float(d.quantize(Decimal(1).scaleb(d.adjusted() - 2), ROUND_CEILING))


def write_json_atomic(obj, path):
    """Deterministic JSON: sorted keys, 12 significant digits, tmp+rename."""
    text = json.dumps(round12(obj), indent=1, sort_keys=True)
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
