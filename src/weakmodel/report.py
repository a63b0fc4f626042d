"""The report contract: 12 significant digits, bounds rounded up, atomic
writes; and the one reader of input CSVs, `read_csv_columns`.

Every JSON file the package writes goes through `write_json_atomic`, so
repeated runs are byte-identical and a reader never sees a half-written
file.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from decimal import ROUND_CEILING, Decimal

import numpy as np


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


def read_csv_columns(path, names, error):
    """The columns `names` of a CSV file, one row per data line, as floats.

    Each column is found by its header name, a repeated name's last column;
    other columns and blank lines are ignored.  A header without one of the
    names, and a missing or non-finite cell, are refused with the exception
    class `error`, naming the file and, for a cell, its line and column.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or set(names) - set(header):
            raise error(f"{path}: expected CSV header {','.join(names)}, got {header}")
        place = {name: i for i, name in enumerate(header)}
        cols = [place[name] for name in names]
        for row in reader:
            if not row:
                continue
            try:
                values = [float(row[i]) for i in cols]
            except (IndexError, ValueError):
                values = [math.nan]
            if not math.isfinite(sum(values)):   # or finite cells whose sum overflows
                for i, name in zip(cols, names):
                    text = row[i] if i < len(row) else ""
                    try:
                        bad = not math.isfinite(float(text))
                    except ValueError:
                        bad = True
                    if bad:
                        what = f"{text!r}, not a finite number" if text else "missing"
                        raise error(f"{path}, line {reader.line_num}: {name} is {what}")
            rows.append(values)
    return np.array(rows).reshape(len(rows), len(names))
