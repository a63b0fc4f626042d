"""The benchmark's checks classify known defects by the CLI's messages.

A reworded refusal must fail here, in the test suite: otherwise the
benchmark would count a known defect as unexpected.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from weakmodel.criterion import march_criterion
from weakmodel.errors import TailNotTight
from weakmodel.radial import suggest_rmax
from weakmodel.warp import PowerLog

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_checks(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))   # checks.py imports workloads
    spec = importlib.util.spec_from_file_location("perfbench_checks",
                                                  PERFBENCH / "checks.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)   # for its dataclasses
    spec.loader.exec_module(module)
    return module


def test_tail_not_tight_refusal_is_a_known_defect(monkeypatch):
    checks = _load_checks(monkeypatch)
    with pytest.raises(TailNotTight) as exc:
        suggest_rmax(march_criterion(PowerLog(1.0), 3, r_max=30.0), 2.0)
    assert checks._TAIL_NOT_TIGHT.search("error: " + str(exc.value))
