"""Correctness check of one finished job.

A job *fails* when the command raised or exited 1; the run goes on.  A job
is *wrong* when what it printed or wrote contradicts the analytic truth:

* march and transience verdicts disagree with the truth table
  (Inconclusive is accepted only on tabulated jobs);
* a Hyperbolic n = 2 criterion value misses (log tanh(a/2))^2/2 by more
  than its own error bound;
* `solve --at-infinity` prints a boundary value farther from the data at
  omega = 0 than the truncation bound plus slack;
* a `verify` report does not have all_passed;
* an exit code does not match the verdict or report.

The checks read only the CLI's stdout and report files; they never call the
package, so they hold whatever the package computes.

KNOWN_DEFECTS lists the ways the package fails or is wrong today.  A job
that fails or is wrong only in one of those ways is counted under its
class; any other failure or wrong output is unexpected and makes the run
incorrect.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass

from workloads import CONVERGENT, INCONCLUSIVE, hyperbolic_value, truth

CLASSIFY_EXIT = {"Convergent": 0, "Divergent": 2, "Inconclusive": 3}
SWEEP_CASES = 27
AT_INFINITY_SLACK = 1e-9
SOLVE_FILES = ("profiles.json", "coefficients.json", "evaluation.csv",
               "summary.json")

_AT_INFINITY = re.compile(r"u\(infinity, 0\) = (\S+)")

UNEXPECTED = "unexpected"
KNOWN_DEFECTS = {
    "tail_not_tight": "solve or verify on a power or power-log metric stops "
                      "with TailNotTight: no r_max it tries reaches the tail target",
    "lemma_bound": "verify fails its lemma_bound check and no other",
    "uncertified": "classify on a power or power-log metric stops with "
                   "QuadratureFailure: near the threshold the value misses tol "
                   "at the largest r_max it tries",
    "tabulated_verdict": "classify --warp-csv finds the criterion or "
                         "transience Divergent where it converges",
}
# The two messages radial.py raises TailNotTight with, and the ones
# criterion.py raises QuadratureFailure with, as the CLI prints them.
_TAIL_NOT_TIGHT = re.compile(r"^error: (no r_max below \S+ reaches tail delta"
                             r"|tail factor delta = .* still >= .* doublings)", re.M)
_UNCERTIFIED = re.compile(r"^error: could not certify the (transience )?value within tol",
                          re.M)


@dataclass(frozen=True)
class Problem:
    kind: str      # verdict:<label>:<got>, value, exit, files, at_infinity,
                   # criterion or check:<name>
    text: str

    def __str__(self):
        return self.text


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _verdict_problems(label, report, expected, tabulated):
    got = report["verdict"]
    if got == expected or (tabulated and got == INCONCLUSIVE):
        return []
    return [Problem(f"verdict:{label}:{got}", f"{label} {got}, truth {expected}")]


def _rounding(x):
    """Most that rounding to the reports' 12 significant digits moved x."""
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - 11) if x else 0.0


def _value_problems(report, exact):
    value, bound = report["value"], report["error_bound"]
    if abs(value - exact) <= bound + _rounding(value) + _rounding(bound):
        return []
    return [Problem("value", f"value {value!r} misses exact {exact:.12g} by "
                             f"more than its bound {bound!r}")]


def check_classify(job, code, out, stdout):
    exp = job.expect
    report = _load(os.path.join(out, "classify.json"))
    tab = job.tabulated is not None
    problems = (_verdict_problems("march", report["march"], exp["march"], tab)
                + _verdict_problems("transience", report["transience"],
                                    exp["transience"], tab))
    if "value" in exp:
        problems += _value_problems(report["march"], exp["value"])
    if code != CLASSIFY_EXIT[report["march"]["verdict"]]:
        problems.append(Problem("exit", f"exit {code} for verdict "
                                        f"{report['march']['verdict']}"))
    return problems


def check_sweep(job, code, out, stdout):
    rows = _load(os.path.join(out, "sweep.json"))["cases"]
    problems = [] if len(rows) == SWEEP_CASES else [
        Problem("files", f"{len(rows)} sweep cases, expected {SWEEP_CASES}")]
    for row in rows:
        label = f"{row['family']}{row['params']} n={row['n']}"
        march, trans = truth(row["family"], row["params"], row["n"])
        problems += [Problem(p.kind, f"{label}: {p}") for p in
                     _verdict_problems("march", row["march"], march, False)
                     + _verdict_problems("transience", row["transience"],
                                         trans, False)]
        if row["family"] == "hyperbolic" and row["n"] == 2:
            problems += [Problem(p.kind, f"{label}: {p}") for p in _value_problems(
                row["march"], hyperbolic_value(row["params"]["a"]))]
    if code != 0:
        problems.append(Problem("exit", f"exit {code}"))
    return problems


def check_solve(job, code, out, stdout):
    exp = job.expect
    if exp["march"] != CONVERGENT:
        return [] if code == 2 else [Problem("exit", f"exit {code} for a non-solvable metric")]
    if code != 0:
        return [Problem("exit", f"exit {code} for a solvable metric")]
    names = set(os.listdir(out))
    missing = [f for f in SOLVE_FILES if f not in names]
    missing += [f"profile_m{m}.csv" for m in range(exp["M"] + 1)
                if f"profile_m{m}.csv" not in names]
    problems = [Problem("files", f"missing {', '.join(missing)}")] if missing else []
    if exp["at_infinity"]:
        found = _AT_INFINITY.search(stdout)
        if found is None:
            return problems + [Problem("at_infinity", "no u(infinity, 0) line")]
        value = float(found.group(1))
        bound = _load(os.path.join(out, "summary.json"))["truncation_error_bound"]
        gap = abs(value - exp["boundary_at_pole"])
        if gap > bound + AT_INFINITY_SLACK:
            problems.append(Problem(
                "at_infinity", f"u(infinity, 0) = {value!r} is {gap:.3g} from the "
                               f"data, above the truncation bound {bound:.3g}"))
    return problems


def check_verify(job, code, out, stdout):
    report = _load(os.path.join(out, "verify.json"))
    problems = []
    if report["criterion"] != job.expect["march"]:
        problems.append(Problem("criterion", f"criterion {report['criterion']}, "
                                             f"truth {job.expect['march']}"))
    if not report["all_passed"]:
        failed = [c["name"] for c in report["checks"] if c["passed"] is False]
        problems += [Problem(f"check:{name}", f"check {name} failed") for name in failed]
        if not failed:
            problems.append(Problem("check:", "all_passed false, no check failed"))
    if code != (0 if report["all_passed"] else 1):
        problems.append(Problem("exit", f"exit {code} with all_passed={report['all_passed']}"))
    return problems


CHECKS = {"classify": check_classify, "sweep": check_sweep,
          "solve": check_solve, "verify": check_verify}
# The report each command writes; a failed command may not have written it.
REPORTS = {"classify": "classify.json", "sweep": "sweep.json",
           "verify": "verify.json"}


def check(job, code, out, stdout) -> list:
    """Problems with a job's output; empty when it is correct.

    `code` is the exit code, or None when the command raised.  A failed job
    is checked only for the report it still wrote.
    """
    report = REPORTS.get(job.command)
    if code in (None, 1) and not (report and os.path.exists(os.path.join(out, report))):
        return []
    try:
        return CHECKS[job.command](job, code, out, stdout)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [Problem("files", f"unreadable output: {exc!r}")]


def defect(job, failed, error, problems) -> str | None:
    """None for a clean job, else the KNOWN_DEFECTS class that explains every
    way the job failed or was wrong, or UNEXPECTED."""
    if not failed and not problems:
        return None
    kinds = {p.kind for p in problems}
    family = job.expect.get("family")
    if (job.command in ("solve", "verify") and family in ("powergrowth", "powerlog")
            and failed and not problems and _TAIL_NOT_TIGHT.search(error)):
        return "tail_not_tight"
    if job.command == "verify" and failed and kinds == {"check:lemma_bound"}:
        return "lemma_bound"
    if (job.command == "classify" and family in ("powergrowth", "powerlog")
            and failed and not problems and _UNCERTIFIED.search(error)):
        return "uncertified"
    if (job.command == "classify" and job.tabulated is not None and not failed
            and kinds <= {"verdict:march:Divergent", "verdict:transience:Divergent"}):
        return "tabulated_verdict"
    return UNEXPECTED
