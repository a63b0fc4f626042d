"""Seeded job lists for the benchmark workloads.

A job is one `weakmodel` CLI command.  The seed picks every parameter from
the ranges below and sets the job order; the program only sees the CLI
arguments and, for tabulated jobs, a CSV that the benchmark writes before
timing starts.

Parameters are stratified across blocks.  With B blocks, a slot's range is
cut into B equal bins and each block draws one value anywhere in a
different bin; k equal extend slots share one draw over k * B bins.  Discrete choices come in multisets that cycle through the
choices from a seeded offset, in seeded order, so different seeds pair
them differently while each run keeps the same mix of costly cases:
classify slots take n = 2 (where the thresholds differ) in half of their
blocks and n in {3, 4, 5} in the other half; extend solves share one
multiset of M and one of --at-infinity across all their slots.  Tabulated
jobs are not in blocks: every classify_mix run has one per family.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

CONVERGENT = "Convergent"
DIVERGENT = "Divergent"
INCONCLUSIVE = "Inconclusive"

WORKLOADS = ("classify_mix", "extend_exp", "extend_poly")

# Seconds the sweep and one block of jobs take at reference speed (speed.py)
# at the parent commit.  They only size the job list from --seconds; a job
# list never depends on a timing taken during the run, so the same seed and
# seconds always give the same jobs.
SWEEP_SECONDS = 10.5
TABULATED_SECONDS = 7.0
BLOCK_SECONDS = {"classify_mix": 3.5, "extend_exp": 17.0, "extend_poly": 10.0}

PRESETS = ("cos", "band4", "single", "constant")
BAND4 = (1.0, 0.7, 0.4, 0.2, 0.1)


@dataclass
class Job:
    id: int
    command: str                 # classify, sweep, solve or verify
    args: list                   # CLI arguments without --out
    expect: dict = field(default_factory=dict)
    tabulated: dict | None = None   # closed family sampled into --warp-csv
    solve_id: int | None = None     # verify: the solve whose artifacts it audits


def truth(family: str, params: dict, n: int) -> tuple[str, str]:
    """(march, transience) verdicts from the analytic truth table.

    Exponential growth: both converge.  Power growth r^p: the criterion
    converges iff p > 1 and p(n-1) > 1, transience iff p(n-1) > 1.
    Power-log r(log r)^c: the criterion converges iff c > 1 at n = 2 and
    c > 1/2 at n >= 3; transience iff c > 1 at n = 2, always at n >= 3.
    """
    if family == "hyperbolic":
        return CONVERGENT, CONVERGENT
    if family in ("euclidean", "powergrowth"):
        p = 1.0 if family == "euclidean" else float(params["p"])
        trans = p * (n - 1) > 1.0
        march = p > 1.0 and trans
    elif family == "powerlog":
        c = float(params["c"])
        march = c > 1.0 if n == 2 else c > 0.5
        trans = c > 1.0 if n == 2 else True
    else:
        raise ValueError(f"unknown family {family!r}")
    verdict = {True: CONVERGENT, False: DIVERGENT}
    return verdict[march], verdict[trans]


def hyperbolic_value(a: float) -> float:
    """Closed-form criterion integral for Hyperbolic(a) at n = 2."""
    return math.log(math.tanh(a / 2.0)) ** 2 / 2.0


def eigenfunction_at_pole(n: int, m: int, k: int) -> float:
    """f_{m,k} at theta = 0 (n = 2) or colatitude = longitude = 0 (n = 3)."""
    if n == 2:
        if m == 0:
            return 1.0 / math.sqrt(2.0 * math.pi)
        return 1.0 / math.sqrt(math.pi) if k == 0 else 0.0
    return math.sqrt((2 * m + 1) / (4.0 * math.pi)) if k == 0 else 0.0


def boundary_at_pole(preset: str, n: int) -> float:
    """Value of a CLI boundary preset at omega = 0, from its definition."""
    if preset in ("cos", "constant"):
        return 1.0
    if preset == "band4":
        return sum(c * eigenfunction_at_pole(n, m, 0) for m, c in enumerate(BAND4))
    _, m, k = preset.split(":")
    return eigenfunction_at_pole(n, int(m), int(k))


def _family_args(family: str, params: dict) -> list:
    args = ["--family", family]
    for key in ("a", "p", "c"):
        if key in params:
            args += [f"--{key}", repr(params[key])]
    return args


class _Sampler:
    """Stratified draws for one job list of `blocks` blocks."""

    def __init__(self, rng: random.Random, blocks: int):
        self.rng = rng
        self.blocks = blocks

    def uniform(self, lo: float, hi: float, count: int | None = None) -> list:
        """`count` values (default one per block), each from its own
        1/count bin of [lo, hi), bins in seeded order."""
        count = self.blocks if count is None else count
        bins = list(range(count))
        self.rng.shuffle(bins)
        return [lo + (hi - lo) * (b + self.rng.random()) / count for b in bins]

    def balanced(self, choices, count: int | None = None) -> list:
        """`count` choices (default one per block) cycling through `choices`
        from a seeded offset, in seeded order."""
        count = self.blocks if count is None else count
        offset = self.rng.randrange(len(choices))
        pool = [choices[(offset + i) % len(choices)] for i in range(count)]
        self.rng.shuffle(pool)
        return pool

    def dimensions(self) -> list:
        """One n per block: 2 in half of the blocks, 3, 4 or 5 in the rest."""
        high = iter(self.balanced((3, 4, 5)))
        return [2 if two else next(high) for two in self.balanced((True, False))]


def _blocks(budget: float, block_seconds: float) -> int:
    return max(1, round(budget / block_seconds))


# ---------------------------------------------------------------------------
# classify_mix
# ---------------------------------------------------------------------------

def _c_threshold(n: int) -> float:
    return 1.0 if n == 2 else 0.5


# (family, parameter, range as a function of n).  Values are drawn from
# (lo, hi], so the band just above a threshold never touches it.
_CLASSIFY_SLOTS = (
    ("hyperbolic", "a", lambda n: (0.25, 3.0)),
    ("euclidean", None, None),
    ("powergrowth", "p", lambda n: (0.3, 1.0)),
    ("powergrowth", "p", lambda n: (1.0, 1.3)),              # near threshold
    ("powergrowth", "p", lambda n: (1.3, 3.0)),
    ("powerlog", "c", lambda n: (0.1, _c_threshold(n))),
    ("powerlog", "c", lambda n: (_c_threshold(n), _c_threshold(n) + 0.3)),
    ("powerlog", "c", lambda n: (_c_threshold(n) + 0.3, _c_threshold(n) + 1.5)),
)

# Tabulated jobs sample a closed family on a grid whose last node keeps phi
# finite in double precision (hyperbolic: a*r <= 120).  A tabulated job
# costs up to ten times more when its criterion converges, so the ranges of
# the two power families are split at their thresholds, and in each run one
# of them draws below its threshold and the other above.
_TABULATED_SLOTS = (
    ("hyperbolic", "a", lambda n: (0.5, 2.0), (20.0, 60.0)),
    ("powergrowth", "p", lambda n: (0.5, 1.0, 3.0), (100.0, 400.0)),
    ("powerlog", "c", lambda n: (0.2, _c_threshold(n), 2.0), (100.0, 400.0)),
    ("euclidean", None, None, (100.0, 400.0)),
)
TABULATED_NODES = 400


def _piecewise(points, u: float) -> float:
    """u in [0, 1) spread evenly over the pieces between consecutive points."""
    i, frac = divmod(u * (len(points) - 1), 1.0)
    return points[int(i)] + frac * (points[int(i) + 1] - points[int(i)])


def _classify_mix(rng: random.Random, budget: float) -> list:
    # an even number of blocks, so that each slot runs as often at n = 2 as above
    pairs = round((budget - SWEEP_SECONDS - TABULATED_SECONDS)
                  / (2 * BLOCK_SECONDS["classify_mix"]))
    s = _Sampler(rng, 2 * max(1, pairs))
    specs = []
    for family, key, bounds in _CLASSIFY_SLOTS:
        for n, u in zip(s.dimensions(), s.uniform(0.0, 1.0)):
            params = {}
            if key is not None:
                lo, hi = bounds(n)
                params[key] = round(hi - u * (hi - lo), 6)
            specs.append(("classify", family, params, n, None))
    tab = _Sampler(rng, len(_TABULATED_SLOTS))
    halves = _Sampler(rng, 2).uniform(0.0, 1.0)
    us = [rng.random(), *halves, rng.random()]
    for (family, key, points, hull), n, u, t in zip(
            _TABULATED_SLOTS, tab.dimensions(), us, tab.uniform(0.0, 1.0)):
        params = {} if key is None else {key: round(_piecewise(points(n), u), 6)}
        top = round(hull[0] + t * (hull[1] - hull[0]), 3)
        specs.append(("classify", family, params, n, top))
    specs.append(("sweep", None, {}, None, None))
    rng.shuffle(specs)

    jobs = []
    for i, (command, family, params, n, top) in enumerate(specs):
        if command == "sweep":
            jobs.append(Job(i, "sweep", [], {}))
            continue
        march, trans = truth(family, params, n)
        expect = {"family": family, "params": params, "n": n,
                  "march": march, "transience": trans}
        if top is None:
            if family == "hyperbolic" and n == 2:
                expect["value"] = hyperbolic_value(params["a"])
            jobs.append(Job(i, "classify", _family_args(family, params) + ["--n", str(n)],
                            expect))
        else:
            tab = {"family": family, "params": params, "top": top,
                   "nodes": TABULATED_NODES}
            jobs.append(Job(i, "classify", ["--n", str(n)], expect, tabulated=tab))
    return jobs


# ---------------------------------------------------------------------------
# extend_exp and extend_poly
# ---------------------------------------------------------------------------

_EXTEND_SLOTS = {
    "extend_exp": (("hyperbolic", "a", (0.5, 2.5), 2),
                   ("hyperbolic", "a", (0.5, 2.5), 3),
                   ("hyperbolic", "a", (0.5, 2.5), 2),
                   ("hyperbolic", "a", (0.5, 2.5), 3)),
    # Power-log solves at n = 3 are left out: each spends about 20 s before it
    # fails, more than a run can spend on one job.
    "extend_poly": (("powergrowth", "p", (1.2, 3.0), 2),
                    ("powergrowth", "p", (1.2, 3.0), 3),
                    ("powerlog", "c", (1.2, 3.0), 2)),
}
_EXTEND_MODES = {"extend_exp": (2, 3, 4, 5), "extend_poly": (2, 3)}


def _preset_arg(rng: random.Random, preset: str, n: int, M: int) -> str:
    if preset != "single":
        return preset
    m = rng.randint(0, M)
    mult = (1 if m == 0 else 2) if n == 2 else 2 * m + 1
    return f"single:{m}:{rng.randrange(mult)}"


def _extend(rng: random.Random, budget: float, workload: str) -> list:
    slots = _EXTEND_SLOTS[workload]
    s = _Sampler(rng, _blocks(budget, BLOCK_SECONDS[workload]))
    count = len(slots) * s.blocks
    presets = s.balanced(PRESETS, count)
    modes = s.balanced(_EXTEND_MODES[workload], count)
    # half of the extend_exp solves also print the boundary series at omega = 0
    at_inf = s.balanced((True, False) if workload == "extend_exp" else (False,), count)
    # equal slots share one stratified draw, so that a run covers their
    # range evenly even when it has one block
    draws = {slot: s.uniform(*slot[2], slots.count(slot) * s.blocks)
             for slot in dict.fromkeys(slots)}
    specs = []
    for slot in slots:
        family, key, _, n = slot
        for _ in range(s.blocks):
            v, M = draws[slot].pop(), modes.pop()
            specs.append((family, {key: round(v, 6)}, n, M,
                          _preset_arg(rng, presets.pop(), n, M), at_inf.pop()))
    rng.shuffle(specs)

    jobs = []
    for family, params, n, M, preset, inf in specs:
        base = _family_args(family, params) + ["--n", str(n), "--modes", str(M),
                                               "--preset", preset]
        expect = {"family": family, "params": params, "n": n, "M": M,
                  "preset": preset,
                  "march": truth(family, params, n)[0]}
        solve = Job(len(jobs), "solve", base + (["--at-infinity"] if inf else []),
                    dict(expect, at_infinity=inf,
                         boundary_at_pole=boundary_at_pole(preset, n)))
        jobs.append(solve)
        jobs.append(Job(len(jobs), "verify", list(base), dict(expect),
                        solve_id=solve.id))
    return jobs


def make_jobs(workload: str, seed: int, budget: float) -> list:
    """The job list of `workload` for `seed`, sized to take about `budget` s."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "classify_mix":
        return _classify_mix(rng, budget)
    if workload in _EXTEND_SLOTS:
        return _extend(rng, budget, workload)
    raise ValueError(f"unknown workload {workload!r}")


def warmup_args(workload: str) -> list:
    """An untimed job that loads every module the workload's commands use."""
    if workload == "classify_mix":
        return ["classify", "--family", "hyperbolic", "--a", "1", "--n", "2"]
    return ["solve", "--family", "hyperbolic", "--a", "1", "--n", "2",
            "--modes", "1"]
