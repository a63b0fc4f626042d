"""Command-line interface: classify metrics, build/verify extensions, sweep.

Commands
    classify   criterion verdicts (double integral + transience) as JSON
    solve      build a harmonic extension, dump profiles/coefficients/grids
    verify     run the verification battery, JSON pass/fail report
    sweep      classify a family grid, one deterministic report

Exit codes: classify 0=Convergent 2=Divergent 3=Inconclusive 1=error;
solve 0 ok, 2 not solvable; verify 0 all pass; sweep 0 ok; a usage error
exits 1 and --help 0.  Each command takes only the flags it reads.
The parser is built once per process, at import, so `main` may be called
many times in one process; each call only parses its argv and dispatches.
All reports use 12-significant-digit numbers and atomic writes so repeated
runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import criterion as _criterion
from . import extension as _extension
from . import oracle as _oracle
from . import radial as _radial
from .errors import WeakModelError
from .report import round_up_3, write_json_atomic
from .spectrum import (BoundaryData, CoefficientTable, eigen_round_sphere,
                       load_coefficients_json, sphere_quadrature)
from .warp import family_from_name, load_tabulated_csv


def _build_warp(cfg):
    if cfg.get("warp_csv"):
        return load_tabulated_csv(cfg["warp_csv"])
    return family_from_name(cfg["family"], a=cfg.get("a"), p=cfg.get("p"),
                            c=cfg.get("c"))


def _is_int(val):
    return isinstance(val, int) and not isinstance(val, bool)


def _is_real(val):
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _load_config(args):
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg.update(json.load(fh))
    for key in ("family", "a", "p", "c", "n", "tol", "rmax", "modes", "out",
                "preset", "bc_csv", "coeffs", "warp_csv"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    cfg.setdefault("n", 2)
    cfg.setdefault("tol", 1e-8)
    cfg.setdefault("modes", 4)
    cfg.setdefault("out", "out")
    # a JSON config can hold any type; a value of the wrong one is refused by name
    for key in ("n", "modes"):
        if not _is_int(cfg[key]):
            raise WeakModelError(f"{key} must be an integer, got {cfg[key]!r}")
    for key in ("a", "p", "c"):
        if cfg.get(key) is not None and not _is_real(cfg[key]):
            raise WeakModelError(f"{key} must be a number, got {cfg[key]!r}")
    for key in ("family", "out", "preset", "bc_csv", "coeffs", "warp_csv"):
        if cfg.get(key) is not None and not isinstance(cfg[key], str):
            raise WeakModelError(f"{key} must be a string, got {cfg[key]!r}")
    if not (_is_real(cfg["tol"]) and cfg["tol"] > 0):
        raise WeakModelError(f"tolerance must be positive, got {cfg['tol']!r}")
    if cfg["n"] < 2:
        raise WeakModelError(f"dimension must be >= 2, got {cfg['n']}")
    if cfg["modes"] < 0:
        raise WeakModelError(f"band limit M must be >= 0, got {cfg['modes']}")
    rmax = cfg.get("rmax")
    if rmax is not None and not (_is_real(rmax)
                                 and math.isfinite(rmax) and rmax > 0):
        raise WeakModelError(f"rmax must be positive and finite, got {rmax}")
    for path_key in ("bc_csv", "coeffs", "warp_csv"):
        if cfg.get(path_key) and not os.path.exists(cfg[path_key]):
            raise WeakModelError(f"file not found: {cfg[path_key]}")
    return cfg


def _boundary_data(cfg) -> BoundaryData:
    n, M = cfg["n"], cfg["modes"]
    if cfg.get("bc_csv"):
        return BoundaryData.from_csv(cfg["bc_csv"], n, M)
    if cfg.get("coeffs"):
        return BoundaryData.from_coefficients(
            load_coefficients_json(cfg["coeffs"], n))
    preset = cfg.get("preset", "cos")
    if preset.partition(":")[0] == "constant":
        try:
            value = 1.0 if preset == "constant" else float(preset.partition(":")[2])
        except ValueError:
            raise WeakModelError(f"boundary preset {preset!r} is not of the form "
                                 "constant[:v], with v a number") from None
        table = CoefficientTable(n)
        vol = 2 * math.pi if n == 2 else 4 * math.pi
        table.set(0, 0, value * math.sqrt(vol))
        return BoundaryData.from_coefficients(table)
    if preset == "cos":
        table = CoefficientTable(n)
        if n == 2:
            table.set(1, 0, math.sqrt(math.pi))          # f = cos(theta)
        else:
            table.set(1, 0, math.sqrt(4 * math.pi / 3))  # f = cos(colat)
        return BoundaryData.from_coefficients(table)
    if preset == "band4":
        table = CoefficientTable(n)
        for m, cval in enumerate((1.0, 0.7, 0.4, 0.2, 0.1)):
            table.set(m, 0, cval)
        return BoundaryData.from_coefficients(table)
    if preset.startswith("single:"):
        mk = preset.split(":")[1:]
        if len(mk) != 2 or not all(v.isdigit() for v in mk):
            raise WeakModelError(f"boundary preset {preset!r} is not of the "
                                 "form single:m:k, with integers m, k >= 0")
        table = CoefficientTable(n)
        table.set(int(mk[0]), int(mk[1]), 1.0)
        return BoundaryData.from_coefficients(table)
    raise WeakModelError(f"unknown boundary preset {preset!r}")


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def cmd_classify(args) -> int:
    cfg = _load_config(args)
    w = _build_warp(cfg)
    march, trans = _criterion.classify(w, cfg["n"], tol=cfg["tol"],
                                       r_max=cfg.get("rmax"))
    report = {
        "warp": repr(w),
        "n": cfg["n"],
        "march": march.to_json_dict(),
        "transience": trans.to_json_dict(),
    }
    write_json_atomic(report, os.path.join(cfg["out"], "classify.json"))
    print(f"march: {march.verdict} (value {march.value:.12g}); "
          f"transience: {trans.verdict}")
    return {"Convergent": 0, "Divergent": 2, "Inconclusive": 3}[march.verdict]


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _solve_artifacts(ext, out):
    os.makedirs(out, exist_ok=True)
    r_line = np.linspace(0.1, min(ext.r_max, 20.0), 40)
    for m, prof in sorted(ext.profiles.items()):
        prof.to_csv(os.path.join(out, f"profile_m{m}.csv"))
    _radial.export_metadata_json(
        [p for _, p in sorted(ext.profiles.items())],
        os.path.join(out, "profiles.json"))
    write_json_atomic(ext.coeffs.to_json_obj(),
                      os.path.join(out, "coefficients.json"))
    _extension.dump_evaluation_csv(ext, os.path.join(out, "evaluation.csv"),
                                   r_values=r_line[::4])
    write_json_atomic(_extension.summary_json(ext, r_line),
                      os.path.join(out, "summary.json"))


def cmd_solve(args) -> int:
    cfg = _load_config(args)
    n, M = cfg["n"], cfg["modes"]
    report = _criterion.march_criterion(_build_warp(cfg), n, tol=cfg["tol"],
                                        r_max=cfg.get("rmax"))
    if report.verdict != _criterion.CONVERGENT:
        print(f"not solvable: criterion verdict {report.verdict}",
              file=sys.stderr)
        return 2
    ext = _extension.build_extension(_boundary_data(cfg), M, report, tol=cfg["tol"])
    _solve_artifacts(ext, cfg["out"])
    print(f"solved: M={ext.M}, r_max={ext.r_max:g}, "
          f"truncation bound {round_up_3(ext.truncation_error_bound):.3g}")
    if args.at_infinity:
        omega = 0.0 if n == 2 else (0.0, 0.0)
        print(f"u(infinity, 0) = "
              f"{float(_extension.boundary_value(ext, omega)):.12g}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _check(name, passed, detail):
    return {"name": name, "passed": bool(passed), "detail": detail}


def _skip(name, reason):
    return {"name": name, "passed": None, "skipped": True, "detail": reason}


def _stencil_values(ext, pts, h):
    """u as a lookup table of the points the FD residual's stencils read
    at pts, with step h: (r, omega) with r in {r - h, r, r + h}, omega
    moved by +-h in each angle.  One `evaluate` call gives u at all their
    radii and angles, each value that of the call at that point alone."""
    radii = sorted({x for r, _ in pts for x in (r - h, r, r + h)})
    if ext.criterion.n == 2:
        angles = [a for _, om in pts for a in (om, om + h, om - h)]
        values = _extension.evaluate(ext, radii, np.array(angles))
    else:
        angles = [a for _, (c, lon) in pts for a in (
            (c, lon), (c + h, lon), (c - h, lon), (c, lon + h), (c, lon - h))]
        values = _extension.evaluate(ext, radii, tuple(np.array(angles).T))
    table = {(r, a): float(v) for r, row in zip(radii, values)
             for a, v in zip(angles, row)}
    return lambda r, omega: table[r, omega]


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    w = _build_warp(cfg)
    n, M = cfg["n"], cfg["modes"]
    report = _criterion.march_criterion(w, n, tol=cfg["tol"],
                                        r_max=cfg.get("rmax"))
    convergent = report.verdict == _criterion.CONVERGENT
    checks = []

    # profiles: the extension solve builds, at the same tol, when it
    # exists; raw solves to the criterion's radius otherwise
    if convergent:
        ext = _extension.build_extension(_boundary_data(cfg), M, report, tol=cfg["tol"])
        profiles = ext.profiles
    else:
        profiles = dict(enumerate(_radial.solve_modes(
            w, n, [eigen_round_sphere(n, m) for m in range(M + 1)],
            r_max=report.r_max, tol=cfg["tol"])))

    # the (grid, values) samples the bound and monotone checks read: each
    # profile_m*.csv with --artifacts, else each profile's own, the rows
    # solve writes
    artifacts = getattr(args, "artifacts", None)
    samples = {m: _radial.load_profile_csv(os.path.join(artifacts, f"profile_m{m}.csv"))
               if artifacts else (profiles[m].grid, profiles[m].values)
               for m in range(M + 1)}

    # Riccati residual + inequality (m >= 1), inside the criterion's panels
    top = min(report.r_max, 20.0)
    s_grid = np.linspace(1.0, top, 481)
    traces = [_radial.riccati_trace(profiles[m], s_grid) for m in range(1, M + 1)]
    worst_res, ineq_ok, res_ok = 0.0, True, True
    for tr in traces:
        worst_res = max(worst_res, float(np.max(np.abs(tr.residual))))
        res_ok &= tr.residual_ok
        ineq_ok &= tr.inequality_ok
    checks.append(_check("riccati_residual", res_ok,
                         f"max residual {worst_res:.3g}"))
    checks.append(_check("riccati_inequality", ineq_ok, "x' <= phi^(n-3) + 1e-9 " + (
        "max(1, phi^(n-3)) pointwise" if n >= 4 else "pointwise")))

    # growth bound at the samples' own nodes inside [1, top], since
    # interpolating them pierces the bound where it touches phi_m at r = 1
    bound_ok = True
    for m in range(1, M + 1):
        grid, values = samples[m]
        inside = (grid >= 1.0) & (grid <= top)
        bound = _radial.lemma_bound_check(profiles[m], report, grid[inside])
        bound_ok &= bool(np.all(values[inside] <= bound * (1 + 1e-8)))
    checks.append(_check("lemma_bound", bound_ok,
                         "phi_m below the certified growth bound"))

    # monotonicity / nonnegativity
    mono = True
    for _, values in samples.values():
        mono &= bool(np.all(np.diff(values) >= -1e-12) and np.all(values >= 0))
    checks.append(_check("monotone_nonnegative", mono,
                         "profiles nondecreasing and >= 0"))

    if convergent:
        quad = sphere_quadrature(n, max(M, 8))
        omega = quad.unpack()
        fb = _extension.boundary_value(ext, omega)
        eps = ext.truncation_error_bound + ext.numeric_slack * float(
            np.sum(np.abs(fb))) + 1e-9
        lo, hi = float(np.min(fb)) - eps, float(np.max(fb)) + eps
        vals = _extension.evaluate(ext, np.linspace(0.2, min(ext.r_max, 20.0), 25),
                                   omega)
        mp_ok = bool(lo <= np.min(vals) and np.max(vals) <= hi)
        checks.append(_check("maximum_principle", mp_ok,
                             f"u within [{lo:.6g}, {hi:.6g}]"))

        # FD residual of u at interior sample points
        pts = ([(1.5, 0.3), (3.0, 2.0), (6.0, 4.4)] if n == 2 else
               [(1.5, (1.2, 0.3)), (3.0, (1.8, 2.0)), (6.0, (0.9, 4.4))])
        u_fn = _stencil_values(ext, pts, h=0.02)
        res = [abs(_oracle.laplace_beltrami_residual_fn(w, n, u_fn, r, om, h=0.02))
               for r, om in pts]
        checks.append(_check("fd_residual", max(res) < 5e-3,
                             f"max |L u| = {max(res):.3g} at h=0.02"))

        if n == 2:
            grid = _oracle.AnnulusGrid(0.5, 3.0, 96, 96)
            ths = grid.theta_nodes
            bc_in, bc_out = _extension.evaluate(ext, [grid.r_a, grid.r_b], ths)
            u_num = _oracle.solve_annulus_dirichlet(w, grid, bc_in, bc_out,
                                                    tol=1e-10)
            u_spec = _extension.evaluate(ext, grid.r_nodes, ths)
            gap = float(np.max(np.abs(u_num - u_spec)))
            checks.append(_check("annulus_cross_check", gap < 5e-3,
                                 f"interior max gap {gap:.3g}"))
        else:
            checks.append(_skip("annulus_cross_check",
                                "finite-difference annulus oracle is n=2 only"))
    else:
        why = ("modes are unbounded, no normalized extension exists"
               if report.verdict == _criterion.DIVERGENT else
               "convergence is not certified, so no normalized extension is built")
        for name in ("maximum_principle", "fd_residual", "annulus_cross_check"):
            checks.append(_skip(name, f"criterion verdict {report.verdict}: {why}"))

    passed = all(c["passed"] for c in checks if c["passed"] is not None)
    out = {"warp": repr(w), "n": n, "criterion": report.verdict,
           "checks": checks, "all_passed": passed}
    write_json_atomic(out, os.path.join(cfg["out"], "verify.json"))
    for c in checks:
        mark = "skip" if c["passed"] is None else ("pass" if c["passed"] else "FAIL")
        print(f"  [{mark}] {c['name']}: {c['detail']}")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_SWEEP = (
    [("euclidean", {}, n) for n in (2, 3, 4)]
    + [("hyperbolic", {"a": a}, n) for a in (0.5, 1.0, 2.0) for n in (2, 3)]
    + [("powergrowth", {"p": p}, n) for p in (0.8, 1.0, 1.5, 2.0) for n in (2, 3)]
    + [("powerlog", {"c": c}, n) for c in (0.3, 0.4, 0.6, 0.8, 1.2) for n in (2, 3)]
)


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    rows = []
    for family, params, n in _SWEEP:
        w = family_from_name(family, **params)
        march, trans = _criterion.classify(w, n, tol=cfg["tol"])
        rows.append({
            "family": family, "params": params, "n": n,
            "march": march.to_json_dict(),
            "transience": trans.to_json_dict(),
        })
    out = {"tol": cfg["tol"], "cases": rows}
    write_json_atomic(out, os.path.join(cfg["out"], "sweep.json"))
    n_conv = sum(1 for r in rows if r["march"]["verdict"] == "Convergent")
    print(f"swept {len(rows)} cases: {n_conv} convergent")
    return 0


# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="weakmodel",
        description="Dirichlet problem at infinity on rotationally "
                    "symmetric metrics")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, metric=True, boundary=False):
        if metric:
            p.add_argument("--family", choices=["euclidean", "hyperbolic",
                                                "powergrowth", "powerlog"])
            p.add_argument("--a", type=float, help="hyperbolic rate")
            p.add_argument("--p", type=float, help="power-growth exponent")
            p.add_argument("--c", type=float, help="power-log exponent")
            p.add_argument("--warp-csv", dest="warp_csv",
                           help="tabulated warping CSV (columns r,phi,dphi)")
            p.add_argument("--n", type=int, help="ambient dimension (default 2)")
            p.add_argument("--rmax", type=float, help="truncation radius")
        p.add_argument("--tol", type=float, help="tolerance (default 1e-8)")
        p.add_argument("--out", help="output directory (default ./out)")
        p.add_argument("--config", help="JSON config file; flags override")
        if boundary:
            p.add_argument("--modes", type=int, help="band limit M (default 4)")
            p.add_argument("--preset", help="boundary preset: cos, constant[:v], "
                                            "band4, single:m:k (default cos)")
            p.add_argument("--bc-csv", dest="bc_csv",
                           help="boundary samples CSV on the canonical grid")
            p.add_argument("--coeffs", help="boundary coefficients JSON")

    common(sub.add_parser("classify", help="criterion verdicts"))

    p_solve = sub.add_parser("solve", help="build a harmonic extension")
    common(p_solve, boundary=True)
    p_solve.add_argument("--at-infinity", action="store_true",
                         help="also print the boundary series at theta=0")

    p_verify = sub.add_parser("verify", help="verification battery")
    common(p_verify, boundary=True)
    p_verify.add_argument("--artifacts",
                          help="directory with solve artifacts to audit")

    common(sub.add_parser("sweep", help="classify the standard family grid"),
           metric=False)
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:   # usage errors exit 1; 2 is classify's Divergent
        return 1 if exc.code else 0
    try:
        if args.command == "classify":
            return cmd_classify(args)
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "sweep":
            return cmd_sweep(args)
    except (WeakModelError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
