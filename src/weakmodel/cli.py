"""Command-line interface: classify metrics, build/verify extensions, sweep.

Commands
    classify   criterion verdicts (double integral + transience) as JSON
    solve      build a harmonic extension, dump profiles/coefficients/grids
    verify     run the verification battery, JSON pass/fail report
    sweep      classify a family grid, one deterministic report

Exit codes: classify 0=Convergent 2=Divergent 3=Inconclusive 1=error;
solve 0 ok, 2 not solvable; verify 0 all pass; sweep 0 ok.
All reports use 12-significant-digit numbers and atomic writes so repeated
runs are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
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
    if cfg["tol"] <= 0:
        raise WeakModelError(f"tolerance must be positive, got {cfg['tol']}")
    if cfg["n"] < 2:
        raise WeakModelError(f"dimension must be >= 2, got {cfg['n']}")
    if cfg["modes"] < 0:
        raise WeakModelError(f"band limit M must be >= 0, got {cfg['modes']}")
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
    if preset.startswith("constant"):
        value = float(preset.split(":")[1]) if ":" in preset else 1.0
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
        _, m, k = preset.split(":")
        table = CoefficientTable(n)
        table.set(int(m), int(k), 1.0)
        return BoundaryData.from_coefficients(table)
    raise WeakModelError(f"unknown boundary preset {preset!r}")


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def cmd_classify(args) -> int:
    cfg = _load_config(args)
    w = _build_warp(cfg)
    march = _criterion.march_criterion(w, cfg["n"], tol=cfg["tol"],
                                       r_max=cfg.get("rmax"))
    trans = _criterion.transience_integral(w, cfg["n"], tol=cfg["tol"],
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

def _solve_artifacts(cfg, ext, out):
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
    w = _build_warp(cfg)
    n, M = cfg["n"], cfg["modes"]
    report = _criterion.march_criterion(w, n, tol=cfg["tol"],
                                        r_max=cfg.get("rmax"))
    if report.verdict != _criterion.CONVERGENT:
        print(f"not solvable: criterion verdict {report.verdict}",
              file=sys.stderr)
        return 2
    ext = _extension.build_extension(w, n, _boundary_data(cfg), M,
                                     tol=cfg["tol"], r_max=cfg.get("rmax"),
                                     criterion=report)
    _solve_artifacts(cfg, ext, cfg["out"])
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

_VERIFY_RMAX = 25.0     # smallest range of the raw solves when not Convergent
# ODE tolerance of the extension verify checks: the Riccati residual needs the
# solver's relative-tolerance floor of 1e-13, which every tol <= 1e-10 gives
_VERIFY_TOL = 1e-10


def _check(name, passed, detail):
    return {"name": name, "passed": bool(passed), "detail": detail}


def _skip(name, reason):
    return {"name": name, "passed": None, "skipped": True, "detail": reason}


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    w = _build_warp(cfg)
    n, M = cfg["n"], cfg["modes"]
    report = _criterion.march_criterion(w, n, tol=cfg["tol"],
                                        r_max=cfg.get("rmax"))
    convergent = report.verdict == _criterion.CONVERGENT
    checks = []

    # profiles: the extension's own when it exists, raw solves otherwise
    if convergent:
        ext = _extension.build_extension(w, n, _boundary_data(cfg), M,
                                         tol=_VERIFY_TOL, r_max=cfg.get("rmax"),
                                         criterion=report)
        profiles = ext.profiles
    else:
        r_solve = max(cfg.get("rmax") or 0.0, _VERIFY_RMAX)
        profiles = dict(enumerate(_radial.solve_modes(
            w, n, [eigen_round_sphere(n, m) for m in range(M + 1)],
            r_max=r_solve)))

    loaded = None
    if getattr(args, "artifacts", None):
        loaded = {}
        with open(os.path.join(args.artifacts, "profiles.json")) as fh:
            metas = {rec["m"]: rec for rec in json.load(fh)}
        for m in range(0, M + 1):
            path = os.path.join(args.artifacts, f"profile_m{m}.csv")
            loaded[m] = _radial.load_profile_csv(
                path, eigen_round_sphere(n, m), n, w, metadata=metas.get(m))

    # Riccati residual + inequality (m >= 1)
    traces = {m: _radial.riccati_trace(profiles[m]) for m in range(1, M + 1)}
    worst_res, ineq_ok, res_ok = 0.0, True, True
    for tr in traces.values():
        worst_res = max(worst_res, float(np.max(np.abs(tr.residual))))
        res_ok &= tr.residual_ok
        ineq_ok &= tr.inequality_ok
    checks.append(_check("riccati_residual", res_ok,
                         f"max residual {worst_res:.3g}"))
    checks.append(_check("riccati_inequality", ineq_ok,
                         "x' <= phi^(n-3) + 1e-9 pointwise"))

    # growth bound on trace grids; artifacts at their own nodes, since
    # interpolating them pierces the bound where it touches phi_m at s = 1
    bound_ok = True
    for m, tr in traces.items():
        if loaded:
            subject = loaded[m]
            inside = (subject.grid >= tr.grid[0]) & (subject.grid <= tr.grid[-1])
            ref, _ = _radial.lemma_bound_check(
                profiles[m], dataclasses.replace(tr, grid=subject.grid[inside]))
            bound_ok &= bool(np.all(subject.values[inside] <= ref * (1 + 1e-8)))
        else:
            _, okm = _radial.lemma_bound_check(profiles[m], tr)
            bound_ok &= okm
    checks.append(_check("lemma_bound", bound_ok,
                         "phi_m below the certified growth bound"))

    # monotonicity / nonnegativity
    mono = all(
        bool(np.all(np.diff((loaded or profiles)[m].values) >= -1e-12)
             and np.all((loaded or profiles)[m].values >= 0))
        for m in range(0, M + 1))
    checks.append(_check("monotone_nonnegative", mono,
                         "profiles nondecreasing and >= 0"))

    if convergent:
        quad = sphere_quadrature(n, max(M, 8))
        omega = quad.unpack()
        fb = _extension.boundary_value(ext, omega)
        eps = ext.truncation_error_bound + ext.numeric_slack * float(
            np.sum(np.abs(fb))) + 1e-9
        lo, hi = float(np.min(fb)) - eps, float(np.max(fb)) + eps
        mp_ok = True
        for r in np.linspace(0.2, min(ext.r_max, 20.0), 25):
            vals = _extension.evaluate(ext, r, omega)
            mp_ok &= bool(lo <= np.min(vals) and np.max(vals) <= hi)
        checks.append(_check("maximum_principle", mp_ok,
                             f"u within [{lo:.6g}, {hi:.6g}]"))

        # FD residual of u at interior sample points
        if n == 2:
            u_fn = lambda r, t: float(_extension.evaluate(ext, r, t))
            pts = [(1.5, 0.3), (3.0, 2.0), (6.0, 4.4)]
            res = [abs(_oracle.laplace_beltrami_residual_fn(w, 2, u_fn, r, t,
                                                            h=0.02))
                   for r, t in pts]
        else:
            u_fn = lambda r, om: float(_extension.evaluate(ext, r, om))
            pts = [(1.5, (1.2, 0.3)), (3.0, (1.8, 2.0)), (6.0, (0.9, 4.4))]
            res = [abs(_oracle.laplace_beltrami_residual_fn(w, 3, u_fn, r, om,
                                                            h=0.02))
                   for r, om in pts]
        checks.append(_check("fd_residual", max(res) < 5e-3,
                             f"max |L u| = {max(res):.3g} at h=0.02"))

        if n == 2:
            grid = _oracle.AnnulusGrid(0.5, 3.0, 96, 96)
            ths = grid.theta_nodes
            bc_in = _extension.evaluate(ext, grid.r_a, ths)
            bc_out = _extension.evaluate(ext, grid.r_b, ths)
            u_num = _oracle.solve_annulus_dirichlet(w, grid, bc_in, bc_out,
                                                    tol=1e-10)
            u_spec = np.array([_extension.evaluate(ext, r, ths)
                               for r in grid.r_nodes])
            gap = float(np.max(np.abs(u_num - u_spec)))
            checks.append(_check("annulus_cross_check", gap < 5e-3,
                                 f"interior max gap {gap:.3g}"))
        else:
            checks.append(_skip("annulus_cross_check",
                                "finite-difference annulus oracle is n=2 only"))
    else:
        for name in ("maximum_principle", "fd_residual", "annulus_cross_check"):
            checks.append(_skip(name,
                                f"criterion verdict {report.verdict}: modes are "
                                "unbounded, no normalized extension exists"))

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
        march = _criterion.march_criterion(w, n, tol=cfg["tol"])
        trans = _criterion.transience_integral(w, n, tol=cfg["tol"])
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

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="weakmodel",
        description="Dirichlet problem at infinity on rotationally "
                    "symmetric metrics")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--family", choices=["euclidean", "hyperbolic",
                                            "powergrowth", "powerlog"])
        p.add_argument("--a", type=float, help="hyperbolic rate")
        p.add_argument("--p", type=float, help="power-growth exponent")
        p.add_argument("--c", type=float, help="power-log exponent")
        p.add_argument("--warp-csv", dest="warp_csv",
                       help="tabulated warping CSV (r,phi,dphi,ddphi)")
        p.add_argument("--n", type=int, help="ambient dimension (default 2)")
        p.add_argument("--tol", type=float, help="tolerance (default 1e-8)")
        p.add_argument("--rmax", type=float, help="truncation radius")
        p.add_argument("--modes", type=int, help="band limit M (default 4)")
        p.add_argument("--out", help="output directory (default ./out)")
        p.add_argument("--config", help="JSON config file; flags override")

    p_classify = sub.add_parser("classify", help="criterion verdicts")
    common(p_classify)

    p_solve = sub.add_parser("solve", help="build a harmonic extension")
    common(p_solve)
    p_solve.add_argument("--preset", help="boundary preset: cos, constant[:v], "
                                          "band4, single:m:k (default cos)")
    p_solve.add_argument("--bc-csv", dest="bc_csv",
                         help="boundary samples CSV on the canonical grid")
    p_solve.add_argument("--coeffs", help="boundary coefficients JSON")
    p_solve.add_argument("--at-infinity", action="store_true",
                         help="also print the boundary series at theta=0")

    p_verify = sub.add_parser("verify", help="verification battery")
    common(p_verify)
    p_verify.add_argument("--preset", help="boundary preset (default cos)")
    p_verify.add_argument("--bc-csv", dest="bc_csv")
    p_verify.add_argument("--coeffs")
    p_verify.add_argument("--artifacts",
                          help="directory with solve artifacts to audit")

    p_sweep = sub.add_parser("sweep", help="classify the standard family grid")
    common(p_sweep)

    args = parser.parse_args(argv)
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
