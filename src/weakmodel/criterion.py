"""Convergence classification for the solvability criterion integral.

The decisive quantity is the improper double integral

    I = int_1^inf phi^{n-3}(sigma) * [ int_sigma^inf phi^{1-n}(tau) dtau ] dsigma,

whose finiteness is equivalent to solvability of the Dirichlet problem at
infinity (and implies convergence of the transience integral
int_1^inf phi^{1-n}).  Verdicts are never produced by numeric quadrature
alone: the analytic growth class of phi supplies an elementary comparison
function psi with phi in [klo*psi, khi*psi] beyond a radius R0, and the
verdict comes from integrating the certified elementary bound.  Quadrature
of the exact integrand over [1, R_max] plus refined tail integrals then
produce the value and its error bound.

All integrands are powers of phi and are evaluated in log space so that
large n or fast exponential growth cannot overflow or underflow the
bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidTolerance, NotConvergent, QuadratureFailure
from .quadrature import LogCumulative, adaptive_quad_log, logsumexp
from .report import round_up_3
from .warp import (ExponentialGrowth, PowerLawGrowth, PowerLogGrowth,
                   UnknownGrowth, WarpingFunction)

CONVERGENT = "Convergent"
DIVERGENT = "Divergent"
INCONCLUSIVE = "Inconclusive"

_DECAY_UNITS = 48.0          # e^-48 ~ 1e-21: negligible truncation remainders
_MAX_R_DOUBLINGS = 3


@dataclass
class CriterionReport:
    verdict: str
    value: float
    error_bound: float
    tail_evidence: str
    r_max: float

    def to_json_dict(self):
        return {
            "verdict": self.verdict,
            "value": self.value,
            "error_bound": round_up_3(self.error_bound),
            "r_max": self.r_max,
            "tail_evidence": self.tail_evidence,
        }


@dataclass
class TailCertificate:
    """Certified tail data at radius r_max for a convergent metric.

    log_cum:    log int_1^R phi^{n-3}
    log_inner:  bracket (lo, hi) for log int_R^inf phi^{1-n}
    double:     bracket (lo, hi) for the double integral tail beyond R
    """
    r_max: float
    log_cum: float
    log_inner: tuple[float, float]
    double: tuple[float, float]


# ---------------------------------------------------------------------------
# Elementary tail models per growth class
# ---------------------------------------------------------------------------

class _TailModel:
    """Comparison data phi in [klo*psi, khi*psi] on [R0, inf)."""

    def __init__(self, growth, n):
        self.growth = growth
        self.n = n
        if isinstance(growth, ExponentialGrowth):
            self.kind = "exp"
        elif isinstance(growth, PowerLawGrowth):
            self.kind = "power"
        elif isinstance(growth, PowerLogGrowth):
            self.kind = "powerlog"
        else:
            raise NotConvergent(f"no tail model for growth {growth!r}")

    # -- geometry -----------------------------------------------------------

    def min_r0(self):
        if self.kind == "exp":
            return max(5.0, 10.0 / self.growth.rate)
        if self.kind == "powerlog":
            return 8.0  # exact elementary form holds beyond e^2
        return 20.0

    def default_r_max(self):
        if self.kind == "exp":
            return float(min(max(30.0, 60.0 / self.growth.rate), 2e7))
        return 100.0

    def r0(self, R):
        """Start of the sandwich used with truncation radius R."""
        return max(self.min_r0(), R / 3.0)

    def log_sandwich(self, r0):
        """(log klo, log khi) such that phi in [klo, khi]*psi on [r0, inf)."""
        g = self.growth
        if self.kind == "exp":
            ls = math.log(g.scale)
            return ls + math.log1p(-math.exp(-2 * g.rate * r0)), ls
        if self.kind == "powerlog":
            ls = math.log(g.scale)
            return ls, ls
        slack = abs(g.exponent - 1.0) / 2.0 * math.log1p(r0 ** -2)
        ls = math.log(g.scale)
        return ls - slack, ls + slack

    # -- convergence decisions (structural, from psi alone) ------------------

    def inner_diverges(self):
        n = self.n
        if self.kind == "exp":
            return False
        if self.kind == "power":
            return self.growth.exponent * (n - 1) <= 1.0
        # powerlog: r*(log r)^c
        if n == 2:
            return self.growth.log_exponent <= 1.0
        return False

    def double_diverges(self):
        n = self.n
        if self.kind == "exp":
            return False
        if self.kind == "power":
            p = self.growth.exponent
            return p <= 1.0 or p * (n - 1) <= 1.0
        c = self.growth.log_exponent
        if n == 2:
            return c <= 1.0
        return c <= 0.5

    def divergence_evidence(self, r0, double=True):
        """Names the elementary lower-bound integrand whose integral diverges.

        `double` selects the criterion integral; otherwise the evidence is
        for the transience integral int phi^{1-n}.
        """
        n = self.n
        log_klo, log_khi = self.log_sandwich(r0)
        if not double:
            k = math.exp((1 - n) * log_khi)
            if self.kind == "power":
                return (f"integrand >= {k:.6g}"
                        f"*t^({-self.growth.exponent * (n - 1):.6g}) for t >= "
                        f"{r0:.4g}; exponent >= -1, elementary integral diverges")
            return (f"integrand >= {k:.6g}"
                    f"/(t*(log t)^{self.growth.log_exponent:.6g}) for t >= "
                    f"{r0:.4g}; c <= 1, elementary integral diverges")
        if self.kind == "power":
            p = self.growth.exponent
            if p * (n - 1) <= 1.0:
                k = math.exp((1 - n) * log_khi)
                return (f"inner integrand phi^(1-n) >= {k:.6g}*t^({-p * (n - 1):.6g}) "
                        f"for t >= {r0:.4g}; exponent >= -1, elementary integral diverges")
            k = math.exp((n - 3) * (log_klo if n >= 3 else log_khi)
                         + (1 - n) * log_khi) / (p * (n - 1) - 1)
            expo = 1.0 - 2.0 * p
            return (f"double-tail integrand >= {k:.6g}*s^({expo:.6g}) for s >= {r0:.4g}; "
                    f"p <= 1 so the elementary integral diverges")
        # powerlog
        c = self.growth.log_exponent
        if n == 2 and c <= 1.0:
            k = math.exp(-log_khi)
            note = "; threshold case c = 1 gives log log t" if c == 1.0 else ""
            return (f"inner integrand phi^(-1) >= {k:.6g}/(t*(log t)^{c:.6g}) "
                    f"for t >= {r0:.4g}; log-exponent <= 1, elementary "
                    f"integral diverges{note}")
        k = math.exp(-2 * log_khi) / (n - 2) / 2.0
        note = "; threshold case 2c = 1 gives int ds/(s log s) = log log s" \
            if c == 0.5 else ""
        return (f"double-tail integrand >= {k:.6g}/(s*(log s)^{2 * c:.6g}) "
                f"for s >= {r0:.4g}; 2c <= 1 so the elementary integral "
                f"diverges{note}")

    def convergence_evidence(self, r0, double=True):
        n = self.n
        g = self.growth
        if not double:
            return (f"{g.describe()}: integrand <= elementary convergent tail "
                    f"beyond {r0:.4g}")
        if self.kind == "exp":
            return (f"{g.describe()}: double-tail integrand <= "
                    f"K*exp({-2 * g.rate:.6g}*s) beyond s = {r0:.4g}, geometric tail")
        if self.kind == "power":
            return (f"{g.describe()}: double-tail integrand <= K*s^({1 - 2 * g.exponent:.6g}) "
                    f"beyond s = {r0:.4g}, exponent < -1")
        c = g.log_exponent
        if n == 2:
            return (f"{g.describe()}: double-tail integrand <= "
                    f"K*(log s)^({1 - 2 * c:.6g})/s beyond s = {r0:.4g}, c > 1")
        return (f"{g.describe()}: double-tail integrand <= "
                f"K*(log s)^({-2 * c:.6g})/s beyond s = {r0:.4g}, 2c > 1")

    # -- elementary psi tails (log brackets) ---------------------------------

    def log_psi_inner(self, R):
        """Bracket for log int_R^inf psi^{1-n}; requires convergence."""
        n = self.n
        if self.kind == "exp":
            a = self.growth.rate
            v = -a * (n - 1) * R - math.log(a * (n - 1))
            return v, v
        if self.kind == "power":
            p = self.growth.exponent
            v = (1 - p * (n - 1)) * math.log(R) - math.log(p * (n - 1) - 1)
            return v, v
        c = self.growth.log_exponent
        L = math.log(R)
        if n == 2:
            v = (1 - c) * math.log(L) - math.log(c - 1)
            return v, v
        beta = c * (n - 1)
        hi = (2 - n) * math.log(R) - beta * math.log(L) - math.log(n - 2)
        lo = hi - math.log1p(beta / ((n - 2) * L))
        return lo, hi

    def log_psi_double(self, R):
        """Bracket for log of the psi double tail beyond R; requires convergence."""
        n = self.n
        if self.kind == "exp":
            a = self.growth.rate
            v = -2 * a * R - math.log(2 * a * a * (n - 1))
            return v, v
        if self.kind == "power":
            p = self.growth.exponent
            v = (2 - 2 * p) * math.log(R) - math.log((2 * p - 2) * (p * (n - 1) - 1))
            return v, v
        c = self.growth.log_exponent
        L = math.log(R)
        if n == 2:
            v = (2 - 2 * c) * math.log(L) - math.log((c - 1) * (2 * c - 2))
            return v, v
        beta = c * (n - 1)
        hi = (1 - 2 * c) * math.log(L) - math.log((n - 2) * (2 * c - 1))
        ratio = beta * (2 * c - 1) / ((n - 2) * 2 * c * L)
        lo = hi + (math.log1p(-ratio) if ratio < 1 else -math.log(10.0))
        return lo, hi

    def _compose(self, q1, q2, psi_bracket, r0):
        """Bracket for kappa^q1 * kappa^q2 * psi-integral bracket."""
        log_klo, log_khi = self.log_sandwich(r0)
        lo_f = (q1 * (log_klo if q1 >= 0 else log_khi)
                + q2 * (log_klo if q2 >= 0 else log_khi))
        hi_f = (q1 * (log_khi if q1 >= 0 else log_klo)
                + q2 * (log_khi if q2 >= 0 else log_klo))
        return lo_f + psi_bracket[0], hi_f + psi_bracket[1]

    def log_inner_bracket(self, R, r0):
        return self._compose(1 - self.n, 0, self.log_psi_inner(R), r0)

    def log_double_bracket(self, R, r0):
        return self._compose(self.n - 3, 1 - self.n, self.log_psi_double(R), r0)


# ---------------------------------------------------------------------------
# Refined numeric tails using the exact warping function
# ---------------------------------------------------------------------------

def _inner_cutoff(model, R):
    n = model.n
    if model.kind == "exp":
        return R + _DECAY_UNITS / (model.growth.rate * (n - 1))
    if model.kind == "power":
        rate = model.growth.exponent * (n - 1) - 1.0
    else:
        rate = float(n - 2)
    return R * math.exp(min(_DECAY_UNITS / rate, 340.0))


def _refined_log_inner(w, n, model, R, r0, rtol=1e-12):
    """Bracket (lo, hi) for log int_R^inf phi^{1-n} using exact phi."""
    if model.kind == "powerlog" and n == 2:
        return model.log_inner_bracket(R, r0)   # closed form, exact constant
    X = _inner_cutoff(model, R)
    if model.kind == "exp":
        logf = lambda t: (1 - n) * w.log_phi(t)
        log_main, log_err, _ = adaptive_quad_log(logf, R, X, rtol=rtol)
    else:
        # integrate in s = log(t/R): integrand decays exponentially in s
        S = math.log(X / R)
        logf = lambda s: (1 - n) * w.log_phi(R * np.exp(s)) + math.log(R) + s
        log_main, log_err, _ = adaptive_quad_log(logf, 0.0, S, rtol=rtol)
    rem_lo, rem_hi = model.log_inner_bracket(X, r0)
    lo = logsumexp([log_main - math.log1p(math.exp(log_err - log_main)), rem_lo])
    hi = logsumexp([log_main, log_err, rem_hi])
    return float(lo), float(hi)


def _refined_double_exp_power(w, n, model, R, r0, rtol=1e-12):
    """Double tail beyond R via the cumulative flip, for exp/power growth."""
    if model.kind == "exp":
        X = R + _DECAY_UNITS / (2 * model.growth.rate)
        cum = LogCumulative(lambda t: (n - 3) * w.log_phi(t), R, X, rtol=rtol)

        def logf(ts):
            return (1 - n) * w.log_phi(ts) + cum.log_between(R, ts)
        log_main, log_err, _ = adaptive_quad_log(logf, R, X, rtol=rtol)
    else:
        p = model.growth.exponent
        S = min(_DECAY_UNITS / (2 * p - 2), 340.0)
        X = R * math.exp(S)
        cum = LogCumulative(
            lambda s: (n - 3) * w.log_phi(R * np.exp(s)) + math.log(R) + s,
            0.0, S, rtol=rtol)

        def logf(ss):
            return ((1 - n) * w.log_phi(R * np.exp(ss)) + cum.log_between(0.0, ss)
                    + math.log(R) + ss)
        log_main, log_err, _ = adaptive_quad_log(logf, 0.0, S, rtol=rtol)
    # remainder beyond X: split C_R = C_R(X) + C_X gives C_R(X)*T_in(X) + T_out(X)
    log_cum_RX = cum.log_total
    in_lo, in_hi = model.log_inner_bracket(X, r0)
    d_lo, d_hi = model.log_double_bracket(X, r0)
    rem_lo = logsumexp([log_cum_RX + in_lo, d_lo])
    rem_hi = logsumexp([log_cum_RX + in_hi, d_hi])
    lo = logsumexp([log_main - math.log1p(math.exp(log_err - log_main)), rem_lo])
    hi = logsumexp([log_main, log_err, rem_hi])
    return float(lo), float(hi)


def _refined_double_powerlog(model, R, rtol=1e-12):
    """Double tail beyond R for the exact tail phi = C*s*(log s)^c, n >= 3.

    In t = log sigma the tail reduces to C^-2 * int_{t0}^inf t^{c(n-3)} W(t) dt
    with W(t) = int_0^inf e^{-(n-2)v} (t+v)^{-c(n-1)} dv, which is integrated
    with exponentially convergent truncations in v and y = log t.
    """
    n = model.n
    c = model.growth.log_exponent
    beta = c * (n - 1)
    log_C = math.log(model.growth.scale)
    t0 = math.log(R)
    V = _DECAY_UNITS / (n - 2)

    def log_W(y):
        # log W(e^y); for large y, log(e^y + v) = y + log1p(v*e^-y)
        def logf(v):
            if y < 30.0:
                log_tv = np.log(math.exp(y) + v)
            else:
                log_tv = y + np.log1p(v * math.exp(-y))
            return -(n - 2) * v - beta * log_tv
        lv, _, _ = adaptive_quad_log(logf, 0.0, V, rtol=1e-12, max_panels=400)
        return lv

    y0 = math.log(t0)
    Y = y0 + min(21.0 / (2 * c - 1), 690.0)

    def log_g(ys):
        ys = np.atleast_1d(ys)
        # integrand t^{c(n-3)} W(t) dt with t = e^y
        return np.array([c * (n - 3) * y + log_W(y) + y for y in ys])

    log_main, log_err, _ = adaptive_quad_log(log_g, y0, Y, rtol=rtol,
                                             max_panels=600)
    # elementary strip beyond T = e^Y where W(t) = t^-beta/(n-2) * (1 +- eps)
    T = math.exp(Y) if Y < 700 else math.inf
    if math.isfinite(T):
        log_strip = (1 - 2 * c) * Y - math.log((2 * c - 1) * (n - 2))
        eps = beta * (V + 1.0) / T + math.exp(-(n - 2) * V)
        strip_lo = log_strip + math.log1p(-min(eps, 0.5))
        strip_hi = log_strip + math.log1p(eps)
    else:
        strip_lo = strip_hi = -math.inf
    lo = 2 * (-log_C) + logsumexp(
        [log_main - math.log1p(math.exp(log_err - log_main)), strip_lo])
    hi = 2 * (-log_C) + logsumexp([log_main, log_err, strip_hi])
    return float(lo), float(hi)


def _refined_log_double(w, n, model, R, r0, rtol=1e-12):
    if model.kind == "powerlog":
        if n == 2:
            return model.log_double_bracket(R, r0)   # exact closed form
        return _refined_double_powerlog(model, R, rtol=rtol)
    return _refined_double_exp_power(w, n, model, R, r0, rtol=rtol)


# ---------------------------------------------------------------------------
# Finite parts over [1, R]
# ---------------------------------------------------------------------------

def _finite_double(w, n, R, rtol=1e-11):
    """Triangle integral over 1 <= sigma <= tau <= R, plus log cumulative.

    Uses the iterated order int_1^R phi^{1-n}(tau) [int_1^tau phi^{n-3}] dtau
    whose integrand stays representable after combining logs.
    """
    cum = LogCumulative(lambda t: (n - 3) * w.log_phi(t), 1.0, R, rtol=rtol * 0.1)

    def logf(ts):
        return (1 - n) * w.log_phi(ts) + cum.log_between(1.0, ts)

    log_val, log_err, _ = adaptive_quad_log(logf, 1.0, R, rtol=rtol)
    return math.exp(log_val), math.exp(min(log_err, 700.0)), cum


def _finite_single(w, n, R, rtol=1e-12):
    log_val, log_err, _ = adaptive_quad_log(
        lambda t: (1 - n) * w.log_phi(t), 1.0, R, rtol=rtol)
    return math.exp(log_val), math.exp(min(log_err, 700.0))


# ---------------------------------------------------------------------------
# Main operations
# ---------------------------------------------------------------------------

def _check_args(w, n, tol):
    if not isinstance(w, WarpingFunction):
        raise TypeError(f"expected a WarpingFunction, got {type(w)!r}")
    if n < 2:
        raise ValueError(f"dimension n must be >= 2, got {n}")
    if not (isinstance(tol, (int, float)) and tol > 0 and math.isfinite(tol)):
        raise InvalidTolerance(f"tolerance must be positive and finite, got {tol!r}")


def _start_radius(w, model, R):
    """R raised above the sandwich start; tabulated data stay inside the samples."""
    hull = getattr(w, "grid", None)
    if hull is not None:
        R = min(R, float(hull[-1]) * 0.995)
    return max(R, model.min_r0() * 1.3)


def _tail_brackets(w, n, model, R, r0, double=True):
    """Log brackets (inner, double) for the tails beyond R.

    Refined with the exact phi when it has a closed form, elementary from
    the sandwich otherwise.  The double bracket is None unless `double`.
    """
    if w.closed_form:
        inner = _refined_log_inner(w, n, model, R, r0)
        dbl = _refined_log_double(w, n, model, R, r0) if double else None
    else:
        inner = model.log_inner_bracket(R, r0)
        dbl = model.log_double_bracket(R, r0) if double else None
    return inner, dbl


def _certify(w, n, tol, r_max, double):
    """Classify the criterion integral (`double`) or the transience integral.

    The value is the finite part over [1, R] plus the certified tails beyond
    R: for the criterion integral the cross term C(1,R)*T_in(R) and the
    double tail T_out(R), for the transience integral T_in(R) alone.  R
    doubles until the error bound is below tol, or stops at the first R whose
    finite-part error alone reaches tol: a larger R cannot lower that.
    """
    _check_args(w, n, tol)
    growth = w.growth_class
    if isinstance(growth, UnknownGrowth):
        return _classify_unknown(w, n, tol, double=double)
    model = _TailModel(growth, n)
    R = _start_radius(w, model, float(r_max) if r_max is not None
                      else model.default_r_max())

    if model.inner_diverges() or (double and model.double_diverges()):
        finite = _finite_double if double else _finite_single
        F, F_err = finite(w, n, R)[:2]
        return CriterionReport(
            verdict=DIVERGENT, value=F, error_bound=F_err,
            tail_evidence=model.divergence_evidence(model.r0(R), double),
            r_max=R)

    budget = []
    reason = ""
    for _ in range(_MAX_R_DOUBLINGS + 1):
        r0 = model.r0(R)
        (in_lo, in_hi), dbl = _tail_brackets(w, n, model, R, r0, double)
        if double:
            F, F_err, cum = _finite_double(w, n, R)
            log_cum = cum.log_total
            cross_lo, cross_hi = math.exp(log_cum + in_lo), math.exp(log_cum + in_hi)
            tout_lo, tout_hi = math.exp(dbl[0]), math.exp(dbl[1])
        else:
            F, F_err = _finite_single(w, n, R)
            cross_lo = cross_hi = 0.0
            tout_lo, tout_hi = math.exp(in_lo), math.exp(in_hi)
        value = F + 0.5 * (cross_lo + cross_hi) + 0.5 * (tout_lo + tout_hi)
        err = (F_err + 0.5 * (cross_hi - cross_lo) + 0.5 * (tout_hi - tout_lo)
               + 1e-14 * value)
        if err < tol:
            return CriterionReport(
                verdict=CONVERGENT, value=value, error_bound=err,
                tail_evidence=model.convergence_evidence(r0, double), r_max=R)
        budget.append(
            f"r_max={R:g}: bound {err:.3g} (finite part {F_err:.3g}, cross "
            f"term {0.5 * (cross_hi - cross_lo):.3g}, outer tail "
            f"{0.5 * (tout_hi - tout_lo):.3g})")
        if F_err >= tol:
            reason = " (finite-part error alone exceeds tol)"
            break
        R *= 2.0
    what = "value" if double else "transience value"
    raise QuadratureFailure(
        f"could not certify the {what} within tol={tol:g}{reason}; error "
        f"budget per attempt: " + "; ".join(budget))


def march_criterion(w: WarpingFunction, n: int, tol: float = 1e-8,
                    r_max: float | None = None) -> CriterionReport:
    """Classify the double criterion integral for (w, n)."""
    return _certify(w, n, tol, r_max, double=True)


def transience_integral(w: WarpingFunction, n: int, tol: float = 1e-8,
                        r_max: float | None = None) -> CriterionReport:
    """Classify int_1^inf phi^{1-n}."""
    return _certify(w, n, tol, r_max, double=False)


def fubini_check(w: WarpingFunction, n: int, R: float):
    """Both iterated orders of the finite-box integral over 1<=sigma<=tau<=R.

    Returns (lhs, rhs); the two must agree to roundoff-dominated accuracy.
    """
    if R <= 1.0:
        raise InvalidTolerance(f"fubini box needs R > 1, got {R}")
    cum_a = LogCumulative(lambda t: (n - 3) * w.log_phi(t), 1.0, R, rtol=1e-12)
    cum_b = LogCumulative(lambda t: (1 - n) * w.log_phi(t), 1.0, R, rtol=1e-12)

    def log_lhs(ts):
        return (1 - n) * w.log_phi(ts) + cum_a.log_between(1.0, ts)

    def log_rhs(ss):
        return (n - 3) * w.log_phi(ss) + cum_b.log_between(ss, R)

    lv, _, _ = adaptive_quad_log(log_lhs, 1.0, R, rtol=1e-12)
    rv, _, _ = adaptive_quad_log(log_rhs, 1.0, R, rtol=1e-12)
    return math.exp(lv), math.exp(rv)


def _convergent_model(w, n):
    """The tail model of a metric whose criterion integral converges."""
    growth = w.growth_class
    if isinstance(growth, UnknownGrowth):
        raise NotConvergent("cannot certify tails without an analytic growth class")
    model = _TailModel(growth, n)
    if model.inner_diverges() or model.double_diverges():
        raise NotConvergent("criterion integral diverges for this metric")
    return model


def inner_tail(w: WarpingFunction, n: int, R: float):
    """(R', bracket): R raised to the start of the tail sandwich, and the
    certified log bracket for int_R'^inf phi^{1-n}."""
    model = _convergent_model(w, n)
    R = _start_radius(w, model, float(R))
    inner, _ = _tail_brackets(w, n, model, R, model.r0(R), double=False)
    return R, inner


def tail_certificate(w: WarpingFunction, n: int, R: float) -> TailCertificate:
    """Certified tail brackets at R for a metric with convergent criterion."""
    model = _convergent_model(w, n)
    R = _start_radius(w, model, float(R))
    cum = LogCumulative(lambda t: (n - 3) * w.log_phi(t), 1.0, R, rtol=1e-12)
    inner, dbl = _tail_brackets(w, n, model, R, model.r0(R))
    return TailCertificate(
        r_max=R, log_cum=cum.log_total, log_inner=inner,
        double=(math.exp(dbl[0]), math.exp(dbl[1])))


# ---------------------------------------------------------------------------
# Heuristic classification for Unknown growth (tabulated data)
# ---------------------------------------------------------------------------

def _classify_unknown(w, n, tol, double):
    """Octave-ratio extrapolation of the finite part inside the data hull.

    With F(R) the finite part, increments d_k over doublings of R contract
    geometrically for convergent integrals.  Non-contracting increments
    witness divergence (a logarithmically divergent integral has constant
    octave increments).  Near-unit contraction ratios cannot be certified
    either way and yield Inconclusive.
    """
    hull = getattr(w, "grid", None)
    top = float(hull[-1]) * 0.995 if hull is not None else 400.0
    if top < 16.0:
        return CriterionReport(
            verdict=INCONCLUSIVE, value=math.nan, error_bound=math.inf,
            tail_evidence=f"data hull ends at {top:.4g} < 16; too short for "
                          "octave extrapolation", r_max=top)
    radii = [top / 4.0, top / 2.0, top]
    # extrapolation only resolves octave increments; 1e-8 relative suffices
    if double:
        vals = [_finite_double(w, n, R, rtol=1e-8)[0] for R in radii]
    else:
        vals = [_finite_single(w, n, R, rtol=1e-8)[0] for R in radii]
    d1 = vals[1] - vals[0]
    d2 = vals[2] - vals[1]
    scale = max(abs(vals[2]), 1e-300)
    if d2 <= 1e-12 * scale:
        return CriterionReport(
            verdict=CONVERGENT, value=vals[2], error_bound=max(d2, 1e-14 * scale),
            tail_evidence="finite part plateaued inside the data hull "
                          f"(last octave increment {d2:.3g})", r_max=top)
    q = d2 / d1 if d1 > 0 else math.inf
    if q >= 0.98:
        return CriterionReport(
            verdict=DIVERGENT, value=vals[2], error_bound=d2,
            tail_evidence=f"octave increments do not contract (ratio {q:.4g} "
                          ">= 0.98); consistent with a divergent integral",
            r_max=top)
    tail_est = d2 * q / (1.0 - q)
    unc = tail_est + d2 * 0.05
    if q > 0.9 or unc >= tol:
        return CriterionReport(
            verdict=INCONCLUSIVE, value=vals[2] + tail_est, error_bound=unc,
            tail_evidence=f"octave ratio {q:.4g} too close to 1 (or "
                          f"extrapolated tail {tail_est:.3g} above tolerance) "
                          "to certify either way", r_max=top)
    return CriterionReport(
        verdict=CONVERGENT, value=vals[2] + tail_est, error_bound=unc,
        tail_evidence=f"octave increments contract with ratio {q:.4g}; "
                      f"extrapolated tail {tail_est:.3g}", r_max=top)
