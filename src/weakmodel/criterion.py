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
produce the value and its error bound.  The psi tails are closed forms,
except the power-log double tail at n >= 3: there the inner integral is
closed form (an incomplete beta) and one certified 1-D quadrature does the
outer one.  The incomplete beta is one continued fraction, used on both
sides of the Beta mean through I_y(p,q) = 1 - I_{1-y}(q,p), so the module
needs numpy alone.

All integrands are powers of phi and are evaluated in log space so that
large n or fast exponential growth cannot overflow or underflow the
bookkeeping.  `_log_power` builds every one of them, in t or in log t, and
`_log_integral` integrates phi^{1-n} or the triangle phi^{1-n}(tau)
int^tau phi^{n-3} for the finite part and for the one refined tail routine,
which works in t for exponential growth and in log t otherwise.
"""

from __future__ import annotations

import math
import numbers
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
_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)


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


def _bracket(log_main, log_err, rem_lo, rem_hi):
    """Log bracket for a quadrature (value, error) plus a remainder bracket."""
    lo = logsumexp([log_main - math.log1p(math.exp(log_err - log_main)), rem_lo])
    return float(lo), float(logsumexp([log_main, log_err, rem_hi]))


def _log_beta(p, q):
    """log B(p,q), with Stirling's main terms of lgamma(p) + lgamma(q) -
    lgamma(p+q) combined by hand: the three lgammas themselves cancel to a
    few 1e-12 once p + q reaches a few hundred."""
    def rest(x):   # lgamma(x) less its main terms; from 16 on, the series
        if x < 16.0:
            return math.lgamma(x) - (x - 0.5) * math.log(x) + x - _HALF_LOG_2PI
        z = 1.0 / (x * x)
        return (1 / 12 - z * (1 / 360 - z * (1 / 1260 - z * (1 / 1680 - z / 1188)))) / x
    s = p + q
    return (_HALF_LOG_2PI + (p - 0.5) * math.log(p / s) + (q - 0.5) * math.log(q / s)
            - 0.5 * math.log(s) + rest(p) + rest(q) - rest(s))


def _log_cf(p, q, x):
    """log h, the incomplete beta continued fraction (modified Lentz), with
    I_x(p,q) = x^p (1-x)^q h / (p B(p,q)), for 0 <= x <= (p+1)/(p+q+2)."""
    d = 1.0 / (1.0 - (p + q) * x / (p + 1))
    c = np.ones_like(x)
    log_h = np.log(d)
    for m in range(1, 1000):
        for aa in (m * (q - m) * x / ((p - 1 + 2 * m) * (p + 2 * m)),
                   -(p + m) * (p + q + m) * x / ((p + 2 * m) * (p + 1 + 2 * m))):
            d = 1.0 / (1.0 + aa * d)
            c = 1.0 + aa / c
            log_h += np.log(d * c)
        if np.all(np.abs(d * c - 1.0) < 1e-15):
            return log_h
    raise QuadratureFailure(f"incomplete beta fraction for p={p:g}, q={q:g} "
                            "did not converge")


def _log_g(p, q, y):
    """log G(y), G(y) = p int_0^1 x^(p-1) (1-yx)^(q-1) dx, for 0 <= y < 1.

    G = p B(p,q) I_y(p,q) / y^p, from the one continued fraction `_log_cf`
    taken on the side of the Beta(p,q) mean where it converges, as in
    Numerical Recipes' betai.  Below the mean G = (1-y)^q h(p,q,y), with no
    I_y to underflow at large p.  Above it I_y = 1 - I_{1-y}(q,p), with the
    fraction at (q, p, 1-y) and log B(p,q) from `_log_beta`.
    """
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    cf = y < (p + 1) / (p + q + 2)
    x = y[cf]
    out[cf] = q * np.log1p(-x) + _log_cf(p, q, x)
    yb = y[~cf]
    # p B(p,q) = (p+q) B(p+1,q) and q B(p,q) = (p+q) B(p,q+1): no log p
    # cancels at small p
    log_pb = _log_beta(p + 1, q) + math.log(p + q)
    log_qb = _log_beta(p, q + 1) + math.log(p + q)
    log_rest = (p * np.log(yb) + q * np.log1p(-yb) + _log_cf(q, p, 1.0 - yb)
                - log_qb)   # log I_{1-y}(q,p)
    out[~cf] = log_pb + np.log1p(-np.exp(log_rest)) - p * np.log(yb)
    return out


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

    def decay_rate(self, double):
        """Rate at which the inner tail integrand phi^{1-n}, or with `double`
        the double tail's, decays exponentially: in t for exponential growth,
        in log t otherwise.  Power-log growth has one for the inner tail at
        n >= 3 only; its double tail is the exact psi tail."""
        n = self.n
        if self.kind == "exp":
            a = self.growth.rate
            return 2 * a if double else a * (n - 1)
        if self.kind == "power":
            p = self.growth.exponent
            return 2 * p - 2 if double else p * (n - 1) - 1.0
        return float(n - 2)

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
        """Bracket for log of the psi double tail beyond R; requires convergence.

        Closed form except for power-log at n >= 3.  There, with t = log s,
        v = log(t'/s) and t0 = log R, the tail is int_0^inf e^{-(n-2)v} J(v) dv
        with the inner integral in closed form,
        J(v) = int_t0^inf t^{c(n-3)} (t+v)^{-c(n-1)} dt
             = (t0+v)^{1-2c} G(v/(t0+v)) / (2c-1),
        with G the scaled incomplete beta of `_log_g` at (2c-1, c(n-3)+1),
        and G = 1 at n = 3.  So one certified quadrature over v in [0, V],
        V = 48/(n-2), gives the bracket.  J decreases, so the remainder is at
        most J(0) e^{-(n-2)V}/(n-2).
        """
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
        p = 2 * c - 1

        # scaled by J(0), the logs stay small enough for rtol 1e-14
        def log_ratio(v):   # log e^{-(n-2)v} J(v)/J(0)
            out = -(n - 2) * v - p * np.log1p(v / L)
            return out if n == 3 else out + _log_g(p, c * (n - 3) + 1, v / (L + v))
        V = _DECAY_UNITS / (n - 2)
        log_main, log_err, _ = adaptive_quad_log(log_ratio, 0.0, V, rtol=1e-14)
        log_j0 = -p * math.log(L) - math.log(p)
        return tuple(log_j0 + b for b in _bracket(
            log_main, log_err, -math.inf, -(n - 2) * V - math.log(n - 2)))

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
# Log-space integrals of powers of phi
# ---------------------------------------------------------------------------

def _log_power(w, q, base=None, cum=None):
    """log of the integrand phi^q dt in t, or in s = log(t/base) when `base`
    is given; with `cum`, times cum's integral from cum.lo to the node."""
    def logf(x):
        out = q * w.log_phi(x if base is None else base * np.exp(x))
        if cum is not None:
            out = out + cum.log_between(cum.lo, x)
        if base is not None:
            out = out + math.log(base) + x
        return out
    return logf


def _log_integral(w, n, a, b, rtol, base=None, cum_rtol=None):
    """(log value, log error, cum) of int_a^b phi^{1-n}, in the variable of
    `_log_power`, and cum None.  With `cum_rtol` the value is the triangle
    integral int_a^b phi^{1-n}(tau) [int_a^tau phi^{n-3}] dtau, an iterated
    order whose integrand stays representable after combining logs, and cum
    the LogCumulative of phi^{n-3} on [a, b]."""
    cum = (None if cum_rtol is None
           else LogCumulative(_log_power(w, n - 3, base), a, b, rtol=cum_rtol))
    log_val, log_err, _ = adaptive_quad_log(_log_power(w, 1 - n, base, cum),
                                            a, b, rtol=rtol)
    return log_val, log_err, cum


def _refined_log_tail(w, n, model, R, r0, double):
    """Bracket (lo, hi) for log int_R^inf phi^{1-n}, or with `double` for
    the log double tail beyond R, using exact phi.

    Exponential growth integrates in t, up to X where its decay rate has
    used _DECAY_UNITS; the others integrate in s = log(t/R), where their
    integrands decay exponentially.  The elementary brackets at X bound the
    remainder; for the double tail, the split C_R = C_R(X) + C_X gives
    C_R(X)*T_in(X) + T_out(X).
    """
    rate = model.decay_rate(double)
    if model.kind == "exp":
        X = R + _DECAY_UNITS / rate
        a, b, base = R, X, None
    else:
        S = min(_DECAY_UNITS / rate, 340.0)
        X = R * math.exp(S)
        a, b, base = 0.0, (S if double else math.log(X / R)), R
    log_main, log_err, cum = _log_integral(w, n, a, b, 1e-12, base,
                                           cum_rtol=1e-12 if double else None)
    in_lo, in_hi = model.log_inner_bracket(X, r0)
    if not double:
        return _bracket(log_main, log_err, in_lo, in_hi)
    d_lo, d_hi = model.log_double_bracket(X, r0)
    return _bracket(log_main, log_err, logsumexp([cum.log_total + in_lo, d_lo]),
                    logsumexp([cum.log_total + in_hi, d_hi]))


def _finite(w, n, R, double, rtol):
    """(value, error, cum) of the finite part over [1, R]: the triangle
    integral with the cumulative of phi^{n-3} if `double`, else
    int_1^R phi^{1-n} and cum None."""
    log_val, log_err, cum = _log_integral(
        w, n, 1.0, R, rtol, cum_rtol=rtol * 0.1 if double else None)
    return math.exp(log_val), math.exp(min(log_err, 700.0)), cum


# ---------------------------------------------------------------------------
# Main operations
# ---------------------------------------------------------------------------

def _check_args(w, n, tol, r_max):
    if not isinstance(w, WarpingFunction):
        raise TypeError(f"expected a WarpingFunction, got {type(w)!r}")
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 2:
        raise ValueError(f"dimension n must be an integer >= 2, got {n!r}")
    if (isinstance(tol, bool) or not isinstance(tol, (int, float))
            or not (tol > 0 and math.isfinite(tol))):
        raise InvalidTolerance(f"tolerance must be positive and finite, got {tol!r}")
    if r_max is not None and not math.isfinite(r_max):
        raise ValueError(f"r_max must be finite, got {r_max!r}")


def _top_radius(w):
    """The largest R the data allow: just inside a tabulated hull, else inf."""
    hull = getattr(w, "grid", None)
    return float(hull[-1]) * 0.995 if hull is not None else math.inf


def _start_radius(w, model, R):
    """R raised above the sandwich start; tabulated data stay inside the samples."""
    return max(min(R, _top_radius(w)), model.min_r0() * 1.3)


def _tail_brackets(w, n, model, R, r0, double=True):
    """Log brackets (inner, double) for the tails beyond R.

    Refined with the exact phi when it has a closed form, elementary from
    the sandwich otherwise.  Power-log phi is exactly C*psi beyond e^2, so
    its psi double tail, and at n = 2 its psi inner tail, are already the
    refined ones.  The double bracket is None unless `double`.
    """
    exact_psi = model.kind == "powerlog"
    inner = (_refined_log_tail(w, n, model, R, r0, False)
             if w.closed_form and not (exact_psi and n == 2)
             else model.log_inner_bracket(R, r0))
    if not double:
        return inner, None
    if w.closed_form and not exact_psi:
        return inner, _refined_log_tail(w, n, model, R, r0, True)
    return inner, model.log_double_bracket(R, r0)


def _certify(w, n, tol, r_max, double):
    """Classify the criterion integral (`double`) or the transience integral.

    The value is the finite part over [1, R] plus the certified tails beyond
    R: for the criterion integral the cross term C(1,R)*T_in(R) and the
    double tail T_out(R), for the transience integral T_in(R) alone.  The
    error bound adds a rounding term of 1e-14 of the value.  R doubles until
    the bound is below tol, or stops at the first R whose finite-part error
    plus rounding reach tol.  A larger R lowers neither: the finite-part
    error does not fall with R, and the rounding in the stop rule is taken on
    the value's certified lower end, which bounds the value at every R.
    On tabulated data R doubles no further than just inside the last sample.
    """
    _check_args(w, n, tol, r_max)
    growth = w.growth_class
    if isinstance(growth, UnknownGrowth):
        return _classify_unknown(w, n, tol, double=double)
    model = _TailModel(growth, n)
    R = _start_radius(w, model, float(r_max) if r_max is not None
                      else model.default_r_max())
    rtol = 1e-11 if double else 1e-12

    if model.inner_diverges() or (double and model.double_diverges()):
        F, F_err, _ = _finite(w, n, R, double, rtol)
        return CriterionReport(
            verdict=DIVERGENT, value=F, error_bound=F_err,
            tail_evidence=model.divergence_evidence(model.r0(R), double),
            r_max=R)

    budget = []
    reason = ""
    top = _top_radius(w)
    for _ in range(_MAX_R_DOUBLINGS + 1):
        r0 = model.r0(R)
        (in_lo, in_hi), dbl = _tail_brackets(w, n, model, R, r0, double)
        F, F_err, cum = _finite(w, n, R, double, rtol)
        if double:
            log_cum = cum.log_total
            cross_lo, cross_hi = math.exp(log_cum + in_lo), math.exp(log_cum + in_hi)
            tout_lo, tout_hi = math.exp(dbl[0]), math.exp(dbl[1])
        else:
            cross_lo = cross_hi = 0.0
            tout_lo, tout_hi = math.exp(in_lo), math.exp(in_hi)
        value = F + 0.5 * (cross_lo + cross_hi) + 0.5 * (tout_lo + tout_hi)
        rounding = 1e-14 * value
        err = (F_err + 0.5 * (cross_hi - cross_lo) + 0.5 * (tout_hi - tout_lo)
               + rounding)
        if err < tol:
            return CriterionReport(
                verdict=CONVERGENT, value=value, error_bound=err,
                tail_evidence=model.convergence_evidence(r0, double), r_max=R)
        budget.append(
            f"r_max={R:g}: bound {err:.3g} (finite part {F_err:.3g}, cross "
            f"term {0.5 * (cross_hi - cross_lo):.3g}, outer tail "
            f"{0.5 * (tout_hi - tout_lo):.3g}) + rounding {rounding:.3g}")
        if F_err >= tol:
            reason = " (finite-part error alone exceeds tol)"
            break
        if F_err + 1e-14 * (F + cross_lo + tout_lo) >= tol:
            reason = " (finite-part error plus rounding exceed tol)"
            break
        if R >= top:
            reason = f" (r_max reached the end of the tabulated hull at {top:g})"
            break
        R = min(2.0 * R, top)
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
    lv, _, _ = _log_integral(w, n, 1.0, R, 1e-12, cum_rtol=1e-12)
    cum = LogCumulative(_log_power(w, 1 - n), 1.0, R, rtol=1e-12)

    def log_rhs(ss):
        return (n - 3) * w.log_phi(ss) + cum.log_between(ss, R)

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
    cum = LogCumulative(_log_power(w, n - 3), 1.0, R, rtol=1e-12)
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
    vals = [_finite(w, n, R, double, 1e-8)[0] for R in radii]
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
