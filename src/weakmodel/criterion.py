"""Convergence classification for the solvability criterion integral.

The decisive quantity is the improper double integral

    I = int_1^inf phi^{n-3}(sigma) * [ int_sigma^inf phi^{1-n}(tau) dtau ] dsigma,

whose finiteness is equivalent to solvability of the Dirichlet problem at
infinity (and implies convergence of the transience integral
int_1^inf phi^{1-n}).  Verdicts are never produced by numeric quadrature
alone: the analytic growth class of phi supplies an elementary comparison
function psi with phi in [klo*psi, khi*psi] beyond a radius R0, and the
verdict comes from integrating the certified elementary bound.  Quadrature
of the exact integrand over [1, R_max] plus certified tail brackets beyond
R_max then produce the value and its error bound.  A warp with no growth
class gets no verdict: Inconclusive, with the finite part as a lower bound.
The finite parts over [1, R] of both integrals, and C(1,R) = int_1^R
phi^{n-3} of the cross term, come from one pass of panel triples at every
n (`_finite`), which `classify` runs once for both reports with their
inner tail.  At n = 2 the criterion is T^2/2, T the transience integral.

Every tail bracket comes from `_TailModel` (`_tail_brackets`): exponential
growth takes the sandwich at R, `PowerGrowth` sums the binomial series of
its exact phi, every other warp with a power-law growth class, custom or
tabulated, takes the sandwich, and power-log phi is exactly C*psi beyond
e^2.  Only power-log at n >= 3 integrates there: one certified 1-D
quadrature in log(t/R) per tail, the double tail's inner integral being an
incomplete beta.  That is one continued fraction, used on both sides of the
Beta mean through I_y(p,q) = 1 - I_{1-y}(q,p), so the module needs numpy
alone.

All integrands are powers of phi, evaluated in log space so that large n
or fast exponential growth cannot overflow or underflow the bookkeeping.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (InvalidFamily, InvalidTolerance, NotConvergent, OutOfDomain,
                     QuadratureFailure)
from .quadrature import adaptive_quad_log, logsumexp
from .report import round12, round_up_3
from .warp import (ExponentialGrowth, PowerGrowth, PowerLawGrowth, PowerLogGrowth,
                   Tabulated, UnknownGrowth, WarpingFunction, with_breakpoints)

CONVERGENT = "Convergent"
DIVERGENT = "Divergent"
INCONCLUSIVE = "Inconclusive"

_N2_IDENTITY = "n = 2: criterion = T^2/2, T = int_1^inf phi^-1; "
_DECAY_UNITS = 48.0          # e^-48 ~ 1e-21: negligible truncation remainders
_SERIES_TERMS = 40           # x = R^-2 < 1/676: x^40 < 1e-113
_UNIT_ROUNDOFF = 2.0 ** -53
_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)


@dataclass
class CriterionReport:
    verdict: str
    value: float
    error_bound: float
    tail_evidence: str
    r_max: float
    # the pass of panel triples (1-n, n-3) over [1, r_max] behind the value,
    # the tail certificate at r_max of a Convergent criterion report, and
    # the warp and n they integrate
    panels: np.recarray | None = field(default=None, repr=False, compare=False)
    certificate: TailCertificate | None = field(default=None, repr=False, compare=False)
    warp: WarpingFunction | None = field(default=None, repr=False, compare=False)
    n: int | None = field(default=None, repr=False, compare=False)

    def to_json_dict(self):
        """The report as printed: the value at 12 digits, so the bound, rounded
        up, also covers the value's rounding to them."""
        finite = math.isfinite(self.value)
        printing = abs(round12(self.value) - self.value) if finite else 0.0
        return {
            "verdict": self.verdict,
            "value": self.value,
            "error_bound": round_up_3(self.error_bound + printing),
            "r_max": self.r_max,
            "tail_evidence": self.tail_evidence,
        }


@dataclass
class TailCertificate:
    """Certified tail data at radius r_max for a convergent metric.

    log_cum:    log int_1^R phi^{n-3}: exactly log(R - 1) at n = 3, else
                the C(1,R) column of the pass of triples (`_finite`)
    log_inner:  bracket (lo, hi) for log int_R^inf phi^{1-n}
    double:     bracket (lo, hi) for the double integral tail beyond R
    """
    r_max: float
    log_cum: float
    log_inner: tuple[float, float]
    double: tuple[float, float]


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
    """Comparison data phi in [klo*psi, khi*psi] on [R0, inf), from the
    growth class of the warp w.

    `exact` holds for `PowerGrowth` alone, whose phi is t^p (1 + t^-2)^((p-1)/2)
    itself, so its tails are series with no sandwich (`_log_power_series`).
    """

    def __init__(self, w, n):
        growth = self.growth = w.growth_class
        self.n = n
        if isinstance(growth, ExponentialGrowth):
            self.kind = "exp"
        elif isinstance(growth, PowerLawGrowth):
            self.kind = "power"
        elif isinstance(growth, PowerLogGrowth):
            self.kind = "powerlog"
        else:
            raise NotConvergent(f"no tail model for growth {growth!r}")
        self.exact = type(w) is PowerGrowth

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
        ls = math.log(g.scale)
        if self.kind == "exp":
            return ls + math.log1p(-math.exp(-2 * g.rate * r0)), ls
        if self.kind == "powerlog":
            return ls, ls
        slack = abs(g.exponent - 1.0) / 2.0 * math.log1p(r0 ** -2)
        return ls - slack, ls + slack

    def log_psi(self, R):
        """log psi(R): rate*R, exponent*log R, or log R + c log log R."""
        g = self.growth
        if self.kind == "exp":
            return g.rate * R
        if self.kind == "power":
            return g.exponent * math.log(R)
        return math.log(R) + g.log_exponent * math.log(math.log(R))

    # -- convergence decisions (structural, from psi alone) ------------------

    def inner_diverges(self):
        if self.kind == "power":
            return self.growth.exponent * (self.n - 1) <= 1.0
        # powerlog, r*(log r)^c: at n = 2 only
        return self.kind == "powerlog" and self.n == 2 and self.growth.log_exponent <= 1.0

    def double_diverges(self):
        """Read after `inner_diverges`, which alone decides n = 2."""
        if self.kind == "power":
            p = self.growth.exponent
            return p <= 1.0 or p * (self.n - 1) <= 1.0
        return self.kind == "powerlog" and self.growth.log_exponent <= 0.5

    def divergence_evidence(self, r0, double=True):
        """Names the elementary lower-bound integrand whose integral diverges.

        `double` selects the criterion integral; otherwise the evidence is
        for the transience integral int phi^{1-n}, whose square it is at n = 2.
        """
        n = self.n
        if double and n == 2:
            return _N2_IDENTITY + self.divergence_evidence(r0, double=False)
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
            k = math.exp((n - 3) * log_klo + (1 - n) * log_khi) / (p * (n - 1) - 1)
            expo = 1.0 - 2.0 * p
            return (f"double-tail integrand >= {k:.6g}*s^({expo:.6g}) for s >= {r0:.4g}; "
                    f"p <= 1 so the elementary integral diverges")
        # powerlog
        c = self.growth.log_exponent
        k = math.exp(-2 * log_khi) / (n - 2) / 2.0
        note = "; threshold case 2c = 1 gives int ds/(s log s) = log log s" \
            if c == 0.5 else ""
        return (f"double-tail integrand >= {k:.6g}/(s*(log s)^{2 * c:.6g}) "
                f"for s >= {r0:.4g}; 2c <= 1 so the elementary integral "
                f"diverges{note}")

    def convergence_evidence(self, r0, double=True):
        g = self.growth
        if double and self.n == 2:
            return _N2_IDENTITY + self.convergence_evidence(r0, double=False)
        if not double:
            return (f"{g.describe()}: integrand <= elementary convergent tail "
                    f"beyond {r0:.4g}")
        if self.kind == "exp":
            return (f"{g.describe()}: double-tail integrand <= "
                    f"K*exp({-2 * g.rate:.6g}*s) beyond s = {r0:.4g}, geometric tail")
        if self.kind == "power":
            return (f"{g.describe()}: double-tail integrand <= K*s^({1 - 2 * g.exponent:.6g}) "
                    f"beyond s = {r0:.4g}, exponent < -1")
        return (f"{g.describe()}: double-tail integrand <= "
                f"K*(log s)^({-2 * g.log_exponent:.6g})/s beyond s = {r0:.4g}, 2c > 1")

    # -- psi tails (log brackets) ----------------------------------------------

    def log_psi_inner(self, R):
        """Bracket for log int_R^inf psi^{1-n}; requires convergence.  Power
        growth sums its series.  Power-log at n >= 3, with L = log R and
        beta = c(n-1), is R^{2-n} L^-beta int_0^inf e^{-(n-2)v} (1+v/L)^-beta dv."""
        n = self.n
        if self.kind == "exp":
            a = self.growth.rate
            v = -a * (n - 1) * R - math.log(a * (n - 1))
            return v, v
        if self.kind == "power":
            return self._log_power_series(R, double=False)
        c = self.growth.log_exponent
        L = math.log(R)
        if n == 2:
            head, log_c1 = (1 - c) * math.log(L), math.log(c - 1)
            # the rounding of both logs and of the log C `_compose` adds: they may cancel
            pad = 4 * math.ulp(abs(head) + abs(log_c1) + abs(math.log(self.growth.scale)))
            return head - log_c1 - pad, head - log_c1 + pad
        beta = c * (n - 1)
        head = (2 - n) * math.log(R) - beta * math.log(L)
        return tuple(head + b for b in self._log_decay_integral(L, beta))

    def log_psi_double(self, R):
        """Bracket for log of the psi double tail beyond R; requires
        convergence and n >= 3 (at n = 2 it is the inner tail's half square).

        Power growth sums its series; exponential growth is a closed form.
        For power-log, with t = log s, v = log(t'/s) and t0 = log R, the tail
        is int_0^inf e^{-(n-2)v} J(v) dv with the inner integral in closed form,
        J(v) = int_t0^inf t^{c(n-3)} (t+v)^{-c(n-1)} dt
             = (t0+v)^{1-2c} G(v/(t0+v)) / (2c-1),
        with G <= 1 the scaled incomplete beta of `_log_g` at
        (2c-1, c(n-3)+1), and G = 1 at n = 3.
        """
        n = self.n
        if self.kind == "exp":
            a = self.growth.rate
            v = -2 * a * R - math.log(2 * a * a * (n - 1))
            return v, v
        if self.kind == "power":
            return self._log_power_series(R, double=True)
        c = self.growth.log_exponent
        L = math.log(R)
        p = 2 * c - 1
        log_g = None if n == 3 else lambda v: _log_g(p, c * (n - 3) + 1, v / (L + v))
        log_j0 = -p * math.log(L) - math.log(p)
        return tuple(log_j0 + b for b in self._log_decay_integral(L, p, log_g))

    def _log_decay_integral(self, L, expo, log_g=None):
        """Log bracket for int_0^inf e^{-(n-2)v} (1+v/L)^-expo g(v) dv, 0 < g <= 1
        given by its log (None for 1): a certified quadrature over [0, 48/(n-2)],
        plus at most e^-48/(n-2) for the rest.  So scaled, the logs stay small."""
        n = self.n

        def log_f(v):
            out = -(n - 2) * v - expo * np.log1p(v / L)
            return out if log_g is None else out + log_g(v)
        V = _DECAY_UNITS / (n - 2)
        log_main, log_err, _ = adaptive_quad_log(log_f, np.linspace(0.0, V, 9),
                                                 rtol=1e-14)
        return (log_main - math.log1p(math.exp(log_err - log_main)),
                logsumexp([log_main, log_err, -(n - 2) * V - math.log(n - 2)]))

    def _log_power_series(self, R, double):
        """Log bracket for the inner tail, or with `double` the double tail,
        beyond R of t^p (1 + t^-2)^b, b = (p-1)/2 if `exact` else 0.  With
        x = R^-2, a = p(n-1) - 1, e1 = -b(n-1) and e3 = b(n-3), term by term
            T_in  = R^-a sum_k C(e1,k) x^k / (a+2k),
            T_out = R^(2-2p) sum_m x^m / (2p-2+2m) sum_{j+k=m} C(e3,j) C(e1,k) / (a+2k).
        |C(e,k)| <= C(E+k-1, k), E = |e| (|e1| + |e3| for the product), so
        after K terms the rest is at most C(E+K-1, K) x^K / (1-rho) over the
        smallest denominator, rho = x max(1, (E+K)/(K+1)).  Term k takes at
        most 8k + 16 roundings, and fsum one.  R^-a and R^(2-2p) stay logs.
        """
        p, n = self.growth.exponent, self.n
        a = math.fsum([p] * (n - 1) + [-1.0])   # correctly rounded
        b = (p - 1) / 2 if self.exact else 0.0
        e1, e3 = -b * (n - 1), (b * (n - 3) if double else 0.0)
        k = np.arange(_SERIES_TERMS, dtype=float)
        K, x = k.size, R ** -2.0

        def binomial(e):   # C(e, k)
            return np.cumprod(np.r_[1.0, (e - k[:-1]) / k[1:]])
        coef = binomial(e1) / (a + 2 * k)
        size = np.abs(coef)
        if double:
            c3, den = binomial(e3), 2 * p - 2 + 2 * k
            coef = np.convolve(c3, coef)[:K] / den
            size = np.convolve(np.abs(c3), size)[:K] / den
        powers = x ** k
        total = math.fsum(coef * powers)
        E = abs(e1) + abs(e3)
        rho = x * max(1.0, (E + K) / (K + 1))
        smallest = a * (2 * p - 2 + 2 * K) if double else a + 2 * K
        rest = (float(np.prod((E + k) / (k + 1))) * x ** K / (1.0 - rho) / smallest
                if rho < 1.0 else math.inf)
        err = rest + _UNIT_ROUNDOFF * (total + float(np.dot(8 * k + 16, size * powers)))
        head = -(2 * p - 2 if double else a) * math.log(R)
        pad = 4 * math.ulp(head) + math.ulp(math.log(total))   # of a*log R and log
        lo = head + math.log(total - err) - pad if total > err else -math.inf
        return lo, head + math.log(total + err) + pad

    def _compose(self, q1, q2, psi_bracket, R):
        """Bracket for kappa^q1 * kappa^q2 * psi-integral bracket beyond R,
        with the sandwich at R for exponential growth, where it holds the
        exact tails to a relative (n-1)e^{-2aR}, else at r0(R).  Exact power
        growth has no kappa."""
        if self.exact:
            return psi_bracket
        log_klo, log_khi = self.log_sandwich(R if self.kind == "exp" else self.r0(R))
        lo_f = (q1 * (log_klo if q1 >= 0 else log_khi)
                + q2 * (log_klo if q2 >= 0 else log_khi))
        hi_f = (q1 * (log_khi if q1 >= 0 else log_klo)
                + q2 * (log_khi if q2 >= 0 else log_klo))
        return lo_f + psi_bracket[0], hi_f + psi_bracket[1]


# ---------------------------------------------------------------------------
# The finite part: one pass of panel triples over [1, R]
# ---------------------------------------------------------------------------

def _edges(w, R):
    """Edges equally spaced in log t over [1, R], 8 panels or one per decade
    (a K15 panel over many decades has no node near its left end, where a
    decaying integrand has its mass), and phi's breakpoints; R <= 1: none."""
    top = max(R, 1.0)
    return with_breakpoints(
        w, np.geomspace(1.0, top, max(8, math.ceil(math.log10(top))) + 1))


def _shared_value(shared, key, compute):
    """compute(), kept under `key` in `shared`, the dict of one `classify`."""
    if shared is None:
        return compute()
    if key not in shared:
        shared[key] = compute()
    return shared[key]


def _finite(w, n, R, double, shared=None):
    """(value, error, cum, panels) of the finite part over [1, R]: the triangle
    int_1^R phi^{1-n}(tau) int_1^tau phi^{n-3} if `double`, else
    int_1^R phi^{1-n}, cum the logs (value, error) of C(1,R), and the panels
    of the one pass of triples at rtol 1e-12 they come from, kept in `shared`."""
    log_val, log_err, panels = _shared_value(
        shared, ("finite", R), lambda: adaptive_quad_log(
            w.log_phi, _edges(w, R), rtol=1e-12, triangle=(1 - n, n - 3)))
    k = 0 if double else 1
    return (math.exp(log_val[k]), math.exp(min(log_err[k], 700.0)),
            (float(log_val[2]), float(log_err[2])), panels)


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


def _top_radius(w, default=math.inf):
    """The largest R the data allow: just inside a tabulated hull, else `default`."""
    return float(w.grid[-1]) * 0.995 if isinstance(w, Tabulated) else default


def _radius(w, r_max, default):
    """r_max, or else `default`; on tabulated data at most just inside the
    last sample, which is the default there."""
    return _top_radius(w, default) if r_max is None else min(float(r_max), _top_radius(w))


def _start_radius(w, model, R):
    """R raised above the sandwich start; tabulated data stay inside the
    samples, and a table whose samples end before that start is refused.
    Every other warp must keep its growth class's promise at that R: a
    log phi(R) - log psi(R) outside `model.log_sandwich(model.r0(R))`, by
    more than 16 ulp of the logs involved, is refused with InvalidFamily."""
    start = model.min_r0() * 1.3
    if isinstance(w, Tabulated):
        if w.grid[-1] < start:
            raise OutOfDomain(f"tabulated hull ends at r = {w.grid[-1]:g}, below the "
                              f"tail sandwich start r = {start:g}")
        return max(min(R, _top_radius(w)), start)
    R = max(R, start)
    log_phi, log_psi = float(w.log_phi(R)), model.log_psi(R)
    r0 = model.r0(R)
    lo, hi = model.log_sandwich(r0)
    pad = 16 * math.ulp(abs(log_phi) + abs(log_psi) + abs(lo) + abs(hi))
    if not lo - pad <= log_phi - log_psi <= hi + pad:
        raise InvalidFamily(
            f"{w!r} breaks its growth class {model.growth!r}: at r = {R:g}, "
            f"log phi - log psi = {log_phi - log_psi:.6g} lies outside "
            f"[{lo:.6g}, {hi:.6g}], the class's sandwich from r0 = {r0:g}")
    return R


def _tail_brackets(n, model, R, double=True, shared=None):
    """Log brackets (inner, double) for the tails beyond R, from `model` for
    every growth class, each log end widened by 4 ulp for its rounding.

    Exponential growth, phi = scale*e^{at}(1 - e^{-2at}), takes the sandwich
    at R.  `PowerGrowth` sums the series of its exact phi, every other
    power-law growth class, of a custom warp or a table, takes the sandwich
    at `model.r0(R)`, and power-log growth is exactly C*psi there.  At
    n = 2 the double tail is T_in^2/2.  It is None unless `double`; the
    inner bracket, which both integrals need at the one R of a `classify`
    call, is kept in `shared`.
    """
    def tail(q1, q2, log_psi):
        lo, hi = model._compose(q1, q2, log_psi(R), R)
        return lo - 4 * math.ulp(lo), hi + 4 * math.ulp(hi)

    inner = _shared_value(shared, ("inner", R), lambda: tail(1 - n, 0, model.log_psi_inner))
    if not double:
        return inner, None
    if n == 2:
        return inner, tuple(2.0 * b - math.log(2.0) for b in inner)
    return inner, tail(n - 3, 1 - n, model.log_psi_double)


def _certify(w, n, tol, r_max, double, shared):
    """Classify the criterion integral (`double`) or the transience integral.

    The value is the finite part over [1, R] plus the certified tails beyond
    R: for the criterion integral the cross term C(1,R)*T_in(R) and the
    double tail T_out(R), for the transience integral T_in(R) alone.  The
    error bound adds a rounding term of 1e-14 of the value.  A Convergent
    criterion report keeps the tail certificate of the same brackets and
    pass.  R is r_max, or else the model's default, or on a table with a
    trusted growth class just inside the last sample (`_radius`), raised to
    the sandwich start: the one radius tried, where a report that misses tol
    is refused with its error budget.  `shared` is None, or the dict of one
    `classify` call.
    """
    _check_args(w, n, tol, r_max)
    if isinstance(w.growth_class, UnknownGrowth):
        return _classify_unknown(w, n, double, r_max, shared)
    model = _TailModel(w, n)
    R = _start_radius(w, model, _radius(w, r_max, model.default_r_max()))
    r0 = model.r0(R)

    if model.inner_diverges() or (double and model.double_diverges()):
        F, F_err, _, panels = _finite(w, n, R, double, shared)
        return CriterionReport(
            verdict=DIVERGENT, value=F, error_bound=F_err,
            tail_evidence=model.divergence_evidence(r0, double), r_max=R, panels=panels,
            warp=w, n=n)

    (in_lo, in_hi), dbl = _tail_brackets(n, model, R, double, shared)
    F, F_err, (log_c, log_ec), panels = _finite(w, n, R, double, shared)
    cert = _certificate(n, R, log_c, (in_lo, in_hi), dbl) if double else None
    if double:   # (C - e_C, C + e_C) * T_in
        cross_lo = max(math.exp(log_c + in_lo) - math.exp(log_ec + in_lo), 0.0)
        cross_hi = math.exp(log_c + in_hi) + math.exp(log_ec + in_hi)
        tout_lo, tout_hi = cert.double
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
            tail_evidence=model.convergence_evidence(r0, double), r_max=R, panels=panels,
            certificate=cert, warp=w, n=n)
    # the rounding is taken on the value's certified lower end, which bounds
    # the value at every R: past tol, no radius can help
    floor = 1e-14 * (F + cross_lo + tout_lo)
    reason = (" (finite-part error alone exceeds tol)" if F_err >= tol else
              " (rounding of the value alone exceeds tol)" if floor >= tol else
              " (finite-part error plus rounding exceed tol)"
              if F_err + floor >= tol else "")
    what = "value" if double else "transience value"
    raise QuadratureFailure(
        f"could not certify the {what} within tol={tol:g}{reason}; error "
        f"budget at r_max={R:g}: bound {err:.3g} (finite part {F_err:.3g}, "
        f"cross term {0.5 * (cross_hi - cross_lo):.3g}, outer tail "
        f"{0.5 * (tout_hi - tout_lo):.3g}) + rounding {rounding:.3g}")


def march_criterion(w: WarpingFunction, n: int, tol: float = 1e-8,
                    r_max: float | None = None, *,
                    _shared: dict | None = None) -> CriterionReport:
    """Classify the double criterion integral for (w, n)."""
    return _certify(w, n, tol, r_max, double=True, shared=_shared)


def transience_integral(w: WarpingFunction, n: int, tol: float = 1e-8,
                        r_max: float | None = None, *,
                        _shared: dict | None = None) -> CriterionReport:
    """Classify int_1^inf phi^{1-n}."""
    return _certify(w, n, tol, r_max, double=False, shared=_shared)


def classify(w: WarpingFunction, n: int, tol: float = 1e-8,
             r_max: float | None = None) -> tuple[CriterionReport, CriterionReport]:
    """(march_criterion, transience_integral) reports for (w, n), each with
    the bits of its own call.  Both run at the same R and share one dict for
    this call only, so the pass over [1, R] and the inner tail run once."""
    shared = {}
    return (march_criterion(w, n, tol, r_max, _shared=shared),
            transience_integral(w, n, tol, r_max, _shared=shared))


def _certificate(n, R, log_cum, inner, dbl):
    """The tail certificate at R of the brackets (inner, dbl) of
    `_tail_brackets` and log_cum, the log C(1,R) of the pass of `_finite`,
    which at n = 3 is exactly log(R - 1) and not read (None)."""
    return TailCertificate(r_max=R, log_cum=math.log(R - 1.0) if n == 3 else log_cum,
                           log_inner=inner, double=(math.exp(dbl[0]), math.exp(dbl[1])))


def tail_certificate(w: WarpingFunction, n: int, R: float) -> TailCertificate:
    """Certified tail brackets at R, raised to the tail sandwich's start, for
    a metric with convergent criterion: the certificate a Convergent
    `march_criterion` report at that R holds, bit for bit."""
    model = _TailModel(w, n)
    if model.inner_diverges() or model.double_diverges():
        raise NotConvergent("criterion integral diverges for this metric")
    R = _start_radius(w, model, float(R))
    log_cum = None if n == 3 else _finite(w, n, R, True)[2][0]
    return _certificate(n, R, log_cum, *_tail_brackets(n, model, R))


def check_report(report, w, n, whose, error):
    """Refuse by name, with the exception class `error`, a report of another
    n or warp object than (w, n), the `whose` metric, as it integrates
    another phi."""
    if report.n != n:
        raise error(f"the criterion report is of n = {report.n}, "
                    f"not of the {whose} n = {n}")
    if report.warp is not w:
        raise error(f"the criterion report is of {report.warp!r}, another warp object "
                    f"than the {whose} {w!r}")


def check_certified(report):
    """Refuse with NotConvergent a report with no tail certificate."""
    if report.certificate is None:
        raise NotConvergent(f"the {report.verdict} criterion report holds no tail "
                            "certificate; only a Convergent march_criterion report does")


# ---------------------------------------------------------------------------
# Unknown growth (tabulated data): the finite part, never a verdict
# ---------------------------------------------------------------------------

def _classify_unknown(w, n, double, r_max, shared):
    """Inconclusive, with the finite part over [1, R] as the value, R from
    `_radius`: r_max, or else just inside the last sample (400 off a table).

    Without a growth class nothing bounds phi beyond the samples, so no tail
    is certified, and on a finite range a divergent integral looks like a
    slowly converging one.  The integrand is positive, so the finite part
    bounds the whole integral from below, up to its quadrature error.  That
    error is reported rather than certified to tol, from the one pass at
    rtol 1e-12 whose panels give `verify` its growth bound.
    """
    R = _radius(w, r_max, 400.0)
    F, F_err, _, panels = _finite(w, n, R, double, shared)
    beyond = "the data at r" if R == _top_radius(w) else "r"
    return CriterionReport(
        verdict=INCONCLUSIVE, value=F, error_bound=math.inf,
        tail_evidence=f"no growth class: the finite part over [1, {R:.6g}] "
                      f"is a lower bound (positive integrand), quadrature "
                      f"error {F_err:.3g}; no tail beyond {beyond} = "
                      f"{R:.6g} is certified", r_max=R, panels=panels,
        warp=w, n=n)
