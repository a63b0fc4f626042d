"""Dormand and Prince's explicit Runge-Kutta 8(5,3) pair, with dense output.

The method of Hairer, Norsett and Wanner, *Solving Ordinary Differential
Equations I*, sections II.5 and II.10: an eighth-order step of 12 stages,
a step-size control that blends the fifth- and third-order error estimates,
and a degree-7 interpolant per step from 3 extra stages.

`solve_ivp` does the arithmetic of `scipy.integrate.solve_ivp(fun, t_span,
y0, method="DOP853", dense_output=True, rtol=rtol, atol=atol)` operation for
operation, with the same tableau and the same numpy calls, so the steps,
the right-hand-side count and the dense output equal scipy's bit for bit.
It covers what the radial solve needs and no more: a real state, a forward
span, no events and no step bound.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7

C = np.array([0.0,
              0.526001519587677318785587544488e-01,
              0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510,
              0.281649658092772603273242802490,
              0.333333333333333333333333333333,
              0.25,
              0.307692307692307692307692307692,
              0.651282051282051282051282051282,
              0.6,
              0.857142857142857142857142857142,
              1.0,
              1.0,
              0.1,
              0.2,
              0.777777777777777777777777777778])

# Rows 0 to 11 are the step's stages, row 12 the weights B of the 8th-order
# solution, rows 13 to 15 the extra stages of the interpolant.
A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
A[1, 0] = 5.26001519587677318785587544488e-2

A[2, 0] = 1.97250569845378994544595329183e-2
A[2, 1] = 5.91751709536136983633785987549e-2

A[3, 0] = 2.95875854768068491816892993775e-2
A[3, 2] = 8.87627564304205475450678981324e-2

A[4, 0] = 2.41365134159266685502369798665e-1
A[4, 2] = -8.84549479328286085344864962717e-1
A[4, 3] = 9.24834003261792003115737966543e-1

A[5, 0] = 3.7037037037037037037037037037e-2
A[5, 3] = 1.70828608729473871279604482173e-1
A[5, 4] = 1.25467687566822425016691814123e-1

A[6, 0] = 3.7109375e-2
A[6, 3] = 1.70252211019544039314978060272e-1
A[6, 4] = 6.02165389804559606850219397283e-2
A[6, 5] = -1.7578125e-2

A[7, 0] = 3.70920001185047927108779319836e-2
A[7, 3] = 1.70383925712239993810214054705e-1
A[7, 4] = 1.07262030446373284651809199168e-1
A[7, 5] = -1.53194377486244017527936158236e-2
A[7, 6] = 8.27378916381402288758473766002e-3

A[8, 0] = 6.24110958716075717114429577812e-1
A[8, 3] = -3.36089262944694129406857109825
A[8, 4] = -8.68219346841726006818189891453e-1
A[8, 5] = 2.75920996994467083049415600797e1
A[8, 6] = 2.01540675504778934086186788979e1
A[8, 7] = -4.34898841810699588477366255144e1

A[9, 0] = 4.77662536438264365890433908527e-1
A[9, 3] = -2.48811461997166764192642586468
A[9, 4] = -5.90290826836842996371446475743e-1
A[9, 5] = 2.12300514481811942347288949897e1
A[9, 6] = 1.52792336328824235832596922938e1
A[9, 7] = -3.32882109689848629194453265587e1
A[9, 8] = -2.03312017085086261358222928593e-2

A[10, 0] = -9.3714243008598732571704021658e-1
A[10, 3] = 5.18637242884406370830023853209
A[10, 4] = 1.09143734899672957818500254654
A[10, 5] = -8.14978701074692612513997267357
A[10, 6] = -1.85200656599969598641566180701e1
A[10, 7] = 2.27394870993505042818970056734e1
A[10, 8] = 2.49360555267965238987089396762
A[10, 9] = -3.0467644718982195003823669022

A[11, 0] = 2.27331014751653820792359768449
A[11, 3] = -1.05344954667372501984066689879e1
A[11, 4] = -2.00087205822486249909675718444
A[11, 5] = -1.79589318631187989172765950534e1
A[11, 6] = 2.79488845294199600508499808837e1
A[11, 7] = -2.85899827713502369474065508674
A[11, 8] = -8.87285693353062954433549289258
A[11, 9] = 1.23605671757943030647266201528e1
A[11, 10] = 6.43392746015763530355970484046e-1

A[12, 0] = 5.42937341165687622380535766363e-2
A[12, 5] = 4.45031289275240888144113950566
A[12, 6] = 1.89151789931450038304281599044
A[12, 7] = -5.8012039600105847814672114227
A[12, 8] = 3.1116436695781989440891606237e-1
A[12, 9] = -1.52160949662516078556178806805e-1
A[12, 10] = 2.01365400804030348374776537501e-1
A[12, 11] = 4.47106157277725905176885569043e-2

A[13, 0] = 5.61675022830479523392909219681e-2
A[13, 6] = 2.53500210216624811088794765333e-1
A[13, 7] = -2.46239037470802489917441475441e-1
A[13, 8] = -1.24191423263816360469010140626e-1
A[13, 9] = 1.5329179827876569731206322685e-1
A[13, 10] = 8.20105229563468988491666602057e-3
A[13, 11] = 7.56789766054569976138603589584e-3
A[13, 12] = -8.298e-3

A[14, 0] = 3.18346481635021405060768473261e-2
A[14, 5] = 2.83009096723667755288322961402e-2
A[14, 6] = 5.35419883074385676223797384372e-2
A[14, 7] = -5.49237485713909884646569340306e-2
A[14, 10] = -1.08347328697249322858509316994e-4
A[14, 11] = 3.82571090835658412954920192323e-4
A[14, 12] = -3.40465008687404560802977114492e-4
A[14, 13] = 1.41312443674632500278074618366e-1

A[15, 0] = -4.28896301583791923408573538692e-1
A[15, 5] = -4.69762141536116384314449447206
A[15, 6] = 7.68342119606259904184240953878
A[15, 7] = 4.06898981839711007970213554331
A[15, 8] = 3.56727187455281109270669543021e-1
A[15, 12] = -1.39902416515901462129418009734e-3
A[15, 13] = 2.9475147891527723389556272149
A[15, 14] = -9.15095847217987001081870187138

B = A[N_STAGES, :N_STAGES]

# The third- and fifth-order error estimators, over the 12 stages and f_new
E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B.copy()
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[0] = 0.1312004499419488073250102996e-1
E5[5] = -0.1225156446376204440720569753e+1
E5[6] = -0.4957589496572501915214079952
E5[7] = 0.1664377182454986536961530415e+1
E5[8] = -0.3503288487499736816886487290
E5[9] = 0.3341791187130174790297318841
E5[10] = 0.8192320648511571246570742613e-1
E5[11] = -0.2235530786388629525884427845e-1

# The interpolant's coefficients of degree 4 to 7; the first 3 come from
# the step's ends
D = np.zeros((INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED))
D[0, 0] = -0.84289382761090128651353491142e+1
D[0, 5] = 0.56671495351937776962531783590
D[0, 6] = -0.30689499459498916912797304727e+1
D[0, 7] = 0.23846676565120698287728149680e+1
D[0, 8] = 0.21170345824450282767155149946e+1
D[0, 9] = -0.87139158377797299206789907490
D[0, 10] = 0.22404374302607882758541771650e+1
D[0, 11] = 0.63157877876946881815570249290
D[0, 12] = -0.88990336451333310820698117400e-1
D[0, 13] = 0.18148505520854727256656404962e+2
D[0, 14] = -0.91946323924783554000451984436e+1
D[0, 15] = -0.44360363875948939664310572000e+1

D[1, 0] = 0.10427508642579134603413151009e+2
D[1, 5] = 0.24228349177525818288430175319e+3
D[1, 6] = 0.16520045171727028198505394887e+3
D[1, 7] = -0.37454675472269020279518312152e+3
D[1, 8] = -0.22113666853125306036270938578e+2
D[1, 9] = 0.77334326684722638389603898808e+1
D[1, 10] = -0.30674084731089398182061213626e+2
D[1, 11] = -0.93321305264302278729567221706e+1
D[1, 12] = 0.15697238121770843886131091075e+2
D[1, 13] = -0.31139403219565177677282850411e+2
D[1, 14] = -0.93529243588444783865713862664e+1
D[1, 15] = 0.35816841486394083752465898540e+2

D[2, 0] = 0.19985053242002433820987653617e+2
D[2, 5] = -0.38703730874935176555105901742e+3
D[2, 6] = -0.18917813819516756882830838328e+3
D[2, 7] = 0.52780815920542364900561016686e+3
D[2, 8] = -0.11573902539959630126141871134e+2
D[2, 9] = 0.68812326946963000169666922661e+1
D[2, 10] = -0.10006050966910838403183860980e+1
D[2, 11] = 0.77771377980534432092869265740
D[2, 12] = -0.27782057523535084065932004339e+1
D[2, 13] = -0.60196695231264120758267380846e+2
D[2, 14] = 0.84320405506677161018159903784e+2
D[2, 15] = 0.11992291136182789328035130030e+2

D[3, 0] = -0.25693933462703749003312586129e+2
D[3, 5] = -0.15418974869023643374053993627e+3
D[3, 6] = -0.23152937917604549567536039109e+3
D[3, 7] = 0.35763911791061412378285349910e+3
D[3, 8] = 0.93405324183624310003907691704e+2
D[3, 9] = -0.37458323136451633156875139351e+2
D[3, 10] = 0.10409964950896230045147246184e+3
D[3, 11] = 0.29840293426660503123344363579e+2
D[3, 12] = -0.43533456590011143754432175058e+2
D[3, 13] = 0.96324553959188282948394950600e+2
D[3, 14] = -0.39177261675615439165231486172e+2
D[3, 15] = -0.14972683625798562581422125276e+3

SAFETY = 0.9
MIN_FACTOR = 0.2             # the largest cut of a rejected step
MAX_FACTOR = 10              # the largest growth of an accepted step
ERROR_EXPONENT = -1 / 8      # the error estimator is of order 7

SUCCESS = "The solver successfully reached the end of the integration interval."
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

# The rows of A of stages 1 to 11 and of the 3 interpolant stages
_STEP_STAGES = [A[s, :s] for s in range(1, N_STAGES)]
_DENSE_STAGES = [A[s, :s] for s in range(N_STAGES + 1, N_STAGES_EXTENDED)]
# The c of the 15 times at which an attempt calls fun: stages 1 to 11, the
# new state at t + h (c = 1 gives t + h exactly), the 3 interpolant stages
_ATTEMPT_C = np.concatenate([C[1:N_STAGES], [1.0], C[N_STAGES + 1:]])


class DenseOutput:
    """The continuous solution: the degree-7 interpolant of each step.

    A call evaluates every point at once.  A point on a step time belongs
    to the step that ends there, and points outside the span extrapolate
    the first or the last step.
    """

    def __init__(self, ts, y_old, F):
        self.ts = ts              # (steps + 1,) step times
        self._h = np.diff(ts)     # each step's length, t - t_old as scipy forms it
        self._y_old = y_old       # (steps, n) state at each step's start
        self._F = F               # (steps, 7, n) interpolant coefficients

    def __call__(self, t):
        """The state at t, a float or a 1-D array: shape (n,) or (n, len(t))."""
        t = np.asarray(t, dtype=float)
        seg = np.clip(np.searchsorted(self.ts, t, side="left") - 1,
                      0, len(self._h) - 1)
        x = ((t - self.ts[seg]) / self._h[seg])[..., None]
        F = self._F[seg]
        y = np.zeros(F.shape[:-2] + F.shape[-1:])
        # Horner in x and 1 - x alternately, from the top coefficient down
        for i in range(INTERPOLATOR_POWER):
            y += F[..., INTERPOLATOR_POWER - 1 - i, :]
            if i % 2 == 0:
                y *= x
            else:
                y *= 1 - x
        y += self._y_old[seg]
        return y.T


class OdeResult(NamedTuple):
    t: np.ndarray               # the step times, t_span[0] first
    sol: DenseOutput | None     # None when the solve failed
    nfev: int                   # right-hand-side evaluations
    success: bool
    message: str


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, f0, rtol, atol):
    """The first step's length, from two derivative samples (section II.4)."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


def _error_norm(K, h, scale):
    """The RMS of the local error over scale, from the E5 and E3 estimates.

    A trial that overflowed gives a non-finite estimate.  That is inf here,
    without a warning, and rejects the attempt with the largest cut,
    MIN_FACTOR, as scipy's nan does.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        err5 = np.dot(K.T, E5) / scale
        err3 = np.dot(K.T, E3) / scale
        err5_norm_2 = np.linalg.norm(err5)**2
        err3_norm_2 = np.linalg.norm(err3)**2
        if err5_norm_2 == 0 and err3_norm_2 == 0:
            return 0.0
        denom = err5_norm_2 + 0.01 * err3_norm_2
        norm = np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))
    return norm if np.isfinite(norm) else np.inf


def solve_ivp(fun, t_span, y0, rtol, atol, before_attempt=None):
    """Integrate y' = fun(t, y) from y(t_span[0]) = y0 up to t_span[1].

    fun returns a float array shaped like y; atol is a float or one value per
    component, and rtol should be at least 100 machine epsilons, below which
    scipy raises it.  On success the result's `sol` is the dense output; when
    a step would fall below 10 ulp of t the result reports `success` False
    with scipy's message, the times reached and no dense output.

    `before_attempt`, if given, is called before each step attempt with the
    list of the 15 times at which the attempt may call fun: its 11 inner
    stages, t + h, and the 3 interpolant stages, which run only if the step
    is accepted.  fun receives exactly these floats, so a caller can
    evaluate what fun needs at all of them in one pass.  The two calls of
    the initial step-size choice come before the first attempt.
    """
    t0, t_bound = map(float, t_span)
    if not t_bound > t0:
        raise ValueError(f"the span must run forward, got {t_span}")
    y = np.asarray(y0, dtype=float)
    atol = np.asarray(atol)
    K = np.empty((N_STAGES_EXTENDED, y.size))
    KT = [K[:s].T for s in range(N_STAGES_EXTENDED)]   # the first s stages, as views
    K_step = K[:N_STAGES + 1]

    t = t0
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, t_bound, f, rtol, atol)
    nfev = 2
    ts, y_olds, Fs = [t], [], []
    while True:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return OdeResult(np.array(ts), None, nfev, False, TOO_SMALL_STEP)
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = np.abs(h)

            # t + c * h for every stage, as scipy forms each
            stage_t = (t + _ATTEMPT_C * h).tolist()
            if before_attempt is not None:
                before_attempt(stage_t)
            K[0] = f
            for s, a in enumerate(_STEP_STAGES, start=1):
                K[s] = fun(stage_t[s - 1], y + np.dot(KT[s], a) * h)
            y_new = y + h * np.dot(KT[N_STAGES], B)
            f_new = fun(stage_t[N_STAGES - 1], y_new)
            K[N_STAGES] = f_new
            nfev += N_STAGES

            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(K_step, h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True

        # the interpolant of the accepted step, while K holds its stages
        for s, a in enumerate(_DENSE_STAGES, start=N_STAGES + 1):
            K[s] = fun(stage_t[s - 1], y + np.dot(KT[s], a) * h)
        nfev += N_STAGES_EXTENDED - N_STAGES - 1
        F = np.empty((INTERPOLATOR_POWER, y.size))
        delta_y = y_new - y
        F[0] = delta_y
        F[1] = h * K[0] - delta_y
        F[2] = 2 * delta_y - h * (f_new + K[0])
        F[3:] = h * np.dot(D, K)
        y_olds.append(y)
        Fs.append(F)

        t, y, f = t_new, y_new, f_new
        ts.append(t)
        if t == t_bound:
            ts = np.array(ts)
            return OdeResult(ts, DenseOutput(ts, np.array(y_olds), np.array(Fs)),
                             nfev, True, SUCCESS)
