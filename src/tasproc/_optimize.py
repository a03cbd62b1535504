"""The two bounded solvers behind the (alpha, lambda) fits.

`minimize_scalar` is Brent's bounded minimizer (golden-section search with
parabolic steps), step for step the arithmetic of scipy.optimize's
`minimize_scalar(method="bounded")`, so profiled fits keep their bits without
importing scipy.optimize.  `minimize` is a projected Levenberg-Marquardt
(Marquardt, J. SIAM 11(2), 1963) for box-constrained least squares with an
exact Jacobian.  Both return an `OptimizeResult`.
"""

from __future__ import annotations

from collections import namedtuple
from math import sqrt

import numpy as np

OptimizeResult = namedtuple("OptimizeResult", "x fun nit nfev success")

# Levenberg-Marquardt stops once a step moves every parameter by less than
# this fraction of its size.
_XTOL = 1e-10


def minimize_scalar(fun, bounds, xatol, maxiter):
    """Minimize the scalar function `fun` over the interval `bounds`."""
    sqrt_eps = sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - sqrt(5.0))
    a, b = bounds
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = fun(xf)
    num = 1
    fu = np.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    flag = 0

    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if np.abs(e) > tol1:
            # Parabola through the three best points.
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r, e = e, rat
            if ((np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf))
                    and (p < q * (b - xf))):
                golden = False
                rat = p / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    rat = tol1 * (np.sign(xm - xf) + ((xm - xf) == 0))
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = fun(x)
        num += 1

        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            flag = 1
            break

    if np.isnan(xf) or np.isnan(fx) or np.isnan(fu):
        flag = 2
    return OptimizeResult(xf, fx, num, num, flag == 0)


def minimize(fun, x0, bounds, maxiter):
    """Minimize |r(x)|^2 over the box `bounds` ((lo, hi) per parameter),
    where `fun(x)` returns the residuals r and their Jacobian dr/dx.

    Each iteration solves the damped normal equations (J'J + mu diag J'J)
    dx = -J'r over the parameters not held at a bound, clips the step to the
    box, and accepts it if the sum of squares falls; mu follows the gain
    ratio of the step (Nielsen's rule).  A parameter is held while it sits on
    a bound that the gradient pushes against.  `nit` counts the steps tried,
    so `nfev` is nit + 1.
    """
    lo, hi = (np.array(b, dtype=float) for b in zip(*bounds))
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    r, jac = fun(x)
    f = float(r @ r)
    nit, nfev, mu, nu = 0, 1, 1e-3, 2.0
    converged = False
    while nit < maxiter:
        grad = jac.T @ r
        hess = jac.T @ jac
        free = ~(((x <= lo) & (grad > 0.0)) | ((x >= hi) & (grad < 0.0)))
        step = np.zeros_like(x)
        if free.any():
            h = hess[np.ix_(free, free)]
            step[free] = np.linalg.solve(
                h + mu * np.diag(np.maximum(np.diag(h), 1e-300)), -grad[free])
        trial = np.clip(x + step, lo, hi)
        step = trial - x
        if np.all(np.abs(step) <= _XTOL * (np.abs(x) + _XTOL)):
            converged = True
            break
        nit += 1
        r_new, jac_new = fun(trial)
        nfev += 1
        f_new = float(r_new @ r_new)
        predicted = -(2.0 * (step @ grad) + step @ hess @ step)
        if f_new < f:
            rho = (f - f_new) / predicted if predicted > 0.0 else 1.0
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu = 2.0
            x, r, jac, f = trial, r_new, jac_new, f_new
        else:
            mu *= nu
            nu *= 2.0
    return OptimizeResult(x, f, nit, nfev, converged)
