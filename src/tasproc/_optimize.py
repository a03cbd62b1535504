"""The bounded solver behind every (alpha, lambda) fit: a projected
Levenberg-Marquardt (Marquardt, J. SIAM 11(2), 1963) for box-constrained
least squares with an exact Jacobian.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

OptimizeResult = namedtuple("OptimizeResult", "x fun nit success")

# Levenberg-Marquardt stops once a step moves every parameter by less than
# this fraction of its size.
_XTOL = 1e-10

# A sum of squares carries rounding noise of about this relative size.
_FTOL = 1e-13


def minimize(fun, x0, bounds, maxiter):
    """Minimize |r(x)|^2 over the box `bounds` ((lo, hi) per parameter) for
    two parameters x, where `fun(x)` returns the residuals r and their
    Jacobian dr/dx as a (2, n) array, one row per parameter.

    Each iteration solves the damped normal equations (J'J + mu diag J'J)
    dx = -J'r over the parameters not held at a bound, clips the step to the
    box, and accepts it if the sum of squares falls; mu follows the gain
    ratio of the step (Nielsen's rule).  A step whose predicted fall is
    within the sum's rounding noise is accepted as a full-gain step, since
    the sum cannot tell it from no step; the fit then stops at the
    Gauss-Newton stationary point instead of wherever that noise stalls it.
    A parameter is held on a bound that the gradient pushes against, and
    while its Jacobian row is zero.  `nit` counts the steps tried.
    """
    lo, hi = (np.array(b, dtype=float) for b in zip(*bounds))
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    r, jac = fun(x)
    f = float(r @ r)
    nit, mu, nu = 0, 1e-3, 2.0
    converged = False
    while nit < maxiter:
        grad = jac @ r
        hess = jac @ jac.T
        diag = hess.diagonal()
        free = (diag > 0.0) & ~(((x <= lo) & (grad > 0.0))
                                | ((x >= hi) & (grad < 0.0)))
        # Elimination with partial pivoting, which stays in range where
        # Cramer's rule overflows; a held parameter's row is the identity.
        a, d = np.where(free, diag + mu * np.maximum(diag, 1e-300), 1.0)
        g0, g1 = np.where(free, -grad, 0.0)
        b = hess[0, 1] if free.all() else 0.0
        rows = [(a, b, g0), (b, d, g1)]
        (p, q, u), (s, t, v) = rows if abs(a) >= abs(b) else rows[::-1]
        x1 = (v - s / p * u) / (t - s / p * q)
        step = np.array([(u - q * x1) / p, x1])
        trial = np.clip(x + step, lo, hi)
        step = trial - x
        if np.all(np.abs(step) <= _XTOL * (np.abs(x) + _XTOL)):
            converged = True
            break
        nit += 1
        r_new, jac_new = fun(trial)
        f_new = float(r_new @ r_new)
        predicted = -(2.0 * (step @ grad) + step @ hess @ step)
        noise = predicted <= _FTOL * f
        if f_new < f or noise:
            rho = 1.0 if noise else (f - f_new) / predicted
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu = 2.0
            x, r, jac, f = trial, r_new, jac_new, f_new
        else:
            mu *= nu
            nu *= 2.0
    return OptimizeResult(x, f, nit, converged)
