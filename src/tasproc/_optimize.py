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
    """Minimize |r(x)|^2 over the box `bounds` ((lo, hi) per parameter),
    where `fun(x)` returns the residuals r and their Jacobian dr/dx.

    Each iteration solves the damped normal equations (J'J + mu diag J'J)
    dx = -J'r over the parameters not held at a bound, clips the step to the
    box, and accepts it if the sum of squares falls; mu follows the gain
    ratio of the step (Nielsen's rule).  A step whose predicted fall is
    within the sum's rounding noise is accepted as a full-gain step, since
    the sum cannot tell it from no step; the fit then stops at the
    Gauss-Newton stationary point instead of wherever that noise stalls it.
    A parameter is held while it sits on a bound that the gradient pushes
    against.  `nit` counts the steps tried.
    """
    lo, hi = (np.array(b, dtype=float) for b in zip(*bounds))
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    r, jac = fun(x)
    f = float(r @ r)
    nit, mu, nu = 0, 1e-3, 2.0
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
