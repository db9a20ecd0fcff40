"""Bounded Levenberg–Marquardt least squares for the package's fits.

The fits have one, two or four parameters, so each step solves the damped
normal equations

    (JᵀJ + lam * diag(JᵀJ)) step = -Jᵀr

directly (Marquardt, SIAM J. Appl. Math. 11(2), 1963), by Cholesky.
``lam`` grows tenfold when a step fails to lower the cost and shrinks
tenfold when one does; a lower bound holds by clipping the step.

Everything is plain floats and lists: ``residual(x)`` returns a list of
floats, ``jacobian(x)`` returns one list per parameter (the derivatives of
every residual with respect to it), and ``x`` is a list. Dot products use
``math.fsum``. That needs no numpy import, but every evaluation loops
over the rows in Python, so on inputs of thousands of rows a vectorised
solver is faster.
"""

import math
from itertools import chain
from operator import mul

from .errors import FitError

# Stop when a step moves x by less than XTOL of its norm, or an accepted
# step lowers the cost by less than FTOL of it: far tighter than the usual
# library default of 1e-8, so the fits end at the minimum to about float
# precision. The seeded fits converge within 20 residual evaluations;
# MAX_NFEV only bounds a fit that cannot converge.
XTOL = 1e-12
FTOL = 1e-15
MAX_NFEV = 1000


def _dot(a, b) -> float:
    try:
        return math.fsum(map(mul, a, b))
    except (OverflowError, ValueError):
        # fsum raises where the sum overflows or meets inf - inf; the
        # plain sum gives the inf or nan that the solver's checks expect
        return sum(map(mul, a, b))


def _cholesky_solve(a, b):
    """``x`` with ``a x = b`` for a symmetric positive definite ``a``;
    None when the factorisation fails in floats."""
    n = len(b)
    low = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            s = a[i][j] - _dot(low[i][:j], low[j][:j])
            if i == j:
                if not s > 0.0:
                    return None
                low[i][i] = math.sqrt(s)
            else:
                low[i][j] = s / low[j][j]
    y = []
    for i in range(n):
        y.append((b[i] - _dot(low[i][:i], y)) / low[i][i])
    x = [0.0] * n
    for i in reversed(range(n)):
        x[i] = (y[i] - _dot([low[k][i] for k in range(i + 1, n)],
                            x[i + 1:])) / low[i][i]
    return x


def least_squares(residual, jacobian, x0, lower, *, what: str) -> list:
    """Parameters ``x >= lower`` minimising the sum of ``residual(x)``
    squared.

    ``jacobian(x)`` returns the residuals' derivatives, one list per
    parameter. Raises FitError, naming ``what`` fit stopped, why, and after
    how many residual evaluations, when the residual, the Jacobian or JᵀJ
    is not finite or MAX_NFEV evaluations pass without converging.
    """

    def fail(why):
        return FitError(f"{what} fit did not converge: {why} after {nfev} "
                        f"evaluation{'s' if nfev > 1 else ''}")

    lower = [float(b) for b in lower]
    x = [max(float(v), b) for v, b in zip(x0, lower)]
    r = residual(x)
    cost = _dot(r, r)
    nfev = 1
    if not math.isfinite(cost):
        raise fail("the residual at the seed is not finite")
    lam = 1e-3
    while True:
        jac = jacobian(x)
        minus_jtr = [-_dot(column, r) for column in jac]
        hess = [[0.0] * len(jac) for _ in jac]
        for i, a in enumerate(jac):
            for k in range(i + 1):
                hess[i][k] = hess[k][i] = _dot(a, jac[k])
        # The diagonal holds each column's sum of squares, so it is finite
        # unless the Jacobian is not or the sums overflow. A finite diagonal
        # bounds every entry (Cauchy-Schwarz), so enough damping always
        # makes the factorisation succeed.
        if not all(math.isfinite(row[k]) for k, row in enumerate(hess)):
            if not all(map(math.isfinite, chain.from_iterable(jac))):
                raise fail("the Jacobian is not finite")
            raise fail("the normal equations overflow")
        # a parameter the residuals do not depend on gets unit scale
        scale = [row[k] if row[k] > 0.0 else 1.0 for k, row in enumerate(hess)]
        while True:
            if nfev >= MAX_NFEV:
                raise fail("the evaluation limit was reached")
            step = _cholesky_solve(
                [[h + lam * scale[i] if i == k else h
                  for k, h in enumerate(row)] for i, row in enumerate(hess)],
                minus_jtr)
            if step is None:
                # Not positive definite in floats (JᵀJ singular and lam too
                # small to show): damp harder, as after a rejected step. The
                # floor keeps a lam that underflowed to 0 from staying there.
                lam = max(lam * 10.0, 1e-300)
                continue
            x_new = [max(v + s, b) for v, s, b in zip(x, step, lower)]
            r_new = residual(x_new)
            cost_new = _dot(r_new, r_new)
            nfev += 1
            small = math.dist(x_new, x) <= XTOL * (XTOL + math.hypot(*x))
            if cost_new < cost:
                break
            if small:
                # Not even a vanishing step lowers the cost: x is the
                # minimum to float precision, unless the residual broke.
                if not math.isfinite(cost_new):
                    raise fail("the residual is not finite near the solution")
                return x
            lam *= 10.0
        converged = small or cost - cost_new <= FTOL * cost
        x, r, cost = x_new, r_new, cost_new
        lam /= 10.0
        if converged:
            return x
