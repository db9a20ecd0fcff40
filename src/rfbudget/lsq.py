"""Bounded Levenberg–Marquardt least squares for the package's fits.

The fits have one, two or four parameters and at most a few hundred
residuals, so each step solves the damped normal equations

    (JᵀJ + lam * diag(JᵀJ)) step = -Jᵀr

directly (Marquardt, SIAM J. Appl. Math. 11(2), 1963). ``lam`` grows
tenfold when a step fails to lower the cost and shrinks tenfold when one
does; a lower bound holds by clipping the step.
"""

from .errors import FitError

# Stop when a step moves x by less than XTOL of its norm, or an accepted
# step lowers the cost by less than FTOL of it: far tighter than the usual
# library default of 1e-8, so the fits end at the minimum to about float
# precision. The seeded fits converge within 20 residual evaluations;
# MAX_NFEV only bounds a fit that cannot converge.
XTOL = 1e-12
FTOL = 1e-15
MAX_NFEV = 1000


def least_squares(residual, jacobian, x0, lower, *, what: str):
    """Parameters ``x >= lower`` minimising ``sum(residual(x) ** 2)``.

    ``jacobian(x)`` returns the residuals' derivatives, one column per
    parameter. Raises FitError, naming ``what`` fit stopped, why, and after
    how many residual evaluations, when the residual or Jacobian is not
    finite or MAX_NFEV evaluations pass without converging.
    """
    # numpy is loaded here, not at module import: only the fits use it.
    import numpy as np

    def fail(why):
        return FitError(f"{what} fit did not converge: {why} after {nfev} "
                        f"evaluation{'s' if nfev > 1 else ''}")

    lower = np.asarray(lower, dtype=float)
    x = np.maximum(np.asarray(x0, dtype=float), lower)
    r = residual(x)
    cost = r @ r
    nfev = 1
    if not np.isfinite(cost):
        raise fail("the residual at the seed is not finite")
    lam = 1e-3
    while True:
        jac = jacobian(x)
        if not np.isfinite(jac).all():
            raise fail("the Jacobian is not finite")
        grad = jac.T @ r
        hess = jac.T @ jac
        # a parameter the residuals do not depend on gets unit scale
        scale = np.diag(hess)
        scale = np.diag(np.where(scale > 0.0, scale, 1.0))
        while True:
            if nfev >= MAX_NFEV:
                raise fail("the evaluation limit was reached")
            # lstsq, not solve: a singular system must not raise LinAlgError
            step = np.linalg.lstsq(hess + lam * scale, -grad, rcond=None)[0]
            x_new = np.maximum(x + step, lower)
            r_new = residual(x_new)
            cost_new = r_new @ r_new
            nfev += 1
            small = (np.linalg.norm(x_new - x)
                     <= XTOL * (XTOL + np.linalg.norm(x)))
            if cost_new < cost:
                break
            if small:
                # Not even a vanishing step lowers the cost: x is the
                # minimum to float precision, unless the residual broke.
                if not np.isfinite(cost_new):
                    raise fail("the residual is not finite near the solution")
                return x
            lam *= 10.0
        converged = small or cost - cost_new <= FTOL * cost
        x, r, cost = x_new, r_new, cost_new
        lam /= 10.0
        if converged:
            return x
