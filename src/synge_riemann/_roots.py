"""Bracketed scalar root finding by Brent's method.

R. P. Brent, *Algorithms for Minimization without Derivatives*
(Prentice-Hall, 1973), ch. 4: inverse quadratic interpolation, the secant
step and bisection, with the bracket kept around the root.  `brentq` is a
line-for-line port of SciPy's `brentq.c` (optimize/Zeros/brentq.c), so it
visits the same iterates and returns the same root.  The one difference is
that the caller passes the values at both ends of the bracket, which every
caller in the package already holds; SciPy evaluates them again.
"""

from .errors import BracketError, ConvergenceError

#: Relative tolerance of every root, SciPy's floor of 4 eps.
RTOL = 8.9e-16
#: Iterations before ConvergenceError, SciPy's default.
MAXITER = 100


def brentq(f, a, b, fa, fb, xtol):
    """Root of f in the bracket [a, b], given fa = f(a) and fb = f(b) of
    opposite signs.

    Returns the current iterate once it lies within (xtol + RTOL |x|) / 2 of
    the other end of the bracket, or once f vanishes there.  A same-sign
    bracket raises BracketError, a NaN value or MAXITER iterations without
    convergence ConvergenceError.
    """
    if fa != fa or fb != fb:
        raise ConvergenceError(f"objective is NaN at an end of the bracket ({a!r}, {b!r})")
    xpre, xcur, fpre, fcur = a, b, fa, fb
    xblk = fblk = spre = scur = 0.0
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise BracketError(f"f(a)={fa!r} and f(b)={fb!r} have the same sign", bracket=(a, b))
    for _ in range(MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
        if fcur != fcur:
            raise ConvergenceError(f"objective is NaN at x={xcur!r}")
    raise ConvergenceError(
        f"brentq did not converge in {MAXITER} iterations; last x={xcur!r}"
    )
