"""Inversion of convex increasing functions on [0, inf) by Newton's method.

f must be convex and increasing with f(0) = 0, and the start hi must have
f(hi) >= x.  Every Newton step from the right of the root then lands between
the root and the current point, so the iterates fall monotonically to the
root.  Each psi(s) = r s + phi(ph s) of this package is of this kind with hi
= x / r, since phi >= 0, and so is the limit's r s + c s**alpha with hi =
min(x / r, (x / c)**(1 / alpha)).  Rounding can still throw a step out (from
an x / r decades above the root, f(hi) - x can cancel a step to 0), so the
solver keeps a bracket: hi, the last point with f >= x, and lo, the last with
f < x.  A step outside it takes their geometric mean, lo first raised to the
chord bound s x / f(s) (f(s) / s does not fall) if it left s with f(s) >= x.
"""

from __future__ import annotations

import math

from .errors import RootFindingError

_MAX_ITER = 200
_TOL = 1e-12


def invert_increasing(f, x, deriv, hi):
    """Solve f(s) = x for x >= 0 by Newton's method from hi; deriv is f'.

    Once |f(s) - x| <= 1e-12 x, returns the point one more Newton step on,
    where quadratic convergence leaves only rounding error; returns s within
    the looser 1e-12 max(1, x) once a step no longer moves it; otherwise,
    after at most 200 steps, raises RootFindingError with the residual.
    """
    if x < 0.0:
        raise ValueError(f"cannot invert at negative value {x}")
    if x == 0.0:
        return 0.0

    s, fs, lo, hi = hi, f(hi), 0.0, math.inf
    for _ in range(_MAX_ITER):
        step = s - (fs - x) / deriv(s)
        if abs(fs - x) <= _TOL * x:
            return step
        if step == s:
            break
        if fs < x:
            lo = s
        else:
            hi = s
        if not lo < step < hi and fs < math.inf:  # thrown out by rounding; f = inf gives no chord bound
            lo = lo if fs < x else max(lo, s * (x / fs))
            step = math.sqrt(lo) * math.sqrt(hi)
        s, fs = step, f(step)

    if abs(fs - x) <= _TOL * max(1.0, x):
        return s
    raise RootFindingError(f"Newton iteration stopped with residual {fs - x:.3e} at s = {s:.6e}")
