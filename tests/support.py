"""Shared helpers for the test suite."""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

import mpmath

from ringspec import rootfind
from ringspec.polycore import IntPolynomial


def match_multisets(expected, actual, tol: float) -> float:
    """Greedy nearest-neighbour matching of two complex multisets.

    Returns the largest matched distance; raises AssertionError on size
    mismatch or when some value cannot be matched within 100*tol (so the
    caller still sees the offending distance).
    """
    exp = [complex(v) for v in expected]
    act = [complex(v) for v in actual]
    assert len(exp) == len(act), f"multiset sizes differ: {len(exp)} vs {len(act)}"
    remaining = list(act)
    worst = 0.0
    for e in exp:
        dists = [abs(e - a) for a in remaining]
        idx = dists.index(min(dists))
        worst = max(worst, dists[idx])
        remaining.pop(idx)
    assert worst <= tol, f"multiset mismatch: worst distance {worst:.3e} > {tol:.0e}"
    return worst


def has_repeats(values, gap: float = 1e-7) -> bool:
    vals = [complex(v) for v in values]
    return any(
        abs(a - b) < gap
        for i, a in enumerate(vals) for b in vals[i + 1:]
    )


def spectrum_tol(expected) -> float:
    """1e-6 for spectra with repeated values, 1e-9 otherwise."""
    return 1e-6 if has_repeats(expected) else 1e-9


def exact_abs_at(p: IntPolynomial, x: float) -> float:
    """|p(x)| evaluated exactly at the (lossless) rational image of x."""
    return float(abs(sum(Fraction(c) * Fraction(x) ** i
                         for i, c in enumerate(p.coefficients))))


def dps_for(degree: int) -> int:
    """Working precision that keeps root clusters far below 1e-9."""
    return 30 + degree


def polyroots(p) -> tuple:
    """p's roots by mpmath.polyroots at 120 digits, one square-free factor at a time.

    The factors are Yun's (``rootfind._square_free_factors``), each root
    listed as often as its multiplicity.  Computed once per polynomial; a
    degree-20 factor takes about a second.
    """
    return _polyroots(rootfind._coefficients(p))


@functools.cache
def _polyroots(coeffs: tuple) -> tuple:
    roots = []
    with mpmath.workdps(120):
        for factor, k in rootfind._square_free_factors(coeffs):
            found = mpmath.polyroots([mpmath.mpf(c) for c in reversed(factor)],
                                     maxsteps=400, extraprec=600)
            roots += [r for r in found for _ in range(k)]
    return tuple(roots)


def newton_roots(p, starts, dps: int = 150, steps: int = 3) -> tuple[list, list[float]]:
    """p's roots by mpmath's Newton method, each proved by its Newton disc.

    The starts are fixed-point numbers (re + i im) * 2**-bits, as
    ``ComplexRootSet.working`` holds them, taken exactly.  Each takes
    ``steps`` Newton steps at ``dps`` digits; the disc of radius
    deg p * |p / p'| about the point it reaches holds a root of p.  Asserts
    that there is one start per degree of p and that the discs are pairwise
    disjoint, so that each holds exactly one root and p is square-free.
    Returns the points, as mpmath numbers, and the discs' radii.
    """
    coeffs = rootfind._coefficients(p)
    d = len(coeffs) - 1
    assert len(starts) == d, f"{len(starts)} starts for degree {d}"
    with mpmath.workdps(dps):
        cs = [mpmath.mpf(c) for c in reversed(coeffs)]
        points, radii = [], []
        for z in starts:
            z = mpmath.mpc(mpmath.ldexp(z.re, -z.bits), mpmath.ldexp(z.im, -z.bits))
            for _ in range(steps):
                value, slope = mpmath.polyval(cs, z, derivative=True)
                z -= value / slope
            value, slope = mpmath.polyval(cs, z, derivative=True)
            points.append(z)
            radii.append(d * abs(value / slope))
        for (z, r), (w, s) in itertools.combinations(zip(points, radii), 2):
            assert abs(z - w) > r + s, f"discs about {complex(z)} and {complex(w)} overlap"
        return points, [float(r) for r in radii]
