"""Shared helpers for the test suite."""

from __future__ import annotations

from fractions import Fraction

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
