"""The three workloads: the operations of one round and how each is checked.

A round is a fixed list of operations.  Each operation is one CLI command,
driven in-process through ``ringspec.cli.main`` with its output captured, or
one library call.  Its check compares the output with :mod:`reference` and
returns None when it holds, else the reason it does not.

Program functions are looked up on their modules at call time, so that a
traced run sees the wrapped versions.
"""

from __future__ import annotations

import functools
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import reference as ref


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    #: a known program fault (F1-F3 in the README) that fails this operation
    #: on every run; its inputs do not depend on the seed
    fault: str | None = None
    mask: str = ""  # the mask the operation acts on, if one
    scan_sizes: tuple[int, ...] = ()  # the sizes n whose 2^n masks a scan checks

    @property
    def masks(self) -> list[str]:
        if self.scan_sizes:
            return [format(b, f"0{n}b") for n in self.scan_sizes for b in range(2 ** n)]
        return [self.mask] if self.mask else []


def cli(rs, argv: list[str]) -> tuple[int, str]:
    """Run one ringspec command in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = rs.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue()


def two_gap_mask(n: int, i: int, shift: int = 0) -> str:
    """Reverse arcs missing at positions i and n (1-based), rotated by shift."""
    mask = "".join("0" if j in (i - 1, n - 1) else "1" for j in range(n))
    return mask[shift:] + mask[:shift]


def random_multi_gap(rng: random.Random, n: int) -> str:
    """Independent fair bits, redrawn until at least three arcs are missing."""
    while True:
        mask = "".join(rng.choice("01") for _ in range(n))
        if 3 <= mask.count("0") < n:
            return mask


def random_split(rng: random.Random, n: int) -> str:
    """Two missing arcs whose gaps differ by at least two, at a random rotation."""
    i = rng.choice([i for i in range(1, n) if abs(n - 2 * i) >= 2])
    return two_gap_mask(n, i, rng.randrange(n))


# ---------------------------------------------------------------- checks

def _json(result) -> tuple[int, dict | None]:
    code, text = result
    try:
        return code, json.loads(text)
    except json.JSONDecodeError:
        return code, None


# Reference values are computed on first use and kept: every round repeats
# the same inputs, and their elimination would otherwise take a quarter of a
# run on the exact workload.

@functools.cache
def ring_tree_counts(mask: str) -> list[int]:
    return ref.tree_counts(ref.ring_laplacian(mask))


@functools.cache
def ring_det_values(mask: str) -> list[int]:
    """det(kI - L) at k = 1, 2, 3."""
    rows = ref.ring_laplacian(mask)
    return [ref.det(ref.shifted(rows, k)) for k in (1, 2, 3)]


def check_char_poly(coeffs: list[int], mask: str) -> str | None:
    """det(kI - L) at k = 1, 2, 3, the trace, the zero constant term and matrix-tree."""
    n = len(mask)
    if len(coeffs) != n + 1 or coeffs[n] != 1:
        return f"char_poly is not monic of degree {n}"
    if coeffs[0] != 0:
        return "char_poly has a nonzero constant term"
    if coeffs[n - 1] != -ref.trace(ref.ring_laplacian(mask)):
        return "char_poly x^(n-1) coefficient is not -trace(L)"
    for k, value in zip((1, 2, 3), ring_det_values(mask)):
        if ref.eval_int(coeffs, k) != value:
            return f"char_poly({k}) != det({k}I - L)"
    if coeffs[1] != (-1) ** (n - 1) * sum(ring_tree_counts(mask)):
        return "char_poly x coefficient does not count the converging trees"
    return None


def check_spectrum(expected, roots) -> str | None:
    tol = ref.spectrum_tol(expected)
    dist = ref.match_distance(expected, roots)
    return None if dist <= tol else f"spectrum off by {dist:.2e} > {tol:.0e}"


def check_record(d: dict, mask: str) -> str | None:
    """A classification record: gaps, verdict, case, spectrum and char_poly."""
    n = len(mask)
    cyclic, case = ref.rule_table(mask)
    gaps = ref.gaps(mask)
    if (d["n"], d["mask"], d["K"]) != (n, mask, mask.count("0")):
        return "n, mask or K differ"
    if sorted(d["gaps"]) != sorted(gaps):
        return f"gaps {d['gaps']} != {gaps}"
    if (d["essentially_cyclic"], d["case"]) != (cyclic, case):
        return f"verdict {d['essentially_cyclic']}/{d['case']} != {cyclic}/{case}"
    expected = ref.closed_form(mask)
    if expected is None:
        if d["spectrum"] is not None:
            return "spectrum reported where no closed form exists"
    else:
        if d["spectrum"] is None:
            return "closed-form spectrum missing"
        bad = check_spectrum(expected, [complex(a, b) for a, b in d["spectrum"]])
        if bad:
            return bad
    return check_char_poly([int(c) for c in d["char_poly"]], mask)


def classify_check(mask: str, numeric: bool):
    def check(result):
        code, d = _json(result)
        if code != 0 or d is None:
            return f"exit {code}"
        bad = check_record(d, mask)
        if bad or not numeric:
            return bad
        cyclic, _ = ref.rule_table(mask)
        verdict, agrees = d["numeric_essentially_cyclic"], d["numeric_agrees"]
        if verdict != cyclic or agrees is not True:
            return f"numeric verdict {verdict}, agrees {agrees}"
        return None
    return check


def spectrum_cli_check(mask: str):
    def check(result):
        code, d = _json(result)
        if code != 0 or d is None:
            return f"exit {code}"
        if d["numeric_converged"] is not True:
            return "numeric spectrum did not converge"
        bad = check_spectrum(ref.closed_form(mask), [complex(a, b) for a, b in d["numeric"]])
        return bad or check_char_poly([int(c) for c in d["char_poly"]], mask)
    return check


def rootset_check(mask: str):
    """A certified library spectrum: closed form where one exists, else eigvals."""
    def check(rootset):
        if not rootset.converged:
            return "root set did not converge"
        expected = ref.closed_form(mask)
        if expected is None:
            expected = np.linalg.eigvals(np.array(ref.dense(ref.ring_laplacian(mask)), dtype=float))
        return check_spectrum(expected, rootset.roots)
    return check


def scan_check(sizes: tuple[int, ...]):
    def check(result):
        code, d = _json(result)
        if d is None:
            return f"exit {code}"
        if d["instances"] != sum(2 ** n for n in sizes):
            return f"instances {d['instances']} != sum of 2^n over {sizes}"
        if d["disagreements"] or d["ambiguous"] or code != 0:
            return (f"exit {code}: {len(d['disagreements'])} disagreements, "
                    f"{len(d['ambiguous'])} ambiguous")
        return None
    return check


def trees_check(mask: str, i: int | None):
    n = len(mask)

    def check(result):
        code, d = _json(result)
        if code != 0 or d is None:
            return f"exit {code}"
        per_root = d["per_root"]
        if len(per_root) != n or sum(per_root) != d["total"]:
            return "per-root counts do not sum to the total"
        if mask == "1" * n:
            expected = [n] * n
        elif mask == "0" * n:
            expected = [1] * n
        else:
            if d["total"] != ref.two_gap_tree_total(n, i):
                return f"total {d['total']} != {ref.two_gap_tree_total(n, i)}"
            expected = ring_tree_counts(mask)
        return None if per_root == expected else "per-root counts differ from the minors"
    return check


@functools.cache
def path_reference(n: int) -> tuple[list[dict[int, int]], list[float], list[int]]:
    """Path Laplacian, coefficients of prod (x - 4cos^2(pi k/2n)), det(kI - P) at k = 1, 2, 3."""
    rows = ref.path_laplacian(n)
    approx = ref.monic_from_roots(ref.path_spectrum(n))
    return rows, approx, [ref.det(ref.shifted(rows, k)) for k in (1, 2, 3)]


def path_check(n: int):
    def check(poly):
        rows, approx, dets = path_reference(n)
        coeffs = list(poly.coefficients)
        if len(coeffs) != n + 1 or coeffs[0] != 0:
            return "path char poly has the wrong degree or a nonzero constant term"
        if any(abs(c - a) > 1e-9 * abs(c) for c, a in zip(coeffs[1:], approx[1:])):
            return "path char poly roots differ from 4cos^2(pi k/2n)"
        if coeffs[n - 1] != -ref.trace(rows):
            return "x^(n-1) coefficient is not -trace"
        for k, value in zip((1, 2, 3), dets):
            if ref.eval_int(coeffs, k) != value:
                return f"p({k}) != det({k}I - P)"
        return None
    return check


def simulate_check(n: int):
    def check(result):
        code, d = _json(result)
        if code != 0 or d is None:
            return f"exit {code}"
        if d["case"] != "full-cycle" or d["essentially_cyclic"] is not True:
            return "bare cycle not reported essentially cyclic"
        target = math.sin(2 * math.pi / n)
        got = d["measured_frequency"]
        if got is None or abs(got - target) > 0.05 * target:
            return f"frequency {got} not within 5% of {target:.6f}"
        return None
    return check


# ---------------------------------------------------------------- workloads

def scan_ops(rs, rng: random.Random) -> list[Op]:
    """Exhaustive scans of every mask, n = 3 and 4 together, then each n = 5..12,
    and the F1 mask.

    One command per n keeps every operation under two seconds, so a run
    times each of them several times.  F1 is the symmetric ring at n = 15
    through ``classify --numeric``: the per-mask route to the same
    double-precision verdict that makes ``scan --n-min 15 --n-max 15``
    report it as a disagreement, in 0.4 s instead of that scan's 7.6 s.
    """
    ops = []
    for lo, hi in [(3, 4)] + [(n, n) for n in range(5, 13)]:
        sizes = tuple(range(lo, hi + 1))
        argv = ["scan", "--n-min", str(lo), "--n-max", str(hi)]
        ops.append(Op(f"scan {lo}..{hi}", lambda argv=argv: cli(rs, argv), scan_check(sizes),
                      scan_sizes=sizes))
    mask = family_mask("symmetric", 15)
    argv = ["classify", "15", mask, "--numeric"]
    ops.append(Op("classify --numeric symmetric 15", lambda: cli(rs, argv),
                  classify_check(mask, numeric=True), fault="F1", mask=mask))
    return ops


#: (family, n) of the certified library spectra with a closed form
#: (each under 0.3 s, so that a run times each of them several times)
CERTIFIED = [("single", 16), ("single", 20), ("balanced", 16), ("balanced", 20),
             ("near", 9), ("near", 11), ("bare", 20), ("bare", 28),
             ("symmetric", 8), ("symmetric", 10)]
#: (family, n) of the double-precision CLI spectra
DOUBLE_SPECTRA = [("single", 5), ("single", 8), ("balanced", 4), ("balanced", 8),
                  ("near", 3), ("near", 5), ("bare", 6), ("bare", 12),
                  ("symmetric", 3), ("symmetric", 4)]


def family_mask(family: str, n: int) -> str:
    """A mask of one of the closed-form families ("near" wants odd n)."""
    if family == "single":
        return "0" + "1" * (n - 1)
    if family in ("balanced", "near"):
        return two_gap_mask(n, n // 2)
    return {"bare": "0", "symmetric": "1"}[family] * n


def spectra_ops(rs, rng: random.Random) -> list[Op]:
    """Certified mpmath spectra, double-precision CLI spectra and RK4 reports."""
    ops = []

    def certified(label, mask):
        n = len(mask)
        g = rs.ringgraph.RingDigraph.from_mask_string(n, mask)
        cfg = rs.rootfind.RootFinderConfig(working_dps=30 + n)
        ops.append(Op(label, lambda: rs.rootfind.refine_all(rs.ringgraph.spectrum_numeric(g, cfg)),
                      rootset_check(mask), mask=mask))

    for family, n in CERTIFIED:
        certified(f"certified {family} {n}", family_mask(family, n))
    for n in (12, 14, 16):
        certified(f"certified multi-gap {n}", random_multi_gap(rng, n))

    for family, n in DOUBLE_SPECTRA:
        mask = family_mask(family, n)
        argv = ["spectrum", str(n), mask, "--method", "numeric"]
        ops.append(Op(f"spectrum {family} {n}", lambda argv=argv: cli(rs, argv),
                      spectrum_cli_check(mask), mask=mask))
    for n in (20, 40):
        mask = family_mask("single", n)
        argv = ["spectrum", str(n), mask, "--method", "numeric"]
        ops.append(Op(f"spectrum single {n}", lambda argv=argv: cli(rs, argv),
                      spectrum_cli_check(mask), fault="F2", mask=mask))

    numeric = [family_mask(f, n) for f, n in
               [("single", 8), ("balanced", 8), ("near", 9), ("bare", 8), ("symmetric", 8)]]
    numeric += [random_multi_gap(rng, n) for n in (7, 9, 11, 12)]
    for mask in numeric:
        argv = ["classify", str(len(mask)), mask, "--numeric"]
        ops.append(Op(f"classify --numeric {mask}", lambda argv=argv: cli(rs, argv),
                      classify_check(mask, numeric=True), mask=mask))
    for n in (20, 30):
        mask = family_mask("single", n)
        argv = ["classify", str(n), mask, "--numeric"]
        ops.append(Op(f"classify --numeric single {n}", lambda argv=argv: cli(rs, argv),
                      classify_check(mask, numeric=True), fault="F3", mask=mask))

    for n in range(3, 11):
        argv = ["simulate", str(n), "0" * n, "--report"]
        ops.append(Op(f"simulate {n}", lambda argv=argv: cli(rs, argv), simulate_check(n),
                      mask="0" * n))
    return ops


def exact_ops(rs, rng: random.Random) -> list[Op]:
    """Exact classification, Bareiss tree counts and Faddeev-LeVerrier."""
    ops = []

    def classify(label, mask):
        argv = ["classify", str(len(mask)), mask]
        ops.append(Op(label, lambda: cli(rs, argv), classify_check(mask, numeric=False),
                      mask=mask))

    # many of them, so that the median operation's time hardly depends on the
    # seed's draw of any one mask
    for n in range(40, 121, 2):
        classify(f"classify multi-gap {n}", random_multi_gap(rng, n))
    for n in range(40, 121, 5):
        classify(f"classify split {n}", random_split(rng, n))
    for n in (40, 50, 60):
        classify(f"classify symmetric {n}", "1" * n)

    def trees(label, mask, i=None):
        argv = ["trees", str(len(mask)), mask]
        ops.append(Op(label, lambda: cli(rs, argv), trees_check(mask, i), mask=mask))

    for n in range(20, 41, 4):
        i = rng.randint(1, n - 1)
        trees(f"trees two-gap {n}", two_gap_mask(n, i, rng.randrange(n)), i)
    trees("trees symmetric 24", "1" * 24)
    trees("trees bare 24", "0" * 24)

    for n in (10, 20, 30, 40):
        matrix = ref.dense(ref.path_laplacian(n))
        ops.append(Op(f"char_poly_exact path {n}",
                      lambda matrix=matrix: rs.rootfind.char_poly_exact(matrix), path_check(n)))
    return ops


WORKLOADS = {"scan": scan_ops, "spectra": spectra_ops, "exact": exact_ops}


def gap_multiset_repeat_share(ops: list[Op]) -> float:
    """Share of a round's masks whose (n, K, sorted gaps) came earlier in the round."""
    masks = [m for op in ops for m in op.masks]
    seen = {(len(m), m.count("0"), tuple(sorted(ref.gaps(m)))) for m in masks}
    return 1 - len(seen) / len(masks)
