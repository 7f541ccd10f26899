"""Command-line interface.

Verdicts go to stdout as JSON, grids and trajectories as CSV with a declared
header; diagnostics go to stderr.  Exit codes: 0 success, 1 a disagreement
was found (``scan``, ``classify --numeric``) or a numeric spectrum could not
be certified (``spectrum``), 2 invalid input.  The
``weighted`` verdicts are computed on the weights' exact rational values.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from . import arborescence, dynamics, weighted
from .ringgraph import (
    RingDigraph,
    classification_record,
    closed_form_spectrum,
    exhaustive_scan,
    laplacian,
    spectrum_numeric,
)
from .rootfind import char_poly_exact, spectral_verdict

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_BAD_INPUT = 2


def _emit(payload: dict, pretty: bool) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2 if pretty else None))


def _parse_graph(args) -> RingDigraph:
    return RingDigraph.from_mask_string(args.n, args.mask)


def _cmd_classify(args) -> int:
    g = _parse_graph(args)
    record = classification_record(g)
    if args.numeric:
        # the matrix's own polynomial, not the record's gap product
        verdict = spectral_verdict(char_poly_exact(laplacian(g)))
        record["numeric_essentially_cyclic"] = verdict
        record["numeric_agrees"] = verdict == record["essentially_cyclic"]
    _emit(record, args.json)
    if args.numeric and not record["numeric_agrees"]:
        print(f"disagreement at n={g.n} mask={g.mask_string()}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    g = _parse_graph(args)
    out: dict = {"n": g.n, "mask": g.mask_string(), "method": args.method}
    if args.method in ("exact", "both"):
        spec = closed_form_spectrum(g)
        out["closed_form"] = None if spec is None else [[z.real, z.imag] for z in spec]
    if args.method in ("numeric", "both"):
        rs = spectrum_numeric(g)
        out["numeric"] = rs.to_json()
        out["numeric_converged"] = rs.converged
        out["max_radius"] = rs.max_radius
        out["char_poly"] = [str(c) for c in rs.source]
    _emit(out, args.json)
    if "numeric" in out and not out["numeric_converged"]:
        print(f"numeric failure: no certified spectrum at n={g.n} mask={g.mask_string()}",
              file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def _cmd_scan(args) -> int:
    if args.n_min < 3 or args.n_max < args.n_min:
        raise ValueError(f"need 3 <= n-min <= n-max, got {args.n_min}..{args.n_max}")
    results = []
    for n in range(args.n_min, args.n_max + 1):
        start = time.perf_counter()
        r = exhaustive_scan(n)
        print(f"scan n={n}: {r['instances']} masks, {r['decompositions']} decompositions, "
              f"{r['multisets']} multisets checked, "
              f"{1000 * (time.perf_counter() - start):.1f} ms", file=sys.stderr)
        results.append(r)
    instances = sum(r["instances"] for r in results)
    disagreements = sorted((r["n"], m) for r in results for m in r["disagreements"])
    payload = {
        "n_min": args.n_min,
        "n_max": args.n_max,
        "instances": instances,
        "decompositions": sum(r["decompositions"] for r in results),
        "multisets": sum(r["multisets"] for r in results),
        "disagreements": [{"n": n, "mask": m} for n, m in disagreements],
        # kept for the output's readers: the Sturm verdict is never ambiguous
        "ambiguous": [],
        "message": f"{len(disagreements)} disagreements over {instances} instances",
    }
    _emit(payload, args.json)
    if disagreements:
        for n, m in disagreements:
            print(f"disagreement at n={n} mask={m}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def _cmd_trees(args) -> int:
    if args.i is not None and args.mask is not None:
        raise ValueError("give a mask or --i, not both")
    if args.i is not None:
        payload = {"n": args.n, "i": args.i,
                   "t": arborescence.tree_count_formula(args.n, args.i)}
    elif args.mask is not None:
        g = RingDigraph.from_mask_string(args.n, args.mask)
        payload = arborescence.count_record(g)
    else:
        raise ValueError("provide a mask or --i")
    _emit(payload, args.json)
    return EXIT_OK


def _parse_k3_weights(text: str) -> weighted.WeightMatrix:
    data = json.loads(text)
    flat = isinstance(data, list) and len(data) == 6
    square = isinstance(data, list) and len(data) == 3 and all(
        isinstance(row, list) and len(row) == 3 for row in data)
    if not (flat or square):
        raise ValueError("k3 weights must be [a,b,c,alpha,beta,gamma] or a 3x3 matrix")
    # JSON numbers only: bool is an int subclass and float() reads strings
    values = data if flat else [v for row in data for v in row]
    if not all(type(v) in (int, float) for v in values):
        raise ValueError("k3 weights must be JSON numbers")
    return weighted.k3_matrix(*data) if flat else weighted.WeightMatrix(data)


def _cmd_weighted_k3(args) -> int:
    wm = _parse_k3_weights(args.weights)
    disc = weighted.k3_discriminant(wm)
    try:
        rounded = float(disc)
    except OverflowError:  # the verdicts are exact all the same
        rounded = None
    scaled = weighted.integer_scaled(weighted.weighted_laplacian(wm))
    payload = {
        "weights": [list(r) for r in wm.w],
        # the exact value, rounded once; null past double range
        "discriminant": rounded,
        "triangle_criterion": weighted.k3_classify(wm),
        "essentially_cyclic": disc < 0,
        "numeric_essentially_cyclic": spectral_verdict(char_poly_exact(scaled)),
    }
    _emit(payload, args.json)
    return EXIT_OK


def _cmd_weighted_chorded_c4(args) -> int:
    y1, y2 = weighted.chorded_c4_boundary(args.p)
    _emit({"p": args.p, "boundary": [y1, y2]}, args.json)
    return EXIT_OK


def _cmd_weighted_c4(args) -> int:
    grid_max = (args.a_max, args.x_max)
    if not all(math.isfinite(v) and v > 0 for v in grid_max) or args.steps < 2:
        raise ValueError("need finite positive a-max/x-max and steps >= 2")
    a_grid = np.linspace(0.0, args.a_max, args.steps)
    x_grid = np.linspace(0.0, args.x_max, args.steps)
    samples = weighted.c4_scan(a_grid.tolist(), x_grid.tolist())
    sys.stdout.write(weighted.scan_csv(samples))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    g = _parse_graph(args)
    x0 = None
    if args.x0 is not None:
        x0 = tuple(float(v) for v in args.x0.split(","))
    cfg = dynamics.SimConfig(step=args.step, horizon=args.horizon,
                             initial_state=x0, seed=args.seed)
    if args.report:
        _emit(dynamics.oscillation_report(g, cfg), args.json)
    else:
        traj = dynamics.simulate(laplacian(g), cfg)
        sys.stdout.write(dynamics.trajectory_csv(traj))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ringspec",
        description="Spectral classification of digraphs with ring structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_args(p):
        p.add_argument("n", type=int, help="number of vertices (>= 3)")
        p.add_argument("mask", help="reverse-arc presence mask, e.g. 1101")

    p = sub.add_parser("classify", help="exact cyclicity classification")
    add_graph_args(p)
    p.add_argument("--numeric", action="store_true",
                   help="also run the numeric oracle and report agreement")
    p.add_argument("--json", action="store_true", help="pretty-print JSON")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("spectrum", help="closed-form and/or numeric spectrum")
    add_graph_args(p)
    p.add_argument("--method", choices=["exact", "numeric", "both"], default="both")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("scan", help="exhaustive exact-vs-numeric agreement scan")
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_scan)

    p = sub.add_parser("trees", help="spanning converging tree counts")
    p.add_argument("n", type=int)
    p.add_argument("mask", nargs="?", default=None)
    p.add_argument("--i", type=int, default=None,
                   help="closed-form count for the two-gap digraph with gaps (i, n-i)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_trees)

    p = sub.add_parser("weighted", help="weighted small-digraph criteria")
    wsub = p.add_subparsers(dest="family", required=True)
    pk = wsub.add_parser("k3", help="complete 3-vertex digraph")
    pk.add_argument("--weights", required=True,
                    help='JSON: [a,b,c,alpha,beta,gamma] or 3x3 matrix')
    pk.add_argument("--json", action="store_true")
    pk.set_defaults(fn=_cmd_weighted_k3)
    pc = wsub.add_parser("chorded-c4", help="4-cycle with a shortcut arc")
    pc.add_argument("--p", type=float, required=True, help="shortcut arc weight")
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(fn=_cmd_weighted_chorded_c4)
    p4 = wsub.add_parser("c4", help="weighted 4-cycle region scan (CSV)")
    p4.add_argument("--a-max", type=float, default=12.0)
    p4.add_argument("--x-max", type=float, default=12.0)
    p4.add_argument("--steps", type=int, default=50)
    p4.set_defaults(fn=_cmd_weighted_c4)

    p = sub.add_parser("simulate", help="consensus trajectory / oscillation report")
    add_graph_args(p)
    p.add_argument("--step", type=float, default=0.02)
    p.add_argument("--horizon", type=float, default=30.0)
    p.add_argument("--x0", default=None, help="comma-separated initial state")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", action="store_true",
                   help="emit the oscillation report JSON instead of the CSV")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    # coefficients of large n run past CPython's int-to-str digit limit; the
    # digits are the program's own output, so print them whole
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
