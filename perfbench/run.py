"""ringspec benchmark: one workload in this process, checked, timed or traced.

    python3 perfbench/run.py --workload scan|spectra|exact --seed N \\
        --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.  The
run repeats whole rounds of the workload's operations until another round
would end past S seconds (at least one round), checks every output against
``reference.py`` and prints one JSON line last: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, their times scaled by the load factor (``load_factor``);
with ``--trace 1`` one untraced round is followed by traced rounds, and the
metrics are the per-layer ones from ``tracing.py``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: fresh processes that time set-up alone, on top of this process's own set-up;
#: one runs after each round, the rest after the last round
SETUP_SAMPLES = 8
#: calibration loops timed right after each set-up, in the same process
SETUP_LOOPS = 10
DEFAULT_SEED = 1
#: about 4 ms of pure Python, timed before every operation of an untraced run
CALIBRATION_ITERATIONS = 50_000
#: reported times are scaled to a calibration loop median of this many
#: seconds, close to its median on the host of the README's reference figures
REFERENCE_LOOP_S = 0.004
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"), ("peak_rss_mb", "MB")]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["scan", "spectra", "exact"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="print this process's set-up time and exit")
    return p.parse_args(argv)


def setup(workload: str, seed: int):
    """Import ringspec from this checkout and build the workload's operations."""
    if not (ROOT / "src" / "ringspec" / "__init__.py").is_file():
        sys.exit(f"no ringspec sources under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import ringspec
    import ringspec.cli  # noqa: F401  (also imports arborescence, dynamics, weighted)

    return ringspec, workloads.WORKLOADS[workload](ringspec, random.Random(seed))


def calibration_loop() -> float:
    """Seconds taken by a fixed pure-Python loop that calls nothing of ringspec."""
    t0 = time.perf_counter()
    s = 0
    for i in range(CALIBRATION_ITERATIONS):
        s += i * i % 7
    return time.perf_counter() - t0


def run_round(ops, tracer=None, calibration=None) -> list[tuple[float, str | None]]:
    """(seconds, failure reason or None) for each operation, in order.

    With a `calibration` list, the calibration loop is timed before each
    operation and its time appended there.
    """
    results = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.current_op = i
        if calibration is not None:
            calibration.append(calibration_loop())
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # the program failed; count it and go on
            results.append((time.perf_counter() - t0, f"raised {exc!r}"))
            continue
        seconds = time.perf_counter() - t0
        try:
            failure = op.check(out)
        except Exception as exc:  # malformed output
            failure = f"check raised {exc!r}"
        results.append((seconds, failure))
    return results


def run_rounds(ops, seconds: float, tracer=None, between=None, calibration=None):
    """Whole rounds until the next would end past `seconds`; at least one.

    `between`, if given, is called after each round, inside the time limit;
    `calibration` is passed on to each round.
    Returns the rounds' results and each round's span id range.
    """
    rounds, spans = [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        lo = len(tracer.start) if tracer else 0
        r0 = time.perf_counter()
        rounds.append(run_round(ops, tracer, calibration))
        now = time.perf_counter()
        spans.append((lo, len(tracer.start) if tracer else 0))
        if between is not None:
            between()
            now = time.perf_counter()
        if (now - start) + (now - r0) > seconds:
            return rounds, spans


def op_medians(rounds) -> list[float]:
    """Each operation's median time over the rounds."""
    return [median(times) for times in zip(*([s for s, _ in r] for r in rounds))]


def round_wall(rounds) -> float:
    """Time of one round: each operation's median time over the rounds, summed.

    Per-operation medians drop a slow sample of one operation without
    dropping the rest of its round.
    """
    return sum(op_medians(rounds))


def load_factor(calibration: list[float]) -> float:
    """REFERENCE_LOOP_S over the calibration loop's median time in this run.

    Other tenants of the host slow every timing by a share that changes from
    one second to the next and from one minute to the next.  The calibration
    loop, timed before every operation, is slowed by the same share, so a
    median time times this factor is that time at the reference load.
    """
    return REFERENCE_LOOP_S / median(calibration)


def setup_cost(seconds: float) -> tuple[float, float]:
    """A set-up time as measured, and times the load factor of SETUP_LOOPS
    calibration loops timed right after it in the same process.

    Set-up samples run in fresh processes, often on the other CPU, whose
    load the loops of the benchmark's own process do not follow.
    """
    return seconds, seconds * load_factor([calibration_loop() for _ in range(SETUP_LOOPS)])


def setup_sample(args) -> tuple[float, float]:
    """setup_cost of one fresh process that does nothing else."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    measured, scaled = proc.stdout.split()[-2:]
    return float(measured), float(scaled)


def per_layer(tracer, ops, untraced, traced, spans):
    """The per-layer metrics, and every wrapped function's totals per traced round."""
    totals = [tracer.layer_totals(lo, hi) for lo, hi in spans]
    masks = sum(2 ** n for op in ops for n in op.scan_sizes)
    solves = tracer.solves_under_scan(*spans[0])
    values = {"trace.overhead_s": round_wall(traced) - round_wall(untraced),
              "ringgraph.scan.solves_per_mask": solves / masks if masks else 0.0}
    for metric, _ in tracing.PER_LAYER:
        if metric in values:
            continue
        name, field = metric.rsplit(".", 1)
        if field == "calls":
            values[metric] = totals[0].get(name, (0, 0.0))[0]
        else:
            values[metric] = 1000 * median(t.get(name, (0, 0.0))[1] for t in totals)
    return values, totals


def main(argv=None) -> int:
    args = parse_args(argv)
    ringspec, ops = setup(args.workload, args.seed)
    own_setup = time.perf_counter() - T0
    if args.setup_only:
        print(*setup_cost(own_setup))
        return 0

    if args.trace:
        untraced, _ = run_rounds(ops, 0)
        tracer = tracing.Tracer()
        tracer.install(ringspec)
        traced, spans = run_rounds(ops, args.seconds - (time.perf_counter() - T0 - own_setup),
                                   tracer)
        tracer.uninstall()
        rounds = untraced + traced
        values, totals = per_layer(tracer, ops, untraced, traced, spans)
        units = dict(tracing.PER_LAYER)
        tag = f"{args.workload}-seed{args.seed}"
        tracer.write(OUT / f"spans-{tag}.npz", [op.label for op in ops])
        (OUT / f"layers-{tag}.json").write_text(json.dumps(
            {"rounds": [{k: {"calls": c, "self_ms": 1000 * s} for k, (c, s) in t.items()}
                        for t in totals],
             "gap_multiset_repeat_share": workloads.gap_multiset_repeat_share(ops)},
            indent=1, sort_keys=True))
    else:
        samples = [setup_cost(own_setup)]

        def sample_setup():
            if len(samples) <= SETUP_SAMPLES:
                samples.append(setup_sample(args))

        calibration = []
        rounds, _ = run_rounds(ops, args.seconds - (time.perf_counter() - T0 - own_setup),
                               between=sample_setup, calibration=calibration)
        while len(samples) <= SETUP_SAMPLES:
            sample_setup()
        raw = {"setup_s": median(m for m, _ in samples), "wall_s": round_wall(rounds),
               "op_p50_ms": 1000 * median(op_medians(rounds))}
        factor = load_factor(calibration)
        print(f"load factor {factor:.4f} from {len(calibration)} calibration loops; "
              f"as measured: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()),
              file=sys.stderr)
        values = {"setup_s": median(c for _, c in samples), "wall_s": factor * raw["wall_s"],
                  "op_p50_ms": factor * raw["op_p50_ms"]}
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = dict(END_TO_END)

    failures = {(i, reason) for r in rounds for i, (_, reason) in enumerate(r) if reason}
    for i, reason in sorted(failures):
        tag = ops[i].fault or "UNEXPECTED"
        print(f"failed [{tag}] {ops[i].label}: {reason}", file=sys.stderr)
    walls = ", ".join(f"{sum(s for s, _ in r):.3f}" for r in rounds)
    print(f"{args.workload}: {len(rounds)} rounds of {len(ops)} operations, "
          f"{walls} s", file=sys.stderr)
    result = {
        "correct": all(ops[i].fault for i, _ in failures),
        "attempted": sum(len(r) for r in rounds),
        "failed": sum(1 for r in rounds for _, reason in r if reason),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
