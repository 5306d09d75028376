"""ksubmax benchmark: seeded workloads driven through the public CLI in-process.

Run from the repository root:

    python3 perfbench/run.py --workload coverage-uniform --seed 1 --seconds 30 --trace 0

One process runs one workload as a closed loop with a single client: ops
are ``ksubmax.cli.main([...])`` calls made one at a time, with stdout
captured and parsed.  The run

1. generates, serializes and writes the inputs from ``--seed``, and does
   so again after every pass (``setup_s`` is the median of these),
2. runs one tiny untimed warm-up op,
3. repeats passes over the workload's op list until ``--seconds`` are
   spent, checking every output of every pass; each op's time is the
   median of its repetitions, each scaled to a reference host speed by a
   calibration kernel run around and inside it (see ``speed.py``),
4. prints a digest of the outputs and, as its last line, one JSON object
   with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced passes, requires both to give
identical outputs, and reports the per-layer metrics; the traced spans are
written to ``perfbench/traces/``.  ``--size tiny`` shrinks every instance
for the smoke test.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MIN_PASSES = 3


def _import_package():
    """Import ksubmax from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import ksubmax.cli
    except ImportError as err:
        sys.exit(f"perfbench: cannot import ksubmax from {SRC}: {err}")
    if SRC.resolve() not in Path(ksubmax.cli.__file__).resolve().parents:
        sys.exit(f"perfbench: ksubmax was imported from {ksubmax.cli.__file__}, "
                 f"not from {SRC}")


class Stopwatch:
    """Seconds since construction, less the calibration kernel's runs
    (``speed.paused``) that fell inside them."""

    def __init__(self, speed=None):
        self.speed = speed
        self.paused = speed.paused if speed is not None else 0.0
        self.start = time.perf_counter()

    def seconds(self) -> float:
        elapsed = time.perf_counter() - self.start
        if self.speed is not None:
            elapsed -= self.speed.paused - self.paused
        return elapsed


def run_op(op, speed=None) -> tuple[int, object, float, str, float]:
    """Run one CLI op; return exit code, parsed output, seconds, error text
    and start time."""
    import ksubmax.cli
    from workloads import parse_output

    out, err = io.StringIO(), io.StringIO()
    watch = Stopwatch(speed)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = ksubmax.cli.main(op.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an op that crashes is a failed op, not a crashed run
        return 1, None, watch.seconds(), traceback.format_exc(), watch.start
    seconds = watch.seconds()
    if code != 0:
        return code, None, seconds, err.getvalue(), watch.start
    try:
        return code, parse_output(op, out.getvalue()), seconds, "", watch.start
    except (ValueError, KeyError, TypeError) as exc:
        return 1, None, seconds, f"unparseable output: {exc}", watch.start


def run_pass(ops, tracer=None, speed=None) -> dict:
    """Run every op once, in order; time the whole pass and each op.

    ``speed`` is given for untraced passes run while it samples.
    """
    results = []
    op_runner = run_op if tracer is None else tracer.wrap(run_op, "harness.op")

    def body():
        for op_id, op in enumerate(ops, 1):
            if tracer is not None:
                tracer.op_id = op_id
            results.append(op_runner(op, speed))

    pass_runner = body if tracer is None else tracer.wrap(body, "harness.pass")
    start = time.perf_counter()
    pass_runner()
    run_s = time.perf_counter() - start
    return {
        "run_s": run_s,
        "codes": [r[0] for r in results],
        "summaries": [r[1] for r in results],
        "seconds": [r[2] for r in results],
        "errors": [r[3] for r in results],
        "starts": [r[4] for r in results],
    }


def digest_of(summaries) -> str:
    blob = json.dumps(summaries, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def check(ops, result, reference_digest, failures: list) -> int:
    """Check one untraced pass; return its failed-op count."""
    from workloads import check_pass

    problems = check_pass(ops, result["codes"], result["summaries"])
    failed = 0
    for op, err in zip(ops, result["errors"]):
        found = problems[op.name] + ([err.strip()] if err else [])
        if found:
            failed += 1
            failures.append(f"{op.name}: {'; '.join(found)}")
    if reference_digest is not None and digest_of(result["summaries"]) != reference_digest:
        failures.append("outputs differ from the first pass")
    return failed


def setup(workload, seed, size, workdir: Path, speed=None):
    """Generate, serialize and write the inputs into ``workdir``; return the
    ops, the warm-up instance, and the seconds and start time of it all."""
    from workloads import build

    workdir.mkdir()
    watch = Stopwatch(speed)
    ops, warm = build(workload, seed, size, workdir)
    return ops, warm, (watch.seconds(), watch.start)


def warm_up(warm) -> None:
    import ksubmax.cli

    with redirect_stdout(io.StringIO()):
        if ksubmax.cli.main(["solve", warm.path, "--epsilon", "0.5", "--format", "json"]):
            raise RuntimeError("warm-up op failed")


def best_seconds(passes) -> list[float]:
    """Each op's fastest unscaled repetition over the run's passes.

    Traced runs take ``trace_overhead`` (traced against untraced passes,
    which alternate through the run) and the per-op latency percentiles
    from these.
    """
    return [min(times) for times in zip(*(p["seconds"] for p in passes))]


def median_scaled(passes, speed) -> list[float]:
    """Each op's median scaled time over the run's passes."""
    return [statistics.median(speed.scaled(s, t, t + s) for s, t in samples)
            for samples in zip(*(zip(p["seconds"], p["starts"]) for p in passes))]


def end_to_end(ops, passes, setups, speed) -> dict[str, tuple[float, str]]:
    from workloads import pass_counts

    op_s = median_scaled(passes, speed)
    setup_s = statistics.median(speed.scaled(s, t, t + s) for s, t in setups)

    def kind_s(kind):
        return sum(s for op, s in zip(ops, op_s) if op.kind == kind)

    counts = pass_counts(ops, passes[0]["summaries"])
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (sum(op_s), "s"),
        "threshold_s": (kind_s("threshold"), "s"),
        "greedy_s": (kind_s("greedy"), "s"),
        "bench_s": (kind_s("bench"), "s"),
        "verify_s": (kind_s("verify"), "s"),
        "eo_calls": (counts["eo_calls"], "count"),
        "io_calls": (counts["io_calls"], "count"),
        "value_sum": (counts["value_sum"], "value"),
        "ratio_min": (counts["ratio_min"], "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


PER_LAYER_UNITS = {"calls": "count", "self_s": "s", "us_per_call": "us",
                   "checks_per_s": "1/s", "leaves_per_s": "1/s",
                   "accept_ratio": "ratio", "infeasible_drops": "count",
                   "oracle_share": "ratio", "trace_overhead": "ratio",
                   "op_p50_s": "s", "op_p90_s": "s"}


def per_layer_unit(name: str) -> str:
    return PER_LAYER_UNITS[name.rsplit(".", 1)[-1]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    _import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    work_root = BENCH_DIR / "work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    import tracing
    from speed import HostSpeed

    failures: list[str] = []
    tracer = tracing.Tracer() if args.trace else None
    # traced passes report per-layer shares and counts, which need no scaling
    speed = HostSpeed() if tracer is None else None
    if tracer is not None:
        tracer.install()
    # Every step from the first set-up to the last pass runs while the
    # calibration kernel samples the host's speed (untraced runs only).
    sampling = speed.sampling() if speed is not None else contextlib.nullcontext()
    with sampling:
        ops, warm, first = setup(args.workload, args.seed, args.size, workdir / "inputs", speed)
        setups = [first]
        if tracer is not None:
            setup_layers = {
                f"instances.{layer}.self_s": tracer.stats.get(f"instances.{layer}", [0, 0.0])[1]
                for layer in ("generate", "serialize")
            }
            if not tracer.remove():
                failures.append("tracer left a wrapper in place")
        warm_up(warm)

        plain, traced, layers = [], [], []
        failed = 0
        cpus = sorted(os.sched_getaffinity(0))
        start = time.perf_counter()
        while True:
            # Each pass runs on one CPU, the next in turn: the calibration
            # kernel then runs on the core whose speed it scales by, and one
            # slow core does not set every op's time.
            os.sched_setaffinity(0, {cpus[len(plain) % len(cpus)]})
            if tracer is not None:
                tracer.reset()
                tracer.install()
                result = run_pass(ops, tracer)
                if not tracer.remove():
                    failures.append("tracer left a wrapper in place")
                layers.append(tracing.layer_metrics(tracer.stats, tracer.edges, tracer.events))
                if abs(tracer.self_total() - result["run_s"]) > 1e-3 * result["run_s"]:
                    failures.append("self times do not add up to the traced run_s")
                traced.append(result)
            result = run_pass(ops, speed=speed)
            reference = digest_of(plain[0]["summaries"]) if plain else None
            failed += check(ops, result, reference, failures)
            plain.append(result)
            if tracer is None:
                # set up again between passes, so setup_s has a sample from
                # every part of the run
                again = workdir / f"setup{len(plain)}"
                setups.append(setup(args.workload, args.seed, args.size, again, speed)[2])
                shutil.rmtree(again)
            elapsed = time.perf_counter() - start
            if len(plain) >= MIN_PASSES and elapsed + elapsed / len(plain) > args.seconds:
                break
    os.sched_setaffinity(0, cpus)

    digest = digest_of(plain[0]["summaries"])
    for result in traced:
        failed += sum(1 for code in result["codes"] if code != 0)
        if digest_of(result["summaries"]) != digest:
            failures.append("traced outputs differ from the untraced outputs")
    if tracer is not None:
        trace_dir = BENCH_DIR / "traces"
        trace_dir.mkdir(exist_ok=True)
        tracer.write_spans(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")

    attempted = len(ops) * (len(plain) + len(traced))
    for line in failures[:20]:
        print(f"perfbench: FAIL {line}", file=sys.stderr)
    print(f"# workload={args.workload} seed={args.seed} size={args.size} "
          f"passes={len(plain)} traced_passes={len(traced)} ops_per_pass={len(ops)} "
          f"op_samples={len(ops)} (each op timed once per pass)")
    print(f"# digest={digest}")
    print(f"# error_rate={failed / attempted:.6f} ({failed}/{attempted})")

    if tracer is None:
        metrics = end_to_end(ops, plain, setups, speed)
    else:
        metrics = {name: (statistics.median_low(m[name] for m in layers), per_layer_unit(name))
                   for name in layers[0]}
        metrics.update({k: (v, "s") for k, v in setup_layers.items()})
        overhead = sum(best_seconds(traced)) / sum(best_seconds(plain)) - 1
        metrics["trace_overhead"] = (overhead, "ratio")
        # Latency of one CLI op: percentiles over the ops' fastest untraced
        # times.  They sit between op kinds whose share of the op list moves
        # with the seed, so they are reported here, without a bound.
        deciles = statistics.quantiles(best_seconds(plain), n=10, method="inclusive")
        metrics["cli.op_p50_s"] = (deciles[4], "s")
        metrics["cli.op_p90_s"] = (deciles[8], "s")
    print(json.dumps({
        "correct": not failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
