"""Benchmark runner for diexact: one process, one thread, closed loop.

    python3 perfbench/run.py --workload pushout-docs --seed 42 --seconds 35 --trace 0

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src``.  Inputs come from ``--seed`` alone.  After set-up (done
five times; ``setup_s`` is the median), the runner does whole passes over
the workload's op list until the next pass would end after ``--seconds``,
checking every op against the workload's own expectation.  With
``--trace 1`` it spends half the time untraced and half traced, and reports
the per-layer metrics instead of the end-to-end ones.

Times are scaled to a reference host speed (see ``HostSpeed``); the raw
times are printed next to them.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines above it print every metric with its unit and an environment record.
The digest of the run's outputs is compared with earlier runs of the same
workload and seed in this checkout (``.bench_out/digests.json``) and with
``reference_digests.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from tracing import NullTracer, Tracer
from workloads import WORKLOADS, digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
MODULES = (
    "certificates", "cli", "documents", "enumeration",
    "fsets", "pointed", "pushouts", "relations", "suites",
)
SETUP_REPEATS = 5


class HostSpeed:
    """Host speed, sampled by a fixed pure-Python loop (a *slice*) at least
    every ``INTERVAL`` seconds while the benchmark runs.

    The host's speed drifts by tens of percent over seconds to minutes, and
    process CPU time drifts with it.  A time measured between two slices is
    scaled by ``REFERENCE_S`` over the mean of those slices' times: the
    result is the time on a host where one slice takes ``REFERENCE_S``.
    The slice builds, sorts and reads small string-keyed dicts and tuples,
    like the package does; it tracks the package's speed more closely than
    a bare integer loop.
    """

    LOOPS = 3_000
    REFERENCE_S = 0.010
    INTERVAL = 0.25

    def __init__(self) -> None:
        self.slices: list[float] = []
        self._taken_at = -math.inf

    def current(self) -> float:
        """The latest slice time, measuring a new slice if it is stale."""
        if time.perf_counter() - self._taken_at > self.INTERVAL:
            start = time.perf_counter()
            for _ in range(self.LOOPS):
                table = {f"a{j}": (j, str(j)) for j in range(4)}
                tuple(table[key][1] for key in sorted(table, reverse=True))
            self._taken_at = time.perf_counter()
            self.slices.append(self._taken_at - start)
        return self.slices[-1]

    def scale(self, before: float, after: float) -> float:
        return self.REFERENCE_S / ((before + after) / 2)

    def record(self) -> dict:
        return {
            "slice_loops": self.LOOPS,
            "slice_reference_s": self.REFERENCE_S,
            "slices": len(self.slices),
            "slice_median_s": statistics.median(self.slices),
            "slice_min_s": min(self.slices),
            "slice_max_s": max(self.slices),
        }


def import_package() -> SimpleNamespace:
    """Import diexact afresh from the checkout, so that each set-up pays the
    import like a new process does."""
    for name in [n for n in sys.modules if n == "diexact" or n.startswith("diexact.")]:
        del sys.modules[name]
    package = importlib.import_module("diexact")
    if not Path(package.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"diexact was imported from {package.__file__}, not this checkout")
    return SimpleNamespace(**{n: importlib.import_module(f"diexact.{n}") for n in MODULES})


def environment(args: argparse.Namespace) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "loadavg_1m": os.getloadavg()[0],
    }


def set_up(args: argparse.Namespace, workdir: Path, host: HostSpeed):
    """Import, input generation and expectations, several times; returns
    the last workload built, the median scaled set-up time, and the median
    of each set-up span."""
    times, spans = [], []
    for _ in range(SETUP_REPEATS):
        before = host.current()
        start = time.perf_counter()
        modules = import_package()
        workload = WORKLOADS[args.workload](modules, args.seed, args.scale, workdir)
        elapsed = time.perf_counter() - start
        factor = host.scale(before, host.current())
        times.append(elapsed * factor)
        spans.append({name: t * factor for name, t in workload.setup_spans.items()})
    setup_spans = {name: statistics.median(s[name] for s in spans) for name in spans[0]}
    return workload, statistics.median(times), setup_spans


@dataclass
class Passes:
    """Scaled times of every pass and op, plus their raw counterparts."""

    walls: list[float] = field(default_factory=list)
    raw_walls: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    raw_latencies: list[float] = field(default_factory=list)
    failed: int = 0
    first_digests: list[str] = field(default_factory=list)
    span_totals: list[dict[str, float]] = field(default_factory=list)
    op_span_time: float = 0.0
    uncovered_time: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def run_passes(workload, seconds: float, make_tracer, reference, host: HostSpeed) -> Passes:
    """Whole passes over the op list until the next one would end after
    ``seconds``.  An op fails when it raises, disagrees with the workload's
    expectation, or gives other bytes than the reference pass (by default
    this run's first pass)."""
    result = Passes()
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        workload.new_pass()
        tracer = make_tracer()
        wall = raw_wall = 0.0
        digests = []
        with tracer.instrument(workload.traced_calls()):
            for i in workload.ops:
                before = host.current()
                tracer.op_id = i
                began = time.perf_counter()
                try:
                    with tracer.span(workload.root_span):
                        outcome = workload.run(i, tracer)
                except (Exception, SystemExit) as exc:  # a raising op is a failed op
                    outcome = None
                    print(f"op {i} raised {exc!r}", file=sys.stderr)
                elapsed = time.perf_counter() - began
                tracer.op_id = -1
                scaled = elapsed * host.scale(before, host.current())
                wall += scaled
                raw_wall += elapsed
                result.latencies.append(scaled)
                result.raw_latencies.append(elapsed)
                digests.append(outcome.digest if outcome else "raised")
                expected_digest = (reference or result.first_digests or digests)[i]
                if outcome is None or not workload.check(i, outcome) or (
                    outcome.digest != expected_digest
                ):
                    result.failed += 1
                elif tracer.traced:
                    workload.probe(i, tracer)
        if not result.first_digests:
            result.first_digests = digests
        result.walls.append(wall)
        result.raw_walls.append(raw_wall)
        if tracer.traced:
            per_name, op_time, uncovered = tracer.summary()
            factor = wall / raw_wall
            result.span_totals.append({n: t * factor for n, t in per_name.items()})
            result.op_span_time += op_time
            result.uncovered_time += uncovered
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return result


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def record_digest(key: str, value: str) -> str:
    """Compare this run's output digest with the committed reference and
    with earlier runs in this checkout, then remember it."""
    reference_file = HERE / "reference_digests.json"
    reference = json.loads(reference_file.read_text()) if reference_file.exists() else {}
    store_file = OUT_DIR / "digests.json"
    store = json.loads(store_file.read_text()) if store_file.exists() else {}
    status = "new"
    for source, known in (("reference", reference), ("previous-run", store)):
        if key in known:
            status = f"{source}-{'match' if known[key] == value else 'MISMATCH'}"
            break
    if "MISMATCH" not in status:
        store[key] = value
        partial = store_file.with_suffix(f".{os.getpid()}")
        partial.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
        os.replace(partial, store_file)
    return status


def end_to_end_values(setup_s: float, plain: Passes, ops: int) -> tuple[dict, dict]:
    """The end-to-end metrics, scaled and raw.  The latency percentiles are
    taken over the ops of a pass, each op counted by its median latency over
    the passes, so that one op slowed by the host does not decide them."""

    def timings(walls, latencies):
        per_op = [statistics.median(latencies[i::ops]) for i in range(ops)]
        return {
            "wall_s": statistics.median(walls),
            "ops_per_s": len(latencies) / sum(walls),
            "op_p50_ms": 1000 * percentile(per_op, 0.5),
            "op_p90_ms": 1000 * percentile(per_op, 0.9),
        }

    scaled = {"setup_s": setup_s, **timings(plain.walls, plain.latencies)}
    scaled["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return scaled, timings(plain.raw_walls, plain.raw_latencies)


def layer_values(workload, traced: Passes, setup_spans: dict, names) -> dict:
    """Per-layer metrics: ``<span>_s`` is that span's self time per pass
    (median over traced passes), the counts are computed from the inputs,
    and ``bench.span_coverage`` is the share of the traced op time that
    falls in named layer spans, that is, outside the ops' root spans' self
    time.  The result names every per-layer metric, as the result line
    must; a layer the workload never enters, or a count of work it never
    does, is 0."""
    spans = {name for totals in traced.span_totals for name in totals}
    values = {
        f"{name}_s": statistics.median(t.get(name, 0.0) for t in traced.span_totals)
        for name in spans
    }
    values.update({f"{name}_s": value for name, value in setup_spans.items()})
    values.update(workload.counts())
    values["bench.span_coverage"] = 1 - traced.uncovered_time / traced.op_span_time
    return {name: values.get(name, 0) for name in names}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "smoke"), default="full",
        help="smoke: tiny inputs for a quick end-to-end check",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "diexact" / "__init__.py").is_file():
        print(f"error: no diexact sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"inputs-{os.getpid()}"
    workdir.mkdir()
    env = environment(args)
    host = HostSpeed()
    try:
        workload, setup_s, setup_spans = set_up(args, workdir, host)
        cpu_start, wall_start = time.process_time(), time.perf_counter()
        share = args.seconds / 2 if args.trace else args.seconds
        plain = run_passes(workload, share, NullTracer, None, host)
        traced = None
        if args.trace:
            traced = run_passes(workload, share, Tracer, plain.first_digests, host)
        env["cpu_over_wall"] = (time.process_time() - cpu_start) / (
            time.perf_counter() - wall_start
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env.update(host.record())
    env["ops_per_pass"] = len(workload.ops)
    env["passes"] = len(plain.walls)
    env["output_digest"] = digest(*plain.first_digests)
    env["digest_status"] = record_digest(
        f"{args.workload}/{args.scale}/seed={args.seed}", env["output_digest"]
    )

    values, raw = end_to_end_values(setup_s, plain, len(workload.ops))
    env["raw"] = raw
    print(
        f"{args.workload} seed={args.seed}: {plain.attempted} ops in {len(plain.walls)} "
        f"passes of {len(workload.ops)} (latency samples: {plain.attempted}, percentiles over the {len(workload.ops)} per-op medians); "
        "times scaled to the reference host speed, raw in brackets"
    )
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, unit in units.items():
        extra = f"  [raw {raw[name]:.6g}]" if name in raw else ""
        print(f"  {name:<13} {values[name]:.6g} {unit}{extra}")
    print(f"  {'failed_frac':<13} {plain.failed / plain.attempted:.6g} ratio")

    if traced:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = layer_values(workload, traced, setup_spans, units)
        overhead = statistics.median(traced.walls) - statistics.median(plain.walls)
        env["trace_overhead_s"] = overhead
        print(
            f"traced: {traced.attempted} ops in {len(traced.walls)} passes; "
            "times are scaled seconds per pass, counts are computed per pass"
        )
        for name, unit in units.items():
            print(f"  {name:<34} {values[name]:.6g} {unit}")
        print(
            f"  tracing overhead (traced - untraced median pass time): {overhead:.6g} s "
            f"({overhead / statistics.median(plain.walls):+.2%}); not a metric, as it "
            "is the difference of two noisy medians and can come out 0 or below"
        )

    failed = plain.failed + (traced.failed if traced else 0)
    result = {
        "correct": failed == 0 and "MISMATCH" not in env["digest_status"],
        "attempted": plain.attempted + (traced.attempted if traced else 0),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print("environment: " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
