"""carbongame benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload sweep --seed 7 --seconds 20 --trace 0

Run from the repository root. The library is imported from ``src/``; nothing
is installed. Load comes from this one process as a closed loop with one
caller: the next scenario starts when the previous one has returned. BLAS is
held to one thread. Timed metrics are in reference seconds (calibrate.py).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` prints the
per-layer metrics, from runs of each scenario with span wrappers installed,
and the tracing overhead against untraced runs of the same scenarios. The
last line of standard output is one JSON object {"correct", "attempted",
"failed", "metrics"}; the line before it holds machine and code facts. The
exit code is 1 when an output check failed and 2 when the benchmark could
not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
SETUP_REPEATS = 3       # fresh CLI processes per run, after one warm-up
IMPORT_REPEATS = 3      # fresh -X importtime processes per traced run
PERCENTILES = (50, 75, 90, 95, 99)

END_TO_END_UNITS = {"setup_s": "s", "cells_per_s": "1/s", "ok_frac": "ratio",
                    "peak_rss_mb": "MB"}

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"   # before numpy loads, here and in child processes


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "compare", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def _source_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "carbongame").glob("*.py")))


def _peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _high_percentile(n: int):
    """Highest listed percentile with at least ten samples beyond it."""
    best = None
    for p in PERCENTILES:
        if n * (100 - p) / 100.0 >= 10:
            best = p
    return best


class Tally:
    """Timings and check results of the scenarios of one run."""

    def __init__(self):
        self.plain = []          # seconds per untraced scenario
        self.raw = []            # the same, in wall seconds, when scaled
        self.traced = []         # seconds per traced scenario
        self.cells = 0
        self.ok = self.graded = 0    # ok cells (verify: checks) of those graded
        self.attempted = self.failed = 0
        self.redrawn = self.rounds = 0
        self.problems = []

    def identity(self, index: int, first, again, error):
        """A repeat must reproduce round 0's outputs byte for byte."""
        self.attempted += 1
        if error is not None or again is None or again != first:
            self.failed += 1
            why = f"{type(error).__name__}: {error}" if error else "outputs differ"
            self.problems.append(f"repeat of scenario {index}: {why}")

    def record(self, workload, config, artifacts, error, rng, directory):
        if error is None:
            try:
                checked = workload.check(config, artifacts, rng, directory)
            except Exception as exc:   # an unreadable output is a failure
                error = exc
        shutil.rmtree(directory, ignore_errors=True)
        if error is not None:
            cells = workload.cells(config)
            ok, attempted, failed = 0, cells, cells
            self.problems.append(f"{type(error).__name__}: {error}")
        else:
            cells, ok = checked.cells, checked.ok
            attempted, failed = checked.attempted, checked.failed
            self.problems += checked.problems
        self.cells += cells
        self.ok += ok
        self.graded += attempted
        self.attempted += attempted
        self.failed += failed


def _timed(workload, config, directory, tracer=None):
    """One scenario: (start, end, artifacts, error). Only the call is timed."""
    with tracer.installed() if tracer else nullcontext():
        start = time.perf_counter()
        try:
            artifacts, error = workload.run(config, directory), None
        except Exception as exc:   # untyped: escaped the runner
            artifacts, error = None, exc
        return start, time.perf_counter(), artifacts, error


def _digest(workload, artifacts) -> Optional[str]:
    if artifacts is None:
        return None
    return hashlib.sha256(workload.fingerprint(artifacts)).hexdigest()


def measure(workload, seed: int, seconds: float, clock) -> Tally:
    """Median time of each of the workload's scenarios for this seed.

    The first run of every scenario is checked. Then the scenarios run again
    in turn until ``seconds`` of timed work are done and at least one has
    run twice; every repeat must give outputs byte-identical to its first
    run. ``clock`` samples the reference kernel between calls, and each
    call's wall time is scaled to reference seconds by the samples around
    it (see calibrate.py). A scenario's time is the median of its runs.
    """
    import numpy as np
    tally = Tally()
    rng = np.random.default_rng([seed, 2**31])   # picks the rows to re-solve
    calls = []                                   # (index, start, end)

    def call(index, config):
        clock.sample()
        directory = SCRATCH / f"{os.getpid()}-{index}"
        start, end, artifacts, error = _timed(workload, config, directory)
        calls.append((index, start, end))
        return artifacts, error, directory

    scenarios = []
    for index in range(workload.scenarios):
        config, redrawn = workload.scenario(seed, index)
        tally.redrawn += redrawn
        artifacts, error, directory = call(index, config)
        tally.record(workload, config, artifacts, error, rng, directory)
        scenarios.append((config, _digest(workload, artifacts)))
    index = 0
    while (sum(e - s for _, s, e in calls) < seconds
           or len(calls) <= len(scenarios)):
        config, digest = scenarios[index]
        artifacts, error, directory = call(index, config)
        shutil.rmtree(directory, ignore_errors=True)
        tally.identity(index, digest, _digest(workload, artifacts), error)
        index = (index + 1) % len(scenarios)
    clock.sample(force=True)
    scaled = [[] for _ in scenarios]
    raw = [[] for _ in scenarios]
    for i, start, end in calls:
        scaled[i].append(clock.scaled(start, end, end - start))
        raw[i].append(end - start)
    tally.plain = [statistics.median(times) for times in scaled]
    tally.raw = [statistics.median(times) for times in raw]
    tally.rounds = len(calls) // len(scenarios)
    return tally


def measure_traced(workload, seed: int, seconds: float, tracer) -> Tally:
    """Each scenario once untraced and once traced, in alternating order,
    the scenarios in turn until ``seconds`` of timed work are done. First
    runs are checked; the two runs of every pair must agree byte for byte."""
    import numpy as np
    tally = Tally()
    rng = np.random.default_rng([seed, 2**31])
    configs = [workload.scenario(seed, i)[0] for i in range(workload.scenarios)]
    step = 0
    while step == 0 or sum(tally.plain) + sum(tally.traced) < seconds:
        index = step % len(configs)
        config = configs[index]
        directory = SCRATCH / f"{os.getpid()}-{index}"
        digests = {}
        for active in ([None, tracer] if step % 2 == 0 else [tracer, None]):
            start, end, artifacts, error = _timed(workload, config,
                                                  directory, active)
            elapsed = end - start
            (tally.traced if active else tally.plain).append(elapsed)
            digests[active is None] = _digest(workload, artifacts)
            if active is None and step < len(configs):
                tally.record(workload, config, artifacts, error, rng, directory)
            shutil.rmtree(directory, ignore_errors=True)
        tally.identity(index, digests[True], digests[False], None)
        step += 1
    tally.rounds = step // len(configs)
    return tally


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "carbongame" / "__init__.py").is_file():
        print(f"error: no carbongame sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import calibrate
    import cold_start
    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    SCRATCH.mkdir(exist_ok=True)
    try:
        if args.trace:
            metrics = cold_start.import_breakdown(ROOT, IMPORT_REPEATS)
            tracer = spans.Tracer()
            tally = measure_traced(workload, args.seed, args.seconds, tracer)
            metrics.update(spans.layer_metrics(tracer.spans, sum(tally.traced)))
            metrics["trace.overhead"] = sum(tally.traced) / sum(tally.plain)
        else:
            clock = calibrate.Clock()
            calls = cold_start.setup_seconds(
                ROOT, SETUP_REPEATS, lambda: clock.sample(force=True))
            setup = [clock.scaled(start, end, end - start)
                     for start, end in calls]
            setup_raw = [end - start for start, end in calls]
            tally = measure(workload, args.seed, args.seconds, clock)
            metrics = {
                "setup_s": statistics.median(setup),
                "cells_per_s": tally.cells / sum(tally.plain),
                "ok_frac": tally.ok / tally.graded,
                "peak_rss_mb": _peak_rss_mb(),
            }
    except cold_start.ColdStartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    attempted, failed, problems = tally.attempted, tally.failed, tally.problems
    durations = tally.plain
    high = _high_percentile(len(durations))
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "src_lines": _source_lines(),
        "scenarios": len(durations),
        "scenario_s_p50": statistics.median(durations),
        "failed_frac": failed / attempted,
        "rounds": tally.rounds,
        "redrawn": tally.redrawn,
        "problems": problems[:20],
    }
    if high:
        info[f"scenario_s_p{high}"] = statistics.quantiles(durations, n=100)[high - 1]
    if not args.trace:
        info["setup_s_samples"] = setup
        info["setup_wall_s_samples"] = setup_raw
        info["scenario_wall_s_p50"] = statistics.median(tally.raw)
        info["reference_ms"] = clock.speed() * 1e3
    print(json.dumps({"info": info}))
    units = END_TO_END_UNITS if not args.trace else None
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value,
                           "unit": units[name] if units else spans.unit(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
