"""Run one alignor benchmark workload and print its metrics.

    python3 bench/run.py --workload study_chi --seed 3 --seconds 30 --trace 0

Run it from the root of a checkout: it imports the package from ``src/``
there and writes only under ``.bench_out/`` there.  With ``--trace 0`` it
times closed-loop passes with tracing off and reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics.  Metric names and units come from
``BENCHMARK.json``.  Every pass is checked (see ``workloads.py``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
from contextlib import nullcontext
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_out"
# one closed-loop caller on a 2-CPU machine: BLAS calls here are 5x5 solves
# and 7-column normal equations, so extra BLAS threads would only add noise
THREAD_CAP = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5    # fresh processes timed per run for setup_s
MIN_PASSES = 2      # determinism compares a pass with the run's first pass
PROBE_TIMEOUT_S = 120


def use_checkout_package():
    """Cap threads and import alignor from this checkout's ``src/`` only."""
    for var in THREAD_VARS:
        os.environ[var] = str(THREAD_CAP)
    os.environ.pop("ALIGNOR_OUT", None)
    src = ROOT / "src"
    if not (src / "alignor" / "__init__.py").is_file():
        sys.exit(f"error: no package at {src / 'alignor'}; "
                 "run from the root of a checkout of the repository")
    sys.path.insert(0, str(src))
    import alignor
    if Path(alignor.__file__).resolve().parent != (src / "alignor").resolve():
        sys.exit(f"error: imported alignor from {alignor.__file__}, not {src}")


def monotonic_s() -> float:
    # CLOCK_MONOTONIC is one clock for every process on the machine, so a
    # probe's ready time can be compared with the parent's start time
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def probe(workload: str, seed: int):
    """Body of a setup probe: import the package, build the inputs, report."""
    use_checkout_package()
    import workloads
    workloads.WORKLOADS[workload](seed)
    print(repr(monotonic_s()), flush=True)


def measure_setup(workload: str, seed: int) -> list:
    """Seconds from spawning a fresh interpreter to its inputs being built."""
    times = []
    for _ in range(SETUP_PROBES):
        start = monotonic_s()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]) - start)
    return times


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "machine": platform.machine(),
            "blas": f"{blas['name']} {blas['version']}",
            "blas_config": blas.get("openblas configuration", ""),
            "thread_cap": {v: os.environ[v] for v in THREAD_VARS}}


def run_pass(w, index: int, first, tracer=None):
    """One timed pass; returns (wall seconds, outputs or None, failed ops)."""
    out_dir = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK_DIR))
    out, wall = None, 0.0
    try:
        if tracer is not None:
            tracer.pass_id = index
        # garbage left by the previous pass is collected here, not in the next one
        gc.collect()
        with tracer.installed() if tracer is not None else nullcontext():
            start = time.perf_counter()
            try:
                out = w.run(out_dir)
            finally:
                wall = time.perf_counter() - start
        problems = w.check(out, first)
    except Exception:
        traceback.print_exc()
        return wall, None, w.ops_per_pass
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    for op, message in problems:
        print(f"pass {index} op {op}: {message}", file=sys.stderr)
    return wall, out, len({op for op, _ in problems})


def tail(walls: list, unit: str = "s") -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n, ranked = len(walls), sorted(walls)
    text = f"median {statistics.median(walls)!r} {unit} over {n} passes"
    if n - 10 > n / 2:
        text += f", p{100 * (n - 10) / n:.0f} {ranked[n - 11]!r} {unit}"
    else:
        text += f" (fewer than 20 passes: no percentile above the median " \
                f"has ten passes beyond it)"
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.probe:
        probe(args.workload, args.seed)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    use_checkout_package()
    import calibrate
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    WORK_DIR.mkdir(exist_ok=True)
    setup = [] if args.trace else measure_setup(args.workload, args.seed)

    w = workloads.WORKLOADS[args.workload](args.seed)
    w.prepare()
    tracer = spans.Tracer() if args.trace else None
    calibration = None if args.trace else calibrate.Calibration()
    walls, traced_walls, layer_runs, cals = [], [], [], []
    attempted = failed = 0
    first = None
    start = time.perf_counter()
    index = 0
    min_passes = 2 * MIN_PASSES if tracer else MIN_PASSES
    while index < min_passes or time.perf_counter() - start < args.seconds:
        # a traced run alternates untraced and traced passes
        traced = tracer is not None and index % 2 == 1
        if calibration is not None:
            cals.append(calibration.time())
        wall, out, bad = run_pass(w, index, first, tracer if traced else None)
        attempted += w.ops_per_pass
        failed += bad
        if first is None and out is not None:
            first = out
        if traced:
            traced_walls.append(wall)
            layer_runs.append(tracer.pass_metrics(index, wall))
        else:
            walls.append(wall)
        index += 1

    correct = failed == 0 and first is not None
    print("environment: " + json.dumps(environment()))
    print(f"workload {w.name}, seed {args.seed}: {attempted} operations, "
          f"{failed} failed (error_rate {failed / attempted!r})")
    print(f"wall_s: {tail(walls)}")
    if tracer is None:
        wall_s = statistics.median(walls)
        rel = [wall / cal for wall, cal in zip(walls, cals)]
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_rel": statistics.median(rel),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(f"wall_rel: {tail(rel, 'x calibration')}; calibration "
              f"{tail(cals)}")
        print(f"samples_per_s: {w.samples_per_pass / wall_s!r} "
              f"({w.samples_per_pass} samples per pass)")
        print(f"setup_s samples: {setup!r}")
        declared = spec["end_to_end"]
    else:
        metrics, unstable = spans.summarize(layer_runs)
        untraced = statistics.median(walls)
        metrics["trace.overhead_frac"] = \
            (statistics.median(traced_walls) - untraced) / untraced
        if unstable:
            print(f"counts differ between traced passes: {unstable}", file=sys.stderr)
            correct = False
        if metrics["dynamics.latch_scan.samples"] != w.samples_per_pass:
            print(f"latch samples {metrics['dynamics.latch_scan.samples']}, "
                  f"expected {w.samples_per_pass}", file=sys.stderr)
            correct = False
        spans_path = WORK_DIR / f"spans-{w.name}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.spans))
        print(f"traced wall_s: {tail(traced_walls)}; spans in {spans_path}")
        declared = spec["per_layer"]
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
              for m in declared}
    for name, entry in result.items():
        print(f"  {name} = {entry['value']!r} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
