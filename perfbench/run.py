"""Benchmark of the xbarecc simulator, run from the root of a checkout:

    python3 perfbench/run.py --workload {compile,campaign,simd} --seed N \
        --seconds S --trace {0,1}

It imports the package from ``src/`` of the same checkout, builds the
workload's inputs from the seed, runs one warm-up item, then times items
for S seconds in this one process, checking each item's output outside
the timed region. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
wraps the package's public functions in spans and reports the per-layer
metrics. The last line of stdout is the JSON result; the line before it
holds host facts, the seed and the per-item times.

Host times are wall time of this process, scaled to a reference host speed
by ``reference_kernel()``; ``sim_*`` metrics are the model's simulated
cycles and depend on the inputs only.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK_ROOT = HERE.parent / ".perfbench-work"
SETUP_PROBES = 2  # extra processes that only set up, for the setup_s median
# Nominal time of reference_kernel(); work_per_ref_s is scaled to a host
# on which the kernel takes this long.
REF_NOMINAL_S = 0.035

# each workload's name for its raw host-time throughput, printed beside the result
THROUGHPUT_ALIAS = {"compile": "compile_gates_per_s",
                    "campaign": "campaign_trials_per_s",
                    "simd": "simd_lane_evals_per_s"}


def process_age() -> float:
    """Seconds since this process started, interpreter start-up included."""
    with open("/proc/self/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def import_program() -> None:
    """Put this checkout's ``src/`` first on the path and import xbarecc."""
    if not (SRC / "xbarecc" / "__init__.py").is_file():
        sys.exit("perfbench: no xbarecc sources under src/ of this checkout")
    sys.path.insert(0, str(SRC))
    import xbarecc

    if Path(xbarecc.__file__).resolve().parent != (SRC / "xbarecc").resolve():
        sys.exit("perfbench: imported an xbarecc other than this checkout's")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("compile", "campaign", "simd"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, then print the set-up time (used for setup_s)")
    return p.parse_args(argv)


def set_up(args, workdir: Path):
    """Build the workload and run its warm-up item; returns both."""
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    return wl, wl.item()


def probe_setup(args) -> list[list[float]]:
    """Set-up times of fresh processes doing exactly this run's set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
    ages = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        ages.append(json.loads(done.stdout.splitlines()[-1]))
    return ages


def reference_kernel() -> float:
    """Time a fixed mix of interpreter and small-array work.

    The host's speed drifts by a third or more within seconds, because
    other tenants share its cores. Timing this kernel before and after
    every item tracks that drift, so each item's time can be scaled to a
    fixed host speed.
    """
    import numpy as np

    start = time.perf_counter()
    block = np.arange(40_000, dtype=np.uint8).reshape(200, 200)
    acc, table = 0, {}
    for i in range(150_000):
        acc += i * i
        table[i & 1023] = acc
    for _ in range(300):
        block.sum(axis=0)
    return time.perf_counter() - start


def scaled_setup_time() -> list[float]:
    """This process's age, and that age scaled like ``work_per_ref_s``."""
    age = process_age()
    return [age, age * REF_NOMINAL_S / reference_kernel()]


def timed_item(wl, tracer):
    import spans

    with spans.Instrumentation(tracer) if tracer else nullcontext():
        start = time.perf_counter()
        out = wl.item()
        return time.perf_counter() - start, out


def run(args, workdir: Path) -> dict:
    import numpy as np

    import golden
    import spans

    load_start = os.getloadavg()
    wl, warm = set_up(args, workdir)
    setup_self = scaled_setup_time()
    problems = wl.check_item(warm)  # the warm-up's output becomes the compile reference
    failed_items = int(bool(problems))

    tracer = spans.Tracer() if args.trace else None
    times, refs = [], []
    deadline = time.perf_counter() + args.seconds
    ref_before = reference_kernel()
    while True:
        dt, out = timed_item(wl, tracer)
        ref_after = reference_kernel()
        times.append(dt)
        refs.append((ref_before + ref_after) / 2)
        ref_before = ref_after
        item_problems = wl.check_item(out)
        del out  # so the next item does not run beside this one's results
        failed_items += bool(item_problems)
        problems += item_problems
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # the same item in the other tracing mode, for the tracing overhead
    other_dt, out = timed_item(wl, None if args.trace else spans.Tracer())
    other_ref = (ref_before + reference_kernel()) / 2
    item_problems = wl.check_item(out)
    failed_items += bool(item_problems)
    problems += item_problems
    scaled = [t * REF_NOMINAL_S / ref for t, ref in zip(times, refs)]
    median_dt, other_dt = statistics.median(scaled), other_dt * REF_NOMINAL_S / other_ref
    traced_dt, plain_dt = (median_dt, other_dt) if args.trace else (other_dt, median_dt)

    expected = golden.load()
    final_problems = wl.final_checks(expected)
    items = len(times) + 2  # the timed items, the warm-up and the other-mode item
    if final_problems:
        failed_items = items  # every item was compared with a bad reference
    problems += final_problems
    compared, mismatches = golden.compare(expected, golden.compute(workdir / "golden"))
    problems += mismatches

    setup_samples = [setup_self] + probe_setup(args)
    sim_cycles, sim_overhead = wl.sim()
    if args.trace:
        metrics = spans.layer_metrics(tracer, len(times))
    else:
        metrics = {
            "work_per_ref_s": {"value": statistics.median(wl.work / t for t in scaled),
                               "unit": "1/s"},
            "setup_s": {"value": statistics.median(scaled for _, scaled in setup_samples),
                        "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "sim_cycles": {"value": sim_cycles, "unit": "cycles"},
            "sim_overhead_geomean_pct": {"value": sim_overhead, "unit": "%"},
        }
    attempted = items + compared
    failed = failed_items + len(mismatches)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "work_unit": wl.unit, "work_per_item": wl.work,
        "item_s": times, "reference_kernel_s": refs,
        "setup_s_samples_raw_scaled": setup_samples,
        "host": {
            "cpu_count": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
            "item_ref_s_traced": traced_dt,
            "item_ref_s_untraced": plain_dt,
            "trace_overhead_ref_s": traced_dt - plain_dt,
            "trace_overhead_pct": 100.0 * (traced_dt - plain_dt) / plain_dt,
        },
        "problems": problems,
    }
    print(f"{THROUGHPUT_ALIAS[args.workload]} = "
          f"{statistics.median(wl.work / t for t in times)} {wl.unit}/s (host time)")
    print(f"sim_cycles = {sim_cycles}, sim_overhead_geomean_pct = {sim_overhead}")
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print("# detail " + json.dumps(detail))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    # numpy asks for transparent huge pages for large arrays; whether the
    # kernel grants them varies from process to process, and that alone
    # moved campaign throughput by about 10% between runs. It must be set
    # before numpy is imported.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    import_program()
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.setup_probe:
            set_up(args, workdir)
            print(json.dumps(scaled_setup_time()))
            return 0
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
