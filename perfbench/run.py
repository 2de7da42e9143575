"""Scenario benchmark of the biphoton CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout: the package is imported from
the ``src/`` directory beside ``perfbench/``, never from an installed copy,
and the run fails when that directory is missing.

One process calls ``biphoton.cli.main(argv)`` in a closed loop, one scenario
call at a time, for S seconds, after one warm-up call.  Every call's CSVs
are written to a temporary directory inside the checkout, checked, and
discarded.  Per-call seeds are drawn from N through SeedSequence.  The
warm-up and the first timed call share a seed and must write identical
bytes.  A call that exits non-zero, raises, or fails a check counts as
failed and gives no timing sample.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced calls and reports the per-layer metrics of tracing.py.  The last
line of stdout is the result; the line before it holds the details:
environment, seeds, work counts, failures, every call's time with their
median and tail, and trace shares.

The timed end-to-end metrics are in reference units: call times divided by
the mean time of the workload's reference work (workloads.py), a fixed piece
of work of the same kind as the workload's main layer, run back to back
before every call for a quarter of a typical call's time.  On a 2-vCPU Xeon
guest shared with other tenants, the speed of a CPU moved by up to a factor
of two within seconds and by a fifth between minutes, so the seconds of runs
of the same code spread by 0.15 to 0.4 of their median; the same slowdowns
hit the reference, and the ratio spread far less.  The reference is
benchmark code, so a change to the program moves the ratio as it moves the
seconds.  The seconds themselves are printed in the details.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from tracing import (ROOT_SPAN, TARGETS, Tracer, layer_metrics, median_of, missing_layers,
                     module_shares)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 21
SETUP_CODE = """\
import time
start = time.perf_counter()
from biphoton import cli
cli._load_config(None, {})
print(time.perf_counter() - start)
"""
# The reference work runs before each call for this share of a typical call's time.
REFERENCE_SHARE = 0.25
# The tail is the highest order statistic with this many samples above it
# (fewer in a short run: see tail()).
TAIL_BEYOND = 10


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def thread_caps() -> dict[str, str]:
    """Native thread pools capped at the CPUs this process may run on."""
    return {var: str(nproc()) for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                          "MKL_NUM_THREADS")}


def child_env() -> dict[str, str]:
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return {**os.environ, **thread_caps(), "PYTHONPATH": path}


def setup_seconds() -> list[float]:
    """Import biphoton and resolve the default config, each in a fresh process."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout))
    return samples


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def reference_seconds(work, budget: float) -> list[float]:
    """Times of ``work()``, run back to back for ``budget`` seconds."""
    samples: list[float] = []
    deadline = time.perf_counter() + budget
    while not samples or time.perf_counter() < deadline:
        start = time.perf_counter()
        work()
        samples.append(time.perf_counter() - start)
    return samples


class Failure(Exception):
    pass


def digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def one_call(cli, workload, seed: int, out: Path, tracer=None):
    """Run one scenario call and check its output.

    Returns (seconds, work counts); raises when the call exits non-zero,
    raises, or writes output that fails the workload's check.
    """
    for stale in out.iterdir():
        stale.unlink()
    argv = [*workload.argv, f"--sim.seed={seed}", f"--sim.output_dir={out}"]
    stdout, stderr = io.StringIO(), io.StringIO()
    gc.collect()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        if tracer is None:
            start = time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - start
        else:
            with tracer.installed():
                code = tracer.wrap(ROOT_SPAN, cli.main)(argv)
            root = tracer.spans[-1]
            seconds = root.end - root.start
    if code != 0:
        raise Failure(f"exit code {code}: {stderr.getvalue().strip()[-500:]}")
    return seconds, workload.check(out)


def measure(cli, workload, seeds, out: Path, seconds: float, tracer=None) -> dict:
    """Closed loop of scenario calls for ``seconds`` (at least two calls).

    A call is started only while at least half a typical call fits before
    the deadline, so the loop ends on average at the deadline.
    """
    rec = {"seeds": [], "attempted": 0, "failures": [], "untraced_s": [], "traced_s": [],
           "reference_s": [], "layers": [], "shares": [], "work": None}
    first = next(seeds)
    first_digests = None

    def attempt(call_seed: int, traced: bool):
        rec["attempted"] += 1
        rec["seeds"].append(call_seed)
        try:
            result = one_call(cli, workload, call_seed, out, tracer if traced else None)
            if call_seed == first and first_digests is not None and \
                    digests(out) != first_digests:
                raise Failure(f"rerun of seed {first} wrote different CSV bytes")
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - every failure is counted
            rec["failures"].append({"seed": call_seed, "error": "".join(
                traceback.format_exception_only(type(exc), exc)).strip()})
            if tracer is not None:
                tracer.spans.clear()
            return None
        rec["work"] = result[1]
        return result[0]

    begin = time.perf_counter()
    if attempt(first, traced=False) is not None:
        first_digests = digests(out)
    warm_up = time.perf_counter() - begin
    deadline = time.perf_counter() + seconds
    costs: list[float] = []
    call_costs: list[float] = []
    i = 0
    while i < 2 or time.perf_counter() + statistics.median(costs) / 2 < deadline:
        traced = tracer is not None and i % 2 == 1
        begin = time.perf_counter()
        typical = statistics.median(call_costs) if call_costs else warm_up
        rec["reference_s"] += reference_seconds(workload.reference, REFERENCE_SHARE * typical)
        call_begin = time.perf_counter()
        sample = attempt(first if i == 0 else next(seeds), traced)
        call_costs.append(time.perf_counter() - call_begin)
        costs.append(time.perf_counter() - begin)
        if sample is not None:
            if traced:
                summary = tracer.summarize()
                rec["layers"].append(layer_metrics(summary))
                rec["shares"].append(module_shares(summary))
                rec["traced_s"].append(sample)
            else:
                rec["untraced_s"].append(sample)
        i += 1
    return rec


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest order statistic with
    TAIL_BEYOND samples above it, or, in a run of fewer than 4 * TAIL_BEYOND
    calls, with a quarter of the samples (rounded down) above it.  So the
    tail is never below the upper quartile, and never a copy of the median."""
    xs = sorted(samples)
    beyond = min(TAIL_BEYOND, len(xs) // 4)
    k = len(xs) - beyond
    return xs[k - 1], 100.0 * k / len(xs), beyond


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "biphoton" / "__init__.py").is_file():
        print(f"no biphoton sources under {SRC}", file=sys.stderr)
        return 2

    os.environ.update(thread_caps())  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    import numpy as np

    import biphoton
    from biphoton import cli
    from workloads import WORKLOADS, iteration_seeds

    if SRC.resolve() not in Path(biphoton.__file__).resolve().parents:
        print(f"biphoton was imported from {biphoton.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.trace and (gone := missing_layers()):
        print(f"layer functions gone: {', '.join(gone)}; retarget their metrics in "
              "tracing.LAYERS", file=sys.stderr)
        return 1

    setup = [] if args.trace else setup_seconds()
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        rec = measure(cli, workload, iteration_seeds(args.seed), Path(tmp), args.seconds,
                      tracer)

    failed = len(rec["failures"])
    detail = {
        "workload": workload.name,
        "argv": list(workload.argv),
        "trace": args.trace,
        "seed": args.seed,
        "call_seeds": rec["seeds"],
        "attempted": rec["attempted"],
        "failed": failed,
        "error_rate": failed / rec["attempted"],
        "failures": rec["failures"],
        "work_counts": rec["work"],
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": nproc(),
            "cpu_model": cpu_model(),
            "git_commit": git_commit(),
        },
    }
    untraced = rec["untraced_s"]
    if not untraced or (args.trace and not rec["traced_s"]):
        print(json.dumps({"detail": detail}))
        print("no successful timed call", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: {"value": value, "unit": "s" if name.endswith("_s") else "count"}
                   for name, value in median_of(rec["layers"]).items()}
        overhead = statistics.median(rec["traced_s"]) - statistics.median(untraced)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        detail.update(scenario_s=untraced, traced_s=rec["traced_s"])
        detail["module_self_shares"] = median_of(rec["shares"])
        detail["layer_targets"] = TARGETS
    else:
        p50 = statistics.median(untraced)
        value, percentile, beyond = tail(untraced)
        ref = statistics.fmean(rec["reference_s"])
        items = rec["work"][workload.work_item]
        detail.update(scenario_s=untraced, reference_s=rec["reference_s"],
                      scenario_s_p50=p50, scenario_s_tail=value, tail_percentile=percentile,
                      tail_samples_beyond=beyond, throughput_per_s=items / p50,
                      setup_s=setup, work_item=workload.work_item)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "scenario_ref_p50": {"value": p50 / ref, "unit": "ref"},
            "scenario_ref_tail": {"value": value / ref, "unit": "ref"},
            "throughput": {"value": items * ref / p50, "unit": "items/ref"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                             "unit": "MiB"},
            "success_rate": {"value": 1.0 - failed / rec["attempted"], "unit": "ratio"},
        }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": rec["attempted"], "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
