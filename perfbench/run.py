"""Benchmark of varinterp: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload reiteration --seed 42 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src. With --trace 0 the last line of standard output is a JSON object
with the end-to-end metrics; with --trace 1 it holds the per-layer metrics
of one extra traced cycle. Generated inputs, reports and the trace file go
to .bench_out/<workload>/. See perfbench/README.md.
"""

from __future__ import annotations

import os

# one BLAS thread, so that timings do not depend on the core count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from oracles import independent_checks  # noqa: E402
from probe import REFERENCE_PROBE_S, probe  # noqa: E402
from tracing import EVAL_SPAN, LAYERS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    SETUP_SNIPPET, SUITE_REST_CHECKS, WORKLOADS, make_parts, read_outputs)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
MIN_CYCLES = 3

ALL_CHECKS = ("k-oracle", "reiteration") + SUITE_REST_CHECKS

# per-layer metric -> (unit, span name, field); field is calls or self
SPAN_METRICS = {
    "exponents.eval_calls": ("count", EVAL_SPAN, "calls"),
    "exponents.eval_s": ("s", EVAL_SPAN, "self"),
    "exponents.log_holder_calls": ("count", "exponents.log_holder_constants", "calls"),
    "exponents.log_holder_s": ("s", "exponents.log_holder_constants", "self"),
    "hardy.key_estimate_calls": ("count", "hardy.key_estimate_check", "calls"),
    "hardy.key_estimate_s": ("s", "hardy.key_estimate_check", "self"),
    "hardy.continuous_s": ("s", "hardy.hardy_continuous_check", "self"),
    "varleb.luxemburg_calls": ("count", "varleb.luxemburg_norm", "calls"),
    "varleb.luxemburg_s": ("s", "varleb.luxemburg_norm", "self"),
    "varleb.solver_calls": ("count", "varleb.luxemburg_from_modular", "calls"),
    "varleb.solver_s": ("s", "varleb.luxemburg_from_modular", "self"),
    "rearrange.rearrangement_calls": ("count", "rearrange.rearrangement", "calls"),
    "rearrange.rearrangement_s": ("s", "rearrange.rearrangement", "self"),
    "rearrange.lorentz_calls": ("count", "rearrange.lorentz_norm", "calls"),
    "rearrange.lorentz_s": ("s", "rearrange.lorentz_norm", "self"),
    "couples.k_many_calls": ("count", "couples.k_functional_many", "calls"),
    "couples.k_many_s": ("s", "couples.k_functional_many", "self"),
    "couples.brute_force_calls": ("count", "couples.k_brute_force", "calls"),
    "couples.brute_force_s": ("s", "couples.k_brute_force", "self"),
    "interp.k_norm_continuous_calls": ("count", "interp.k_norm_continuous", "calls"),
    "interp.k_norm_continuous_s": ("s", "interp.k_norm_continuous", "self"),
    "interp.reiteration_s": ("s", "interp.reiteration_check", "self"),
    "interp.j_representation_calls": ("count", "interp.construct_j_representation", "calls"),
    "interp.j_representation_s": ("s", "interp.construct_j_representation", "self"),
    "suite.run_self_s": ("s", "suite.run_check_suite", "self"),
}
SPAN_METRICS.update({f"suite.{c}.s": ("s", f"suite.check.{c}", "inclusive")
                     for c in ALL_CHECKS})

COUNTER_METRICS = {
    "varleb.modular_evals": "count",
    "varleb.modular_evals_per_solve": "evals/solve",
    "couples.brute_force_evals": "count",
    "couples.brute_force_evals_per_call": "evals/call",
    "couples.brute_force_cap_hits": "count",
    "trace.overhead_s": "s",
}


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "varinterp", "__init__.py")):
        _fail(f"no varinterp sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import varinterp
    if not os.path.abspath(varinterp.__file__).startswith(SRC + os.sep):
        _fail(f"imported varinterp from {varinterp.__file__}, not from {SRC}")
    return varinterp


def _machine_line():
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "absent"
    return (f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} scipy={scipy_version} blas_threads="
            f"{os.environ['OPENBLAS_NUM_THREADS']}")


def measure_setup(part, probes):
    """Wall times of fresh interpreters that import varinterp and load one
    input file of the workload, with the speed probe after each."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET, SRC,
                        part.input_path, part.setup_kind],
                       check=True, cwd=ROOT, timeout=120)
        times.append(time.perf_counter() - start)
        probes.append(probe())
    return times


def run_cycle(vi, parts, cycle_dir, probes):
    """Run every part once, with the speed probe after each.

    Returns per-part (wall, cpu) seconds.
    """
    times = []
    for m, part in enumerate(parts):
        out_dir = os.path.join(cycle_dir, f"part-{m}")
        os.makedirs(out_dir)
        cpu0, wall0 = time.process_time(), time.perf_counter()
        part.run(vi, out_dir)
        times.append((time.perf_counter() - wall0, time.process_time() - cpu0))
        probes.append(probe())
    return times


def verify_cycle(vi, parts, cycle_dir):
    ops = []
    for m, part in enumerate(parts):
        ops += part.verify(vi, os.path.join(cycle_dir, f"part-{m}"))
    return ops


def cycle_outputs(parts, cycle_dir):
    return [read_outputs(os.path.join(cycle_dir, f"part-{m}"))
            for m in range(len(parts))]


def layer_metrics(tracer, overhead_s):
    stats = tracer.per_name()
    metrics = {}
    for name, (unit, span, field) in SPAN_METRICS.items():
        calls, inclusive, own = stats.get(span, (0, 0.0, 0.0))
        metrics[name] = (calls if field == "calls"
                         else inclusive if field == "inclusive" else own, unit)
    solves = metrics["varleb.solver_calls"][0]
    searches = metrics["couples.brute_force_calls"][0]
    counters = {
        "varleb.modular_evals": tracer.modular_evals,
        "varleb.modular_evals_per_solve":
            tracer.modular_evals / solves if solves else 0.0,
        "couples.brute_force_evals": tracer.brute_force_evals,
        "couples.brute_force_evals_per_call":
            tracer.brute_force_evals / searches if searches else 0.0,
        "couples.brute_force_cap_hits": tracer.brute_force_cap_hits,
        "trace.overhead_s": overhead_s,
    }
    for name, unit in COUNTER_METRICS.items():
        metrics[name] = (counters[name], unit)
    for layer in LAYERS:
        picked = [v for k, v in stats.items() if k.startswith(layer + ".")]
        metrics[f"{layer}.calls"] = (sum(v[0] for v in picked), "count")
        metrics[f"{layer}.self_s"] = (sum(v[2] for v in picked), "s")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    vi = _import_package()
    work_dir = os.path.join(ROOT, ".bench_out", args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    parts = make_parts(args.workload, args.seed, work_dir)
    print(_machine_line(), flush=True)

    probes = [probe()]
    setups = measure_setup(parts[0], probes)

    # whole cycles over all parts: at least MIN_CYCLES, then more while the
    # next one still fits in --seconds
    ops, cycles, reference, identical = [], [], None, True
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        cycle_dir = os.path.join(work_dir, f"cycle-{len(cycles)}")
        cycles.append(run_cycle(vi, parts, cycle_dir, probes))
        ops += verify_cycle(vi, parts, cycle_dir)
        ops += independent_checks(vi, np.random.default_rng([args.seed % 2 ** 63, 1]))
        outputs = cycle_outputs(parts, cycle_dir)
        reference = reference or outputs
        identical &= outputs == reference
        now = time.perf_counter()
        if (len(cycles) >= MIN_CYCLES
                and now - start + (now - cycle_start) > args.seconds):
            break

    # Other processes on the host only ever add time, so the fastest of a
    # part's cycles and the fastest probe are the least disturbed readings.
    def per_part_fastest(field):
        return sum(min(c[m][field] for c in cycles) for m in range(len(parts)))

    scale = REFERENCE_PROBE_S / min(probes)
    print(f"raw seconds: setup {[round(t, 4) for t in setups]}; parts per "
          f"cycle {[[round(t[0], 4) for t in c] for c in cycles]}; probes "
          f"{[round(t, 4) for t in probes]}", flush=True)

    if args.trace:
        cycle_dir = os.path.join(work_dir, "traced")
        with Tracer() as tracer:
            traced = run_cycle(vi, parts, cycle_dir, [])
        identical &= cycle_outputs(parts, cycle_dir) == reference
        metrics = layer_metrics(tracer, sum(t[0] for t in traced)
                                - per_part_fastest(0))
        tracer.write(os.path.join(work_dir, "trace.npz"),
                     {k: v[0] for k, v in metrics.items()})
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (per_part_fastest(0) * scale, "s"),
            "cpu_s": (per_part_fastest(1) * scale, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }

    bad = [(name, status) for name, status in ops if status != "ok"]
    for name, status in bad:
        print(f"operation {name}: {status}", file=sys.stderr)
    if not identical:
        print("reports differ between cycles", file=sys.stderr)
    result = {
        "correct": identical and not any(status == "wrong" for _, status in bad),
        "attempted": len(ops),
        "failed": sum(status.startswith("failed") for _, status in bad),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
