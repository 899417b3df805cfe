"""Benchmark of spinlap's pipelines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports spinlap from ``src/`` there
and exits with code 2 if that is missing.  One process runs one workload
(``perfbench/spread.py`` runs them all, one process after the other):
set-up (imports, then inputs from the seed and a warm-up, three times), then
whole rounds of the workload's operations until the next round would end
after S seconds (at least the workload's ``min_rounds``).  Times are medians
over the rounds.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The exit code
is 1 when an output check failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = {
    "run_s": "s",
    "first_result_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

PER_LAYER = {
    "surface.layer_s": "s",
    "hodge.layer_s": "s",
    "homology_spin.layer_s": "s",
    "theta.layer_s": "s",
    "spectral.layer_s": "s",
    "determinants.layer_s": "s",
    "surface.generate_mesh_s": "s",
    "surface.generate_mesh_calls": "count",
    "surface.triangles": "count",
    "hodge.period_matrix_s": "s",
    "hodge.period_matrix_calls": "count",
    "homology_spin.calibrate_characteristic_s": "s",
    "homology_spin.build_sign_lift_s": "s",
    "theta.theta_batch_s": "s",
    "theta.theta_batch_points": "count",
    "theta.theta_s": "s",
    "theta.theta_calls": "count",
    "spectral.assemble_operator.friedrichs_s": "s",
    "spectral.assemble_operator.szego_s": "s",
    "spectral.assemble_operator.holomorphic_s": "s",
    "spectral.eigenvalues.friedrichs_s": "s",
    "spectral.eigenvalues.szego_s": "s",
    "spectral.eigenvalues.holomorphic_s": "s",
    "spectral.eigenvalues_calls": "count",
    "spectral.dofs": "count",
    "spectral.stiffness_nnz": "count",
    "spectral.eigenpairs": "count",
    "spectral.zeta_determinant_s": "s",
    "spectral.zeta_determinant_failed": "count",
    "determinants.t_matrix_zero_s": "s",
    "determinants.t_matrix_zero_calls": "count",
    "determinants.determinant_report_s": "s",
}

# Per-layer metrics read from another aggregate than their own name.
INCLUSIVE = {"determinants.determinant_report_s":
             "determinants.determinant_report_incl_s"}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "SPINLAP_THREADS")

SET_UPS = 3


def process_age():
    """Seconds since this process started (0 where /proc is unavailable)."""
    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as f:
            uptime = float(f.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    age = uptime - start_ticks / os.sysconf("SC_CLK_TCK")
    return age if 0.0 <= age < 60.0 else 0.0


def cap_threads():
    """One BLAS/OpenMP thread (never more than nproc); must run before numpy
    is imported.  On a shared 2-vCPU host two threads wait on each other
    whenever a neighbour holds one CPU: with one busy process beside it, a
    torus eigensolve took 1.7 times as long with two threads and no longer
    with one."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return 1


def result_line(correct, attempted, failed, values, units):
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


def per_layer_values(aggregates, n_rounds):
    """Per-round means of the traced figures (0 for a layer a workload does
    not reach)."""
    return {name: aggregates.get(INCLUSIVE.get(name, name), 0) / n_rounds
            for name in PER_LAYER}


def measure(workload, inputs, seconds, clock, rounds_cls):
    """At least `workload.min_rounds` rounds, then more until the next one
    would end after `seconds`; and the peak RSS (MiB) at the end of the first
    round."""
    rounds, peak_rss_mb = [], None
    t0 = clock()
    while True:
        rnd = rounds_cls(clock, len(rounds))
        workload.run_round(inputs, rnd)
        rnd.finish()
        rounds.append(rnd)
        if peak_rss_mb is None:
            # later rounds add 0-12 MiB of allocator fragmentation at random
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # the round's meshes and operators sit in reference cycles; collect
        # them here, so that no round pays for another's garbage
        gc.collect()
        elapsed = clock() - t0
        if (len(rounds) >= workload.min_rounds
                and elapsed + elapsed / len(rounds) > seconds):
            return rounds, peak_rss_mb


def main(argv=None):
    age = process_age()
    clock = time.perf_counter
    t_main = clock()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spinlap" / "__init__.py").is_file():
        print(f"perfbench: no spinlap sources under {ROOT / 'src'}; run from "
              "the root of a checkout of the repository", file=sys.stderr)
        return 2
    threads = cap_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import trace, workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(workloads.WORKLOADS))
    workload = workloads.WORKLOADS[args.workload]
    t_imported = clock()
    repeats = []
    for _ in range(SET_UPS):
        t = clock()
        inputs = workload.prepare(args.seed)
        workloads.warm_up()
        repeats.append(clock() - t)
    # process start to end of set-up, inputs and warm-up counted once at the
    # median of their repeats
    setup_s = age + t_imported - t_main + statistics.median(repeats)

    tracer = trace.Tracer(clock).install() if args.trace else None
    try:
        rounds, peak_rss_mb = measure(workload, inputs, args.seconds, clock,
                                      workloads.Round)
    finally:
        if tracer is not None:
            tracer.restore()

    attempted = sum(r.attempted for r in rounds)
    failed = sum(len(r.failed) for r in rounds)
    wrong = [w for r in rounds for w in r.wrong] + workload.check_run(rounds)
    run_s = statistics.median(r.duration for r in rounds)
    firsts = [r.first_result for r in rounds if r.first_result is not None]
    first_result_s = statistics.median(firsts) if firsts else run_s

    print(f"perfbench: workload {workload.name} seed {args.seed} threads "
          f"{threads} trace {args.trace} rounds {len(rounds)}")
    for i, r in enumerate(rounds):
        print(f"  round {i}: {r.duration:.3f}s; "
              + "; ".join(r.log + [f"FAILED {f}" for f in r.failed]))
    for w in wrong:
        print(f"  CHECK FAILED: {w}", file=sys.stderr)

    if tracer is not None:
        values = per_layer_values(trace.aggregate(tracer.spans, tracer.counts),
                                  len(rounds))
        out = ROOT / "perfbench" / "out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{workload.name}-seed{args.seed}.json"
        path.write_text(json.dumps({"rounds": len(rounds),
                                    "spans": tracer.spans,
                                    "counts": dict(tracer.counts)}))
        print(f"  traced round median {run_s:.3f}s; {len(tracer.spans)} spans "
              f"written to {path.relative_to(ROOT)}")
        units = PER_LAYER
    else:
        values = {"run_s": run_s, "first_result_s": first_result_s,
                  "peak_rss_mb": peak_rss_mb, "setup_s": setup_s}
        units = END_TO_END
    correct = not wrong
    print(result_line(correct, attempted, failed, values, units))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
