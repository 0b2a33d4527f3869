"""Compile benchmark for dqcmap.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the compiler is imported from its
`src/` directory. The seed generates the workload's OpenQASM text and
topology JSON (see inputs.py); the compiler sees nothing else. Each pass runs
every job of the workload the way `dqcmap map|ablate --circuit --topology`
does: `parse_qasm` and `load_cluster` on the texts, `run_map` or
`run_ablate`, then `render_json`. Passes repeat until the next one would
overrun S seconds (at least one runs), and every report is checked by an
independent checker (checker.py) and must repeat byte for byte across passes.

Passes of one run do identical deterministic work, so the differences
between them are the machine's doing. Each job and each set-up (a fresh
import of dqcmap plus the loading of every input, SETUPS_PER_PASS before
each pass) is timed on its own and rescaled for the host's speed around it
(pace.py). wall_s is the sum over the jobs of each job's median rescaled
time, setup_s the median rescaled set-up.

With --trace 0 the result line carries the end-to-end metrics; with --trace 1
untraced and traced passes alternate and it carries the per-layer metrics
(spans.py), whose spans are also written to perfbench/out/. Lines before the
result describe the run: interpreter, nproc, each job's report sha256, and
every metric with its unit.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, ROOT)

from perfbench import checker, inputs, pace, spans  # noqa: E402

SETUPS_PER_PASS = 2
MODULES = ("circuit", "segmentation", "placement", "cost", "anneal", "hardware", "harness")

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "plan_cost": "cost", "epr_pairs": "count", "baseline_share": "ratio",
}


def setup(jobs):
    """Import dqcmap afresh and load every job's inputs; returns the modules,
    the loaded inputs and the seconds it took."""
    gc.collect()
    t0 = perf_counter()
    for name in [n for n in sys.modules if n.split(".")[0] == "dqcmap"]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"dqcmap.{m}") for m in MODULES}
    loaded = [(mods["circuit"].parse_qasm(job.qasm, name=job.name),
               mods["hardware"].load_cluster(job.topology_json)) for job in jobs]
    return mods, loaded, perf_counter() - t0


def run_job(mods, job, circuit, cluster) -> str:
    harness = mods["harness"]
    if job.kind == "map":
        ap = None
        if job.iters_per_segment is not None:
            ap = mods["anneal"].AnnealParams(iters_per_segment=job.iters_per_segment)
        report = harness.run_map(circuit, cluster, seed=job.run_seed, anneal_params=ap)
    else:
        report = harness.run_ablate(circuit, cluster, seed=job.run_seed)
    return harness.render_json(report)


def run_pass(mods, jobs, loaded, tracer=None, pacer=None):
    """One pass over all jobs: (seconds of each job, rendered reports; None
    where a job raised). A pacer also files job k's time under k."""
    times, texts = [], []
    for k, (job, (circuit, cluster)) in enumerate(zip(jobs, loaded)):
        if tracer is not None:
            tracer.job_id = k
        gc.collect()
        t0 = perf_counter()
        try:
            texts.append(run_job(mods, job, circuit, cluster))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            texts.append(None)
        times.append(perf_counter() - t0)
        if pacer is not None:
            pacer.record(k, times[-1])
    return times, texts


def full_plan(job, report: dict) -> tuple[float, int, float, int]:
    """(e_total, EPR pairs, reduction against the random baseline, segments)
    of the job's full-pipeline plan."""
    if job.kind == "map":
        return (report["totals"]["e_total"], report["epr_pairs"],
                report["baseline"]["reduction"], len(report["segments"]))
    arm = report["arms"]["L3"]
    return arm["totals"]["e_total"], arm["epr_pairs"], report["reductions"]["L3"], arm["segments"]


def measure(mods, jobs, loaded, seconds: float, tracer, pacer=None):
    """Run passes until the next would overrun `seconds`. Returns the
    untraced passes and, with a tracer, the traced ones as (job seconds,
    texts, layer metrics). With a pacer, SETUPS_PER_PASS set-ups go before
    each pass, filed under "setup", and the untraced jobs are paced."""
    plain, traced = [], []
    t_start = perf_counter()
    while True:
        t_pass = perf_counter()
        if pacer is not None:
            for _ in range(SETUPS_PER_PASS):
                pacer.record("setup", setup(jobs)[2])
        times, texts = run_pass(mods, jobs, loaded, pacer=pacer)
        plain.append((times, texts))
        if tracer is not None:
            first = len(tracer.start)
            tracer.counters = {}
            tracer.install(mods)
            try:
                t_wall, t_texts = run_pass(mods, jobs, loaded, tracer)
            finally:
                tracer.uninstall()
            metrics = spans.layer_metrics(tracer.span_totals(first), tracer.counters,
                                          tracer.baseline_seconds(first))
            traced.append((t_wall, t_texts, metrics))
        now = perf_counter()
        if now - t_start + (now - t_pass) > seconds:
            return plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dqcmap", "__init__.py")):
        print(f"error: no dqcmap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    jobs = inputs.build_workload(args.workload, args.seed)
    mods, loaded, _ = setup(jobs)
    if not os.path.abspath(mods["harness"].__file__).startswith(SRC + os.sep):
        print(f"error: dqcmap was imported from {mods['harness'].__file__}", file=sys.stderr)
        return 2

    tracer = None
    setup_spans = {}
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(mods)
        try:
            for k, job in enumerate(jobs):
                tracer.job_id = k
                mods["circuit"].parse_qasm(job.qasm, name=job.name)
                mods["hardware"].load_cluster(job.topology_json)
        finally:
            tracer.uninstall()
        setup_spans = tracer.span_totals()

    pacer = None if tracer else pace.Pacer()
    plain, traced = measure(mods, jobs, loaded, args.seconds, tracer, pacer)

    # Check every report: the first untraced pass is the reference, later
    # passes (traced ones too) must reproduce it byte for byte.
    reference = plain[0][1]
    problems: dict[str, list[str]] = {}
    attempted = failed = 0
    for n, (_, texts, *_) in enumerate(plain + traced):
        for job, ref, text in zip(jobs, reference, texts):
            attempted += 1
            if text is None:
                failed += 1
                continue
            digest = hashlib.sha256(text.encode()).hexdigest()
            if digest not in problems:
                check = checker.check_map if job.kind == "map" else checker.check_ablate
                try:
                    found = check(job, json.loads(text))
                except (KeyError, TypeError, ValueError, IndexError) as exc:
                    found = [f"malformed report: {exc!r}"]
                problems[digest] = [f"job {job.name} report {digest[:16]}: {p}" for p in found]
            if text != ref:
                problems[digest].append(f"job {job.name} pass {n + 1} report {digest[:16]} "
                                        "differs from the first pass")
            failed += bool(problems[digest])

    print(f"# python {platform.python_version()} nproc {len(os.sched_getaffinity(0))} "
          f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("# pass seconds", " ".join(f"{sum(w):.3f}" for w, _ in plain),
          "traced", " ".join(f"{sum(t[0]):.3f}" for t in traced))
    plans = []
    for job, text in zip(jobs, reference):
        if text is None:
            print(f"# job {job.name} raised")
            continue
        digest = hashlib.sha256(text.encode()).hexdigest()
        print(f"# job {job.name} sha256 {digest}")
        if not problems[digest]:
            plans.append(full_plan(job, json.loads(text)))
    for problem in (p for ps in problems.values() for p in ps):
        print(f"# check failed: {problem}")

    if tracer is None:
        metrics = {
            "setup_s": statistics.median(pacer.samples["setup"]),
            "wall_s": sum(statistics.median(pacer.samples[k]) for k in range(len(jobs))),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "plan_cost": sum(p[0] for p in plans),
            "epr_pairs": sum(p[1] for p in plans),
            "baseline_share": statistics.fmean(1 - p[2] for p in plans) if plans else 1.0,
        }
        units = END_TO_END
        extra = {"reduction": (1 - metrics["baseline_share"], "ratio"),
                 "wall_unpaced_s": (sum(min(w[k] for w, _ in plain) for k in range(len(jobs))), "s")}
    else:
        # Times are the least over the traced passes; counts repeat exactly,
        # so they come from the first.
        metrics = {key: min(t[2][key] for t in traced)
                   if spans.LAYER_METRICS[key] == "s" else value
                   for key, value in traced[0][2].items()}
        metrics["segmentation.segments"] = sum(p[3] for p in plans)
        metrics["circuit.parse_qasm_s"] = setup_spans["circuit.parse_qasm"][1]
        metrics["hardware.load_cluster_s"] = setup_spans["hardware.load_cluster"][1]
        metrics["trace.overhead_s"] = min(sum(t[0]) for t in traced) - min(sum(w) for w, _ in plain)
        units = spans.LAYER_METRICS
        metrics = {key: metrics[key] for key in units}
        extra = {}
        tracer.write(os.path.join(ROOT, "perfbench", "out", f"{args.workload}.spans"),
                     {"workload": args.workload, "seed": args.seed,
                      "jobs": [job.name for job in jobs]})
    extra["fail_rate"] = (failed / attempted, "ratio")
    for key, value in metrics.items():
        print(f"{key} {value} {units[key]}")
    for key, (value, unit) in extra.items():
        print(f"{key} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
