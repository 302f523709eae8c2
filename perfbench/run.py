"""End-to-end benchmark of the whole cataloging pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload crowded_1w --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One execution sets up (imports ``repro``, spawns the process seats of a
process workload, makes one warm-up run), then cycles through the workload's
surveys, each run through the public ``repro.driver.run_pipeline``, for
``--seconds`` (and at least once through every survey), and checks every
catalog it publishes.  ``catalog_s`` is the mean over surveys of each
survey's median run; ``setup_s`` is the mean of this set-up and
``SETUP_REPEATS - 1`` more made in fresh interpreters after the steady
runs.  The last line of standard output is one JSON object: with
``--trace 0`` it holds the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` every run is followed by a run of the same survey under the
outside-in span recorder (:mod:`spans`), the result holds the per-layer
metrics, and the last traced run's spans are written as Chrome trace-event
JSON under ``.bench_out/``.  The exit code is 1 when a check fails.
``--smoke`` runs every workload with ``--quick`` (one survey, one set-up)
in both modes and fails when a check fails or a printed metric name and
``BENCHMARK.json`` disagree.

Every process the benchmark starts has ended when it exits (:mod:`procs`).
The benchmark records the BLAS threading and core count it ran on but never
sets them, and it sets no ``REPRO_*`` variable.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import procs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

#: Set-ups per execution (one in this process, the rest in fresh ones);
#: ``setup_s`` is their mean, not their median: on ``strip_2p`` set-up
#: times fall in two modes about equally often (4-5 s, and 6.5-10 s when
#: the two seats' slow first tasks overlap), so a median of set-ups
#: lands in either mode from one execution to the next.  Resampling 29
#: measured set-ups, a median of 7 gave ten-execution medians that moved by
#: more than 25% in 15% of trials; a mean of 5 in 0.1%.
SETUP_REPEATS = 5
#: The warm-up survey is the same for every seed, so set-up work is too.
WARMUP_SEED = 0
#: Cross-match radius (pixels) of the quality metrics.
MATCH_RADIUS = 2.0
#: A matched source's r-band flux is good within this relative error.  A
#: share of good sources varies far less from seed to seed than the median
#: error, which in trials swung by 25-80% between seeds.
FLUX_TOLERANCE = 0.1


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(values, pct):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, int(pct / 100.0 * len(ordered)))
    return ordered[rank]


# ---------------------------------------------------------------------------
# Set-up


def _checkpoint_path(workload, workdir, tag):
    """A fresh checkpoint path for one run of an on-disk workload: a reused
    path would resume a completed checkpoint and do no work."""
    if not workload.on_disk:
        return None
    directory = os.path.join(workdir, "ckpt-" + tag)
    os.makedirs(directory)
    return os.path.join(directory, "ckpt.json")


def set_up(name, workdir):
    """Everything a user pays once per session before the first steady
    run; returns ``(workload, pool, timings)``."""
    t0 = perf_counter()
    import workloads
    from repro.driver import run_pipeline
    from repro.driver.pool import WorkerPool
    import repro.validation  # noqa: F401 - part of what a session imports
    import_s = perf_counter() - t0

    workload = workloads.WORKLOADS[name]
    _, warm = workloads.make_survey(workload.warmup, WARMUP_SEED)
    warm = workloads.survey_inputs(workload, warm, workdir, "warmup")

    t1 = perf_counter()
    pool = None
    if workload.executor == "process":
        pool = WorkerPool()
        pool.ensure(workload.n_nodes)
    pool_spawn_s = perf_counter() - t1

    ckpt = _checkpoint_path(workload, workdir, "warmup")
    t2 = perf_counter()
    try:
        result = run_pipeline(warm, workload.config(ckpt), pool=pool)
    except BaseException:
        if pool is not None:
            pool.close()
        raise
    first_run_s = perf_counter() - t2
    return workload, pool, {
        "setup_s": import_s + pool_spawn_s + first_run_s,
        "import_s": import_s,
        "pool_spawn_s": pool_spawn_s,
        "first_run_s": first_run_s,
        "warmup_hash": catalog_hash(result.catalog),
    }


def probe_setups(name, n):
    """``n`` set-ups, each in a fresh interpreter."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name],
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError("set-up probe exited with %d" % proc.returncode)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


# ---------------------------------------------------------------------------
# Steady runs


def catalog_hash(catalog):
    """SHA-256 over every bit of every row, in catalog order."""
    import hashlib

    import numpy as np

    h = hashlib.sha256()
    for e in catalog:
        h.update(np.asarray(
            [*e.position, float(e.is_galaxy), e.flux_r, *e.colors,
             e.gal_frac_dev, e.gal_axis_ratio, e.gal_angle, e.gal_radius_px],
            dtype=np.float64).tobytes())
    return h.hexdigest()


def one_run(workload, pool, inputs, workdir, tag, traced):
    """One ``run_pipeline`` call, timed from outside, reduced to what the
    checks and metrics need: results kept whole would grow the heap run by
    run and with it the garbage collector's share of later runs."""
    from repro.driver import run_pipeline
    from spans import SpanRecorder

    ckpt = _checkpoint_path(workload, workdir, tag)
    config = workload.config(ckpt)
    rec = None
    if traced:
        rec = SpanRecorder()
        rec.install()
    gc.collect()
    t0 = perf_counter()
    try:
        if rec is not None:
            result = rec.call("driver.run_pipeline", run_pipeline, inputs,
                              config, pool=pool)
        else:
            result = run_pipeline(inputs, config, pool=pool)
        error = None
    except Exception:  # noqa: BLE001 - a failed run is counted, not fatal
        result, error = None, traceback.format_exc()
    seconds = perf_counter() - t0
    if rec is not None:
        rec.uninstall()
    if ckpt is not None:
        shutil.rmtree(os.path.dirname(ckpt), ignore_errors=True)
    run = {"ok": result is not None, "seconds": seconds, "error": error,
           "traced": traced}
    if result is None:
        return run
    report = result.report
    run.update(
        hash=catalog_hash(result.catalog),
        catalog=result.catalog,
        n_tasks=report.n_tasks,
        retried=sum(len(e.get("retried", ())) for e in report.recoveries
                    if e.get("kind") == "worker_death"),
        task_s=[o.seconds for o in result.outcomes if o.worker >= 0],
    )
    if traced:
        run["row"] = _layer_row(workload, result, rec, seconds)
        run["trace"] = {
            "traceEvents": rec.chrome_events(),
            "worker_comm": report.worker_comm,
            "outcomes": [vars(o) for o in result.outcomes],
            "recoveries": report.recoveries,
            "driver_report": report.summary_lines(),
        }
    return run


def run_surveys(workload, pool, seed, n_surveys, workdir, seconds, trace):
    """Cycle through ``n_surveys`` surveys of ``seed`` until ``seconds``
    passed and every survey ran, making each survey when it is first
    needed; with tracing every survey runs untraced, then traced.  Returns
    ``(truths, runs, trace)``: the runs grouped by survey and the last
    traced run's trace."""
    import workloads

    truths, inputs, runs = [], [], []
    last_trace = None
    start = perf_counter()
    i = 0
    while i < n_surveys or perf_counter() - start < seconds:
        k = i % n_surveys
        if k == len(inputs):
            truth, fields = workloads.make_survey(workload.survey, seed, k)
            truths.append(truth)
            inputs.append(workloads.survey_inputs(workload, fields, workdir,
                                                  "s%d" % k))
            runs.append([])
        for traced in ((False, True) if trace else (False,)):
            run = one_run(workload, pool, inputs[k], workdir,
                          "%d-%d" % (k, i), traced)
            last_trace = run.pop("trace", last_trace)
            runs[k].append(run)
        i += 1
    return truths, runs, last_trace


# ---------------------------------------------------------------------------
# Checks and metrics


def account(runs):
    """``(attempted, failed)`` tasks.  A task re-dispatched after a worker
    death counts as failed; a run that raised counts all its tasks (as many
    as a good run of the same survey had) as failed."""
    attempted = failed = 0
    for survey_runs in runs:
        good = [r["n_tasks"] for r in survey_runs if r["ok"]]
        per_run = max(good) if good else 1
        for r in survey_runs:
            if not r["ok"]:
                attempted += per_run
                failed += per_run
                continue
            attempted += r["n_tasks"]
            failed += r["retried"]
    return attempted, failed


def quality(truths, runs):
    """Completeness and the share of matched sources with a good flux,
    pooled over every survey."""
    from repro.validation import match_catalogs

    n_truth = matched = flux_ok = 0
    for truth, survey_runs in zip(truths, runs):
        done = [r["catalog"] for r in survey_runs if r["ok"]]
        n_truth += len(truth)
        if not done:
            continue
        m = match_catalogs(truth, done[0], MATCH_RADIUS)
        matched += m.n_matched
        flux_ok += sum(abs(e.flux_r / t.flux_r - 1.0) <= FLUX_TOLERANCE
                       for t, e in m.pairs)
    return matched / max(n_truth, 1), flux_ok / max(matched, 1)


def check(workload, runs, setups, completeness, flux_ok_frac):
    """Problems with the published catalogs, as messages.  Every run of a
    survey, traced or not, and the warm-up run of every set-up must publish
    bit-identical catalogs."""
    problems = []
    for k, survey_runs in enumerate(runs):
        hashes = {r["hash"] for r in survey_runs if r["ok"]}
        if not hashes:
            problems.append("survey %d: no run succeeded" % k)
        elif len(hashes) > 1:
            problems.append("survey %d: runs published %d different catalogs"
                            % (k, len(hashes)))
    if len({s["warmup_hash"] for s in setups}) > 1:
        problems.append("set-ups published different warm-up catalogs")
    if completeness < workload.min_completeness:
        problems.append("completeness %.3f below %.2f"
                        % (completeness, workload.min_completeness))
    if flux_ok_frac < workload.min_flux_ok_frac:
        problems.append("flux_ok_frac %.3f below %.2f"
                        % (flux_ok_frac, workload.min_flux_ok_frac))
    return problems


def peak_rss_mb():
    """Peak RSS of this process plus the largest of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def survey_mean(runs, traced):
    """The mean over surveys of each survey's median run time.  A plain
    median over all runs would move with how many runs of which survey fit
    in the time, as far as the surveys differ in work."""
    medians = [statistics.median(times) for times in (
        [r["seconds"] for r in survey_runs
         if r["ok"] and r["traced"] == traced] for survey_runs in runs)
        if times]
    return statistics.fmean(medians) if medians else 0.0


def end_to_end(runs, truths, setups, rss_mb, attempted, failed):
    completeness, flux_ok_frac = quality(truths, runs)
    return {
        "setup_s": (statistics.fmean(s["setup_s"] for s in setups), "s"),
        "catalog_s": (survey_mean(runs, traced=False), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "completeness": (completeness, "fraction"),
        "flux_ok_frac": (flux_ok_frac, "fraction"),
        "ok_frac": (1.0 - failed / max(attempted, 1), "fraction"),
    }


def per_layer(runs, setups):
    """Per-layer metrics: span times are medians over the traced runs;
    counts come from the program's own counters and report."""
    traced = [r for survey_runs in runs for r in survey_runs
              if r["traced"] and r["ok"]]
    untraced = [r for survey_runs in runs for r in survey_runs
                if not r["traced"] and r["ok"]]
    rows = [r["row"] for r in traced]
    out = {name: (_median([row[name][0] for row in rows]), row_unit)
           for name, (_, row_unit) in rows[0].items()} if rows else {}

    # Task times pooled over every run of the execution.
    task_s = [t for r in traced + untraced for t in r["task_s"]]
    tail = max(50, int(100.0 * (1.0 - 10.0 / len(task_s)))) \
        if len(task_s) > 20 else 50
    out["driver.task_n"] = (len(task_s), "count")
    out["driver.task_s_p50"] = (_percentile(task_s, 50), "s")
    out["driver.task_s_ptail"] = (_percentile(task_s, tail), "s")
    out["driver.task_s_ptail_pct"] = (tail, "percentile")
    out["driver.pool_spawn_s"] = (
        _median([s["pool_spawn_s"] for s in setups]), "s")
    t_traced = survey_mean(runs, traced=True)
    t_plain = survey_mean(runs, traced=False)
    out["trace.overhead_frac"] = (
        t_traced / t_plain - 1.0 if t_plain > 0 else 0.0, "fraction")
    return out


def _layer_row(workload, result, rec, wall):
    from repro.perf.flops import flops_from_visits

    spans = rec.self_times()

    def self_s(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[2] for n in names)

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    c, report = result.counters, result.report
    elbo_s = self_s("core.elbo")
    visits = c.get("active_pixel_visits", 0.0)
    evals = c.get("objective_evaluations", 0.0)
    regions = [out for name, out in rec.results if name == "parallel.region"]
    n_results = sum(len(r.results) for r in regions)
    batches = [out for name, out in rec.results if name == "parallel.cyclades"]
    rounds = sum(len(b) for b in batches)
    scheduled = sum(batch.n_sources for b in batches for batch in b)
    busy = report.task_seconds
    by_worker = {}
    for o in result.outcomes:
        if o.worker >= 0:
            by_worker[o.worker] = by_worker.get(o.worker, 0.0) + o.seconds
    root = spans.get("driver.run_pipeline", (0, wall, 0.0))[1]
    return {
        "core.elbo_s": (elbo_s, "s"),
        "core.elbo_calls": (evals, "count"),
        "core.elbo_ms_per_call": (1e3 * elbo_s / evals if evals else 0.0,
                                  "ms"),
        "core.elbo_batch_calls": (c.get("elbo_batch_calls", 0.0), "count"),
        "core.elbo_batch_lanes": (c.get("elbo_batch_lanes", 0.0), "count"),
        "core.visits": (visits, "count"),
        "core.visits_per_s": (visits / elbo_s if elbo_s else 0.0, "1/s"),
        "core.gflops": (flops_from_visits(visits) / elbo_s / 1e9
                        if elbo_s else 0.0, "GFLOP/s"),
        "core.region_setup_s": (self_s("core.region_setup"), "s"),
        "core.render_s": (self_s("core.render"), "s"),
        "core.render_calls": (calls("core.render"), "count"),
        "core.context_s": (self_s("core.context"), "s"),
        "optim.tr_s": (self_s("optim.tr"), "s"),
        "optim.tr_calls": (calls("optim.tr"), "count"),
        "optim.newton_iters_per_source": (
            c.get("newton_iterations", 0.0) / c["newton_solves"]
            if c.get("newton_solves") else 0.0, "count"),
        "optim.converged_frac": (
            sum(r.n_converged for r in regions) / n_results
            if n_results else 0.0, "fraction"),
        "parallel.region_s_total": (
            spans.get("parallel.region", (0, 0.0, 0.0))[1], "s"),
        "parallel.region_self_s": (self_s("parallel.region"), "s"),
        "parallel.conflict_s": (self_s("parallel.conflict"), "s"),
        "parallel.cyclades_s": (self_s("parallel.cyclades"), "s"),
        "parallel.rounds": (rounds, "count"),
        "parallel.sources_per_round": (
            scheduled / rounds if rounds else 0.0, "count"),
        "driver.self_s": (self_s("driver.run_pipeline"), "s"),
        "driver.busy_s": (busy, "s"),
        "driver.idle_s": (
            workload.n_nodes * wall - busy - report.sched_seconds, "s"),
        "driver.busy_imbalance": (
            max(by_worker.values()) * len(by_worker) / sum(by_worker.values())
            if by_worker and sum(by_worker.values()) > 0 else 0.0, "ratio"),
        "driver.checkpoint_s": (self_s("driver.checkpoint"), "s"),
        "driver.journal_s": (self_s("driver.journal"), "s"),
        "driver.merge_s": (self_s("driver.merge"), "s"),
        "driver.recoveries": (len(report.recoveries), "count"),
        "pgas.gets": (report.rma_gets, "count"),
        "pgas.puts": (report.rma_puts, "count"),
        "pgas.bytes": (report.rma_bytes, "bytes"),
        "pgas.remote": (sum(w.get("rma_remote", 0)
                            for w in report.worker_comm), "count"),
        "pgas.s": (self_s("pgas.get", "pgas.put"), "s"),
        "sched.s": (self_s("sched.request"), "s"),
        "sched.messages": (report.messages, "count"),
        "sched.hops": (report.hops, "count"),
        "survey.prefetch_hits": (report.prefetch_hits, "count"),
        "survey.prefetch_misses": (report.prefetch_misses, "count"),
        "survey.prefetch_s": (report.prefetch_seconds, "s"),
        "photo.s": (self_s("photo.run"), "s"),
        "photo.detections": (len(result.seed_catalog), "count"),
        "partition.s": (self_s("partition.generate"), "s"),
        "partition.tasks": (report.n_tasks, "count"),
        "partition.sources_per_task_p50": (
            _median([o.n_sources for o in result.outcomes]), "count"),
        "trace.wall_s": (root, "s"),
        "trace.self_sum_frac": (
            sum(v[2] for v in spans.values()) / root if root else 0.0,
            "fraction"),
    }


def write_trace(path, workload, trace, env, metrics):
    """The last traced run's spans plus the per-worker numbers that the
    seats report, as Chrome trace-event JSON (viewable in Perfetto)."""
    other = {k: v for k, v in trace.items() if k != "traceEvents"}
    with open(path, "w") as fh:
        json.dump({
            "traceEvents": trace["traceEvents"],
            "displayTimeUnit": "ms",
            "otherData": {
                "workload": workload.name,
                "environment": env,
                "metrics": {k: v for k, (v, _) in metrics.items()},
                **other,
            },
        }, fh)


# ---------------------------------------------------------------------------
# Entry points


def measure(args, workdir):
    workload, pool, first_setup = set_up(args.workload, workdir)
    import envinfo

    n_setups, n_surveys = ((1, 1) if args.quick
                           else (SETUP_REPEATS, workload.n_surveys))
    try:
        env = envinfo.environment(workload)
        truths, runs, trace = run_surveys(
            workload, pool, args.seed, n_surveys, workdir, args.seconds,
            bool(args.trace))
    finally:
        if pool is not None:
            pool.close()
    # Read before the set-up probes run: they are children too.
    rss_mb = peak_rss_mb()
    setups = [first_setup] + probe_setups(args.workload, n_setups - 1)

    attempted, failed = account(runs)
    e2e = end_to_end(runs, truths, setups, rss_mb, attempted, failed)
    problems = check(workload, runs, setups, e2e["completeness"][0],
                     e2e["flux_ok_frac"][0])
    for survey_runs in runs:
        for r in survey_runs:
            if r["error"]:
                sys.stderr.write(r["error"])
    print("environment " + json.dumps(env, sort_keys=True))
    print("setup %s" % json.dumps(setups))
    steady = [r["seconds"] for survey_runs in runs for r in survey_runs
              if not r["traced"]]
    print("steady runs %d over %d surveys, seconds by survey %s"
          % (len(steady), len(runs), " | ".join(
              " ".join("%.3f" % r["seconds"] for r in survey_runs
                       if not r["traced"]) for survey_runs in runs)))
    if args.trace:
        metrics = per_layer(runs, setups)
        if trace is not None:
            os.makedirs(OUT, exist_ok=True)
            path = os.path.join(OUT, "trace-%s-seed%d.json"
                                % (workload.name, args.seed))
            write_trace(path, workload, trace, env, metrics)
            print("trace written to %s" % os.path.relpath(path, ROOT))
    else:
        metrics = e2e
    for name, (value, unit) in metrics.items():
        print("%-34s %14.6g %s" % (name, value, unit))
    for p in problems:
        print("CHECK FAILED: " + p)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if problems else 0


def smoke():
    """Every workload, end to end, briefly, in both modes; fails when the
    printed metric names and BENCHMARK.json disagree or a check fails."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 w["name"], "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--quick"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                for line in lines:
                    if line.startswith("CHECK FAILED"):
                        print(line)
                print("smoke %s trace=%d: exit %d"
                      % (w["name"], trace, proc.returncode))
                ok = False
                continue
            result = json.loads(lines[-1])
            printed = set(result["metrics"])
            missing = sorted(declared[trace] - printed)
            extra = sorted(printed - declared[trace])
            good = result["correct"] and not missing and not extra
            ok = ok and good
            print("smoke %s trace=%d: %s%s%s" % (
                w["name"], trace, "ok" if good else "FAILED",
                " missing %s" % missing if missing else "",
                " undeclared %s" % extra if extra else ""))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload briefly and check metric names")
    ap.add_argument("--quick", action="store_true",
                    help="one survey and one set-up (what --smoke runs)")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    procs.exit_on_sigterm()
    procs.adopt_orphans()
    try:
        return _main(ap, args)
    finally:
        procs.stop_children()


def _main(ap, args):
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no program to measure: %s/repro is missing"
              % os.path.relpath(SRC, ROOT), file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    workdir = os.path.join(OUT, "work-%d" % os.getpid())
    tmp = os.path.join(workdir, "tmp")
    os.makedirs(tmp)
    # The pipeline's temporary files go under the repository, like
    # everything else the benchmark writes.
    os.environ["TMPDIR"] = tmp
    sys.path.insert(0, SRC)
    try:
        if args.setup_probe:
            _, pool, timings = set_up(args.workload, workdir)
            if pool is not None:
                pool.close()
            print(json.dumps(timings))
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
