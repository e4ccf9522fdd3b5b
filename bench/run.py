"""treequant benchmark: one workload, one seed, one measured window.

    python3 bench/run.py --workload cf-cage --seed 1 --seconds 40 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  The run generates its inputs from the seed, then repeats a whole
job (train, evaluate the checkpoint, export the tree) until the window is
used up.  With ``--trace 0`` only phase boundaries are timed and the
end-to-end metrics are reported; with ``--trace 1`` traced jobs (spans around
every layer) alternate with untraced ones and the per-layer metrics are
reported.  Every job is checked; the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Details, the
environment and all spans are written under ``.bench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import JobSpans, Recorder

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 20     # set-up is short, so it is sampled often
MIN_JOBS = 3           # untraced run; a traced run needs two of each kind
WINDOW_LIMIT = 2.0     # never start a job after this many windows have passed

# Metric names and units are the ones BENCHMARK.json declares.
SPEC = ROOT / "BENCHMARK.json"
EXACT_UNITS = ("count", "bytes")   # per-layer work counts: must repeat across jobs


def parse_args(argv):
    def non_negative(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("must be >= 0")
        return value

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=non_negative, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _openblas():
    """(library path, ctypes handle) of the OpenBLAS NumPy loaded, or (None, None)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None, None
    paths = sorted(p for p in paths if p.startswith("/"))
    return (paths[0], ctypes.CDLL(paths[0])) if paths else (None, None)


def _call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            fn.argtypes = []
            value = fn()
            return value.decode() if isinstance(value, bytes) else value
    return None


def environment() -> dict:
    """Versions and thread settings; fails if OpenBLAS did not take the pin."""
    import numpy as np

    path, lib = _openblas()
    threads = config = None
    if lib is not None:
        threads = _call(lib, ["scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                              "openblas_get_num_threads"], ctypes.c_int)
        config = _call(lib, ["scipy_openblas_get_config64_", "openblas_get_config64_",
                             "openblas_get_config"], ctypes.c_char_p)
    if threads is not None and threads != 1:
        raise SystemExit(f"error: OpenBLAS runs {threads} threads despite the pin")
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            git_sha = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass    # no git: the source sha256 still identifies the code
    digest = hashlib.sha256()
    for src in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(src.relative_to(ROOT)).encode() + b"\0" + src.read_bytes())
    return {
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": config,
        "openblas_library": os.path.basename(path) if path else None,
        "blas_threads": threads,
        "blas_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


def import_package():
    """Import treequant from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import treequant
    except ImportError as exc:
        raise SystemExit(f"error: cannot import treequant from {ROOT / 'src'}: {exc}")
    if not Path(treequant.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"error: treequant resolved outside this checkout: {treequant.__file__}")


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

median = statistics.median


def percentile(values, q):
    import numpy as np
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if values else 0.0


def tail_percentile(n):
    """Highest whole percentile with at least ten samples beyond it, or None."""
    p = (100 * (n - 10)) // n if n > 0 else 0
    return p if p > 50 else None


def describe(name, unit, samples, higher_is_better=False):
    med = median(samples)
    p = tail_percentile(len(samples))
    text = f"{name:<24} median {med:.6g} {unit}  n={len(samples)}"
    if p is not None:
        # the tail is the slow side: low rates, high times
        tail = percentile(samples, 100 - p if higher_is_better else p)
        text += f"  p{p} {tail:.6g} {unit}"
    return med, text


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------

def run_jobs(rec, wl, cfg, seconds, trace):
    """Set up SETUP_REPEATS times (untraced runs), then repeat jobs until the window is used.

    Jobs write under the current directory.  Returns (setup ids,
    [(job id, traced, facts)] of the jobs that passed, [(id, failed check)],
    operations attempted).
    """
    import job as J

    failures = []
    started = time.perf_counter()
    setup_ids = []
    n_setups = 0 if trace else SETUP_REPEATS
    for i in range(n_setups):
        rec.job = f"setup-{i}"
        try:
            with rec.span("bench.setup"):
                J.setup_once(cfg)
            setup_ids.append(rec.job)
        except Exception:
            traceback.print_exc()
            failures.append((rec.job, "exception"))
        finally:
            rec.job = None

    jobs, last, started_jobs = [], 0.0, 0
    min_jobs = 4 if trace else MIN_JOBS
    first_jobs = 2 if trace else 1    # one of each kind before the time limit applies
    while True:
        elapsed = time.perf_counter() - started
        if started_jobs >= first_jobs and elapsed >= WINDOW_LIMIT * seconds:
            break
        if started_jobs >= min_jobs and elapsed + last > seconds:
            break
        job_id = f"job-{started_jobs}"
        traced = trace and started_jobs % 4 in (1, 2)    # U T T U: both kinds see warm and cold turns
        started_jobs += 1
        begin = time.perf_counter()
        try:
            if traced:
                with rec.wrapped(J.LAYERS):
                    facts, failed = J.run_job(rec, job_id, wl, cfg, job_id)
            else:
                facts, failed = J.run_job(rec, job_id, wl, cfg, job_id)
        except Exception:
            traceback.print_exc()
            failed, facts = ["exception"], None
        last = time.perf_counter() - begin
        if failed:
            failures.extend((job_id, name) for name in failed)
        else:
            jobs.append((job_id, traced, facts))
        print(f"{job_id}{' traced' if traced else ''}: {last:.3f} s"
              f"{'  FAILED ' + ','.join(failed) if failed else ''}", flush=True)

    # every job must reproduce the first one exactly (bit-reproducible runs)
    if jobs:
        reference = jobs[0][2]
        for job_id, _, facts in jobs[1:]:
            if facts != reference:
                failures.append((job_id, "facts_differ_across_jobs"))
    bad = {j for j, _ in failures}
    jobs = [entry for entry in jobs if entry[0] not in bad]
    return setup_ids, jobs, failures, n_setups + started_jobs


def end_to_end(rec, setup_ids, jobs):
    setup, run, export, train, evals = [], [], [], [], []
    for setup_id in setup_ids:
        setup.append(JobSpans(rec.spans, setup_id).total("bench.setup"))
    for job_id, _, facts in jobs:
        js = JobSpans(rec.spans, job_id)
        phases = js.children_of("train.run_train")
        setup.append(phases.get("train.prepare", 0.0) + phases.get("train.build_model", 0.0))
        step_phase = js.total("train.run_train") - sum(
            phases.get(name, 0.0) for name in
            ("train.prepare", "train.build_model", "metrics.evaluate", "checkpoint.save"))
        train.append(facts["examples"] / step_phase)
        evals.extend(s[5]["units"] / (s[2] - s[1]) for s in js.named("metrics.evaluate"))
        run.append(js.total("bench.job"))
        export.append(js.total("bench.export"))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    return {
        "setup_s": setup,
        "train_examples_per_s": train,
        "eval_units_per_s": evals,
        "run_s": run,
        "export_s": export,
        "peak_rss_mb": [peak],
    }


def per_layer(rec, jobs, exact):
    """Per traced job: layer times and counts.  Returns (rows, pooled samples, failures)."""
    import job as J

    is_layer = lambda name: name.startswith(J.LAYER_PREFIXES)
    rows, step_ms, predict_ms, failures = [], [], [], []
    for job_id, traced, facts in jobs:
        if not traced:
            continue
        js = JobSpans(rec.spans, job_id)
        step_s = js.total("models.step")
        in_step = js.children_of("models.step")
        run_s = js.total("bench.job")
        row = {
            "quantizer.quantize_batch_s": js.total("quantizer.quantize_batch"),
            "quantizer.quantize_batch_calls": len(js.named("quantizer.quantize_batch")),
            "quantizer.quantize_batch_rows": js.count("quantizer.quantize_batch", "rows"),
            "quantizer.dist_evals": js.count("quantizer.quantize_batch", "dist_evals"),
            "quantizer.ste_backward_s": js.total("quantizer.ste_backward"),
            "quantizer.extract_tree_s": js.total("quantizer.extract_tree"),
            "models.step_s": step_s,
            "models.step_self_s": js.self_time("models.step"),
            "models.step_quantizer_share": (in_step.get("quantizer.quantize_batch", 0.0)
                                            + in_step.get("quantizer.ste_backward", 0.0)) / step_s,
            "models.predict_s": js.total("models.predict"),
            "models.predict_calls": len(js.named("models.predict")),
            "core.adam_s": js.total("core.adam"),
            "core.adam_elements": js.count("core.adam", "elements"),
            "core.mlp_s": js.total("core.mlp"),
            "core.softmax_xent_s": js.total("core.softmax_xent"),
            "data.load_s": js.total("data.load"),
            "data.split_s": js.total("data.split"),
            "data.preprocess_s": js.total("data.preprocess"),
            "data.sample_negatives_s": js.total("data.sample_negatives"),
            "data.sample_negatives_calls": len(js.named("data.sample_negatives")),
            "data.negatives_drawn": js.count("data.sample_negatives", "negatives"),
            "metrics.evaluate_s": js.total("metrics.evaluate"),
            "metrics.evaluate_self_s": js.self_time("metrics.evaluate"),
            "metrics.val_ndcg_at_10": facts["val"]["ndcg@10"],
            "train.loop_self_s": js.self_time("train.run_train"),
            "checkpoint.save_s": js.total("checkpoint.save"),
            "checkpoint.load_s": js.total("checkpoint.load"),
            "checkpoint.bytes": js.count("checkpoint.save", "bytes"),
            "treeio.write_s": js.total("treeio.write"),
            "treeio.bytes": js.count("treeio.write", "bytes"),
            "trace.coverage": js.covered(is_layer) / run_s,
            "run_s": run_s,
            "step_breakdown_s": dict(sorted(in_step.items())),
        }
        # the traced counts must agree with what the job says it did
        if js.count("models.step", "examples") != facts["examples"]:
            failures.append((job_id, "traced_examples"))
        if row["models.predict_calls"] != js.count("metrics.evaluate", "units"):
            failures.append((job_id, "traced_predict_calls"))
        rows.append((job_id, row))
        step_ms.extend(1000.0 * d for d in js.durations("models.step"))
        predict_ms.extend(1000.0 * d for d in js.durations("models.predict"))
    for job_id, row in rows[1:]:
        failures.extend((job_id, f"{name}_differs_across_jobs")
                        for name in exact if row[name] != rows[0][1][name])
    return [row for _, row in rows], {"models.step_ms": step_ms, "models.predict_ms": predict_ms}, failures


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def report_per_layer(rec, jobs, declared):
    """Print and return the per-layer metrics of a traced run, plus failures."""
    exact = [m["name"] for m in declared if m["unit"] in EXACT_UNITS] + ["metrics.val_ndcg_at_10"]
    rows, pooled, failures = per_layer(rec, jobs, exact)
    untraced = [JobSpans(rec.spans, j).total("bench.job") for j, traced, _ in jobs if not traced]
    if not rows or not untraced:
        raise SystemExit("error: a traced run needs traced and untraced jobs that pass")
    summary = {name: median([row[name] for row in rows]) for name in rows[0]
               if not isinstance(rows[0][name], dict)}
    summary["trace.overhead"] = median([row["run_s"] for row in rows]) / median(untraced)
    for name, samples in pooled.items():
        for q in (50, 90, 99):
            summary[f"{name}.p{q}"] = percentile(samples, q)
    print(f"traced jobs {len(rows)}, untraced jobs {len(untraced)}; "
          f"step calls pooled n={len(pooled['models.step_ms'])}, "
          f"predict calls pooled n={len(pooled['models.predict_ms'])}")
    breakdown = {k: median([r["step_breakdown_s"].get(k, 0.0) for r in rows])
                 for k in rows[0]["step_breakdown_s"]}
    print("models.step children (s, median job): " + json.dumps(breakdown, sort_keys=True))
    metrics = {}
    for m in declared:
        print(f"{m['name']:<34} {summary[m['name']]:.6g} {m['unit']}")
        metrics[m["name"]] = {"value": summary[m["name"]], "unit": m["unit"]}
    return metrics, rows, failures


def report_end_to_end(rec, setup_ids, jobs, declared):
    """Print and return the end-to-end metrics of an untraced run."""
    samples = end_to_end(rec, setup_ids, jobs)
    metrics = {}
    for m in declared:
        value, text = describe(m["name"], m["unit"], samples[m["name"]],
                               higher_is_better=m["better"] == "higher")
        print(text)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics, samples


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"        # before NumPy is imported anywhere
    import_package()
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    env = environment()
    import job as J      # imports NumPy and the package

    if args.workload not in J.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(J.WORKLOADS)}")
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be > 0")
    # quiet, and configured before export-tree's own logging set-up
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")

    wl = J.WORKLOADS[args.workload]
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    rec = Recorder()
    # Jobs run inside the work directory with relative paths, so the config
    # stored in each checkpoint, and hence its sha256, is the same in every
    # checkout and every run of a seed.
    os.chdir(work)
    try:
        data_path = "lists.txt" if wl.lists else "interactions.tsv"
        shape = wl.generate(data_path, args.seed)
        cfg = wl.config(data_path, args.seed)
        print("env " + json.dumps(env, sort_keys=True))
        print("shape " + json.dumps(shape, sort_keys=True), flush=True)
        with rec.wrapped(J.PHASES):
            setup_ids, jobs, failures, attempted = run_jobs(rec, wl, cfg, args.seconds, args.trace)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
    if not jobs:
        print(f"error: no job passed: {failures}", file=sys.stderr)
        return 1

    details = {"env": env, "shape": shape, "workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace, "config": cfg.to_dict(),
               "facts": jobs[0][2], "jobs": [j for j, _, _ in jobs]}
    if args.trace:
        metrics, details["per_layer_jobs"], trace_failures = report_per_layer(
            rec, jobs, spec["per_layer"])
        failures.extend(trace_failures)
    else:
        metrics, details["samples"] = report_end_to_end(rec, setup_ids, jobs, spec["end_to_end"])
    facts = jobs[0][2]
    print(f"work per job: {facts['examples']} training examples in {facts['steps']} steps, "
          f"{facts['eval_units']} evaluation units per pass")
    print(f"val metrics {json.dumps(facts['val'], sort_keys=True)}")
    print(f"checkpoint sha256 {facts['checkpoint_sha256']} ({facts['checkpoint_bytes']} bytes)")
    failed = len({op for op, _ in failures})
    details["failures"] = failures
    print(f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted} operations)"
          + (f": {failures}" if failures else ""))
    with open(OUT / f"BENCH_{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1, sort_keys=True)
    rec.write(OUT / f"spans_{tag}.jsonl")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
