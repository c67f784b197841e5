"""anglepath benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload square2d-8k --seed 0 --seconds 20 \
        --trace 0

Builds the workload's cloud from ``--seed`` with ``anglepath.generate``,
writes it as CSV, and measures it in fresh worker processes (worker.py)
that import the package from ``src/`` of this checkout. With ``--trace 0``
it prints the end-to-end metrics, with ``--trace 1`` the per-layer ones;
the last line of standard output is the result object. The full record,
with counts, label digest and machine block, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS
from worker import ROOT_SPAN, STAGES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 4       # setup-only processes before the run samples
MIN_SAMPLES = 3        # untraced run() samples per measurement, at least
MIN_PAIRS = 2          # untraced + traced sample pairs, at least
DEADLINE = 150.0       # no sample starts that would end later than this
KILL_AFTER = 175.0     # a worker still running then is killed


def _worker_env(nproc):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in BLAS_VARS:
        value = env.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= nproc):
            env[var] = str(nproc)
    return env


def _machine(env, loadavg, nproc):
    import numpy
    import scipy
    return {"nproc": nproc, "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": {var: env[var] for var in BLAS_VARS},
            "loadavg_start": list(loadavg), "platform": platform.platform()}


def _call_worker(mode, job, workdir, env, timeout):
    job_path = Path(workdir) / "job.json"
    out_path = Path(workdir) / "out.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    subprocess.run([sys.executable, str(HERE / "worker.py"), mode,
                    str(job_path), str(out_path)],
                   cwd=ROOT, env=env, check=True, timeout=timeout)
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def _samples(seconds, minimum, started, take):
    """Call ``take(i)`` for ``seconds`` and at least ``minimum`` times, but
    start no sample that would end past DEADLINE."""
    out = []
    t0 = time.perf_counter()
    last = 0.0
    while len(out) < minimum or time.perf_counter() - t0 < seconds:
        if out and time.perf_counter() - started + last > DEADLINE:
            break
        s0 = time.perf_counter()
        out.append(take(len(out)))
        last = time.perf_counter() - s0
    return out


def _median(values):
    """Median, or None when every sample of the value failed."""
    return statistics.median(values) if values else None


def _end_to_end(probes, runs):
    first = next((r for r in runs if "accuracy" in r), {})
    errors = [probe.get("error") for probe in probes]
    for r in runs:
        error = r["error"]
        if error is None and r["labels_sha256"] != first["labels_sha256"]:
            error = "labels differ between repeated runs"
        errors.append(error)
    # the first probe also compiles the package's bytecode
    setup = [r["setup_s"] for r in probes[1:] + runs if "setup_s" in r]
    samples = [r["cluster_s"] for r in runs if "cluster_s" in r]
    rss = [r["peak_rss_mb"] for r in runs if "peak_rss_mb" in r]
    metrics = {"cluster_s": (_median(samples), "s"),
               "peak_rss_mb": (_median(rss), "MB"),
               "setup_s": (_median(setup), "s")}
    extra = {"cluster_s_samples": samples,
             "cluster_s_max": max(samples, default=None),
             "peak_rss_mb_samples": rss, "setup_s_samples": setup,
             "accuracy": first.get("accuracy"), "m_hat": first.get("m_hat"),
             "labels_sha256": first.get("labels_sha256"),
             "counts": first.get("counts")}
    return metrics, extra, errors


def _per_layer(pairs):
    errors = []
    for untraced, traced in pairs:
        error = untraced["error"] or traced["error"]
        if error is None and (
                traced["labels_sha256"] != untraced["labels_sha256"]
                or traced["m_hat"] != untraced["m_hat"]):
            error = "traced labels differ from run()"
        errors.append(error)
    runs = [traced["stage_ms"] for _, traced in pairs if "stage_ms" in traced]
    metrics = {metric: (_median([r.get(span, 0.0) for r in runs]), "ms")
               for span, metric in STAGES}
    metrics["datasets.load_csv_ms"] = (
        _median([r["datasets.load_csv"] for r in runs]), "ms")
    # the root span minus the stage spans of the same traced process: the
    # time run()'s glue takes between stages, never negative
    other = [r[ROOT_SPAN] - sum(r.get(span, 0.0) for span, _ in STAGES)
             for r in runs if ROOT_SPAN in r]
    # the one figure across processes: traced root span over untraced run()
    overhead = [traced["stage_ms"][ROOT_SPAN] / (untraced["cluster_s"] * 1e3)
                - 1.0 for untraced, traced in pairs
                if "cluster_s" in untraced
                and ROOT_SPAN in traced.get("stage_ms", {})]
    metrics["trace.other_ms"] = (_median(other), "ms")
    metrics["trace.overhead_frac"] = (_median(overhead), "fraction")
    c = pairs[0][1].get("counts") or {}
    nbrs, cand = c.get("neighborhood.neighbors", 0), c.get(
        "simplices.candidates", 0)
    valid = c.get("simplices.valid", 0)
    adjacent = c.get("anglegraph.pairs", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    metrics.update({
        "neighborhood.neighbors": (nbrs, "count"),
        "neighborhood.in_band_frac": (
            ratio(c.get("neighborhood.in_band", 0), nbrs), "fraction"),
        "simplices.candidates": (cand, "count"),
        "simplices.valid": (valid, "count"),
        "simplices.yield": (ratio(valid, cand), "fraction"),
        "simplices.peak_mb": (c.get("simplices.peak_bytes", 0) / 2**20, "MB"),
        "anglegraph.pairs": (adjacent, "count"),
        "anglegraph.edges": (c.get("anglegraph.edges", 0), "count"),
        "anglegraph.keep_frac": (
            ratio(c.get("anglegraph.edges", 0), adjacent), "fraction"),
        "dendrogram.events": (c.get("dendrogram.events", 0), "count"),
        "pipeline.survivors": (c.get("pipeline.survivors", 0), "count"),
        "pipeline.survivor_frac": (
            ratio(c.get("pipeline.survivors", 0), valid), "fraction"),
    })
    extra = {"untraced_s_samples": [u["cluster_s"] for u, _ in pairs
                                    if "cluster_s" in u],
             "stage_ms": runs, "counts": c,
             "labels_sha256": pairs[0][0].get("labels_sha256")}
    return metrics, extra, errors


def main(argv=None, workloads=WORKLOADS):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    loadavg = os.getloadavg()
    if not (SRC / "anglepath" / "__init__.py").is_file():
        print(f"error: no anglepath package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import anglepath
    from anglepath.datasets import save_labels

    if Path(anglepath.__file__).resolve().parent != SRC / "anglepath":
        print(f"error: imported anglepath from {anglepath.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2

    workload = workloads[args.workload]
    nproc = len(os.sched_getaffinity(0))
    env = _worker_env(nproc)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        cloud = anglepath.generate(
            anglepath.ShapeSpec(**workload.shape_spec(args.seed)))
        job = {"points": str(Path(workdir) / "points.csv"),
               "labels": str(Path(workdir) / "labels.txt"),
               "truth": workload.truth, "params": workload.params(),
               "floor": workload.floor, "expect_m": workload.expect_m}
        anglepath.save_csv(job["points"], cloud)
        save_labels(job["labels"], cloud.truth)

        def call(mode, **extra):
            """One worker's output, or ``{"error": reason}`` when it could
            not finish: a failed attempt, still counted and reported."""
            timeout = KILL_AFTER - (time.perf_counter() - started)
            if timeout < 1.0:
                return {"error": f"{mode} worker not started: "
                                 f"{KILL_AFTER:.0f} s limit reached"}
            try:
                return _call_worker(mode, dict(job, **extra), workdir, env,
                                    timeout)
            except subprocess.CalledProcessError as exc:
                return {"error": f"{mode} worker exited with code "
                                 f"{exc.returncode}"}
            except subprocess.TimeoutExpired:
                return {"error": f"{mode} worker killed after "
                                 f"{timeout:.0f} s"}

        def pair(i):
            # alternate which side runs first, so drift cancels
            if i % 2:
                traced = call("trace", counts=False)
                return call("run"), traced
            return call("run"), call("trace", counts=i == 0)

        if args.trace:
            pairs = _samples(args.seconds, MIN_PAIRS, started, pair)
            metrics, extra, errors = _per_layer(pairs)
            spans = [dict(s, pair=i) for i, (_, traced) in enumerate(pairs)
                     for s in traced.get("spans", [])]
        else:
            probes = [call("setup") for _ in range(SETUP_PROBES + 1)]
            runs = _samples(args.seconds, MIN_SAMPLES, started,
                            lambda i: call("run"))
            metrics, extra, errors = _end_to_end(probes, runs)

    attempted = len(errors)
    errors = [e for e in errors if e is not None]
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": _machine(env, loadavg, nproc),
              "attempted": attempted, "failed": len(errors),
              "error_rate": len(errors) / attempted, "errors": errors,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}, **extra}
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans),
                                                encoding="utf-8")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1),
                                      encoding="utf-8")

    for name, (value, unit) in metrics.items():
        shown = "failed" if value is None else f"{value:14.6g}"
        print(f"{name:28s} {shown:>14s} {unit}")
    if record.get("accuracy") is not None:
        print(f"{'accuracy':28s} {record['accuracy']:14.6g} fraction "
              f"(floor {workload.floor})")
    print(f"{'error_rate':28s} {record['error_rate']:14.6g} fraction "
          f"({len(errors)} of {attempted} runs failed)")
    print(f"{'labels_sha256':28s} {record['labels_sha256']}")
    for error in errors:
        print(f"failed: {error}")
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": len(errors),
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
