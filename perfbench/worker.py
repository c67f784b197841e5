"""Measurement side of the benchmark: one fresh process per sample.

    python worker.py setup|run|trace JOB_JSON OUT_JSON

``setup`` times ``import anglepath`` plus ``load_csv`` of the points file,
which is what ``anglepath cluster`` pays before ``run()``. ``run`` does the
same and then one untraced ``anglepath.run``. ``trace`` makes the calls
``run()`` makes, through each layer's public functions, with one span
around each call. A fresh process per sample gives every sample the cold
start a command-line user gets, and its own peak resident memory.
"""

import json
import sys
import time
import traceback
from contextlib import contextmanager


def _setup(job):
    t0 = time.perf_counter()
    import anglepath
    cloud = anglepath.load_csv(job["points"])
    return time.perf_counter() - t0, cloud


def _cloud_and_params(job, cloud):
    from anglepath import Params, PointCloud
    from anglepath.datasets import load_labels

    truth = load_labels(job["labels"])
    if job["truth"]:
        cloud = PointCloud(coords=cloud.coords, truth=truth)
    return cloud, truth, Params(**job["params"])


def _digest(labels):
    import hashlib

    import numpy as np
    return hashlib.sha256(np.asarray(labels, dtype=np.int64).tobytes()
                          ).hexdigest()[:16]


def _peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run(job):
    setup_s, cloud = _setup(job)
    from anglepath import PipelineError, accuracy, run

    cloud, truth, params = _cloud_and_params(job, cloud)
    out = {"setup_s": setup_s, "error": None}
    t0 = time.perf_counter()
    try:
        result = run(cloud, params)
    except PipelineError as exc:
        out["error"] = f"PipelineError: {exc}"
    out["cluster_s"] = time.perf_counter() - t0
    out["peak_rss_mb"] = _peak_rss_mb()
    if out["error"] is None:
        acc = accuracy(result.point_labels, truth)
        out.update(accuracy=acc, m_hat=result.m_hat,
                   labels_sha256=_digest(result.point_labels),
                   counts={"simplices.valid":
                           result.diagnostics["simplex_count"],
                           "pipeline.survivors":
                           result.diagnostics["survivor_count"]})
        if job["expect_m"] is not None and result.m_hat != job["expect_m"]:
            out["error"] = f"m_hat {result.m_hat} != {job['expect_m']}"
        elif job["floor"] is not None and acc < job["floor"]:
            out["error"] = f"accuracy {acc:.4f} below floor {job['floor']}"
    return out


# ---- traced run -----------------------------------------------------------

class Tracer:
    """Spans (name, start, end, parent) kept in memory until written out."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        record = {"name": name, "start": None, "end": None,
                  "parent": self._open[-1] if self._open else None}
        self._open.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def durations_ms(self):
        """Total milliseconds per span name."""
        out = {}
        for s in self.spans:
            ms = (s["end"] - s["start"]) * 1000.0
            out[s["name"]] = out.get(s["name"], 0.0) + ms
        return out


# (span, per-layer metric) of each stage, in the order run() calls them
STAGES = (("core.params", "core.params_ms"),
          ("neighborhood.annular", "neighborhood.annular_ms"),
          ("simplices.valid", "simplices.valid_ms"),
          ("anglegraph", "anglegraph.ms"),
          ("dendrogram.build", "dendrogram.build_ms"),
          ("dendrogram.knn", "dendrogram.knn_ms"),
          ("pipeline.denoise", "pipeline.denoise_ms"),
          ("pipeline.restrict", "pipeline.restrict_ms"),
          ("dendrogram.build_dns", "dendrogram.build_dns_ms"),
          ("dendrogram.profile", "dendrogram.profile_ms"),
          ("pipeline.cut", "pipeline.cut_ms"),
          ("pipeline.vote", "pipeline.vote_ms"),
          ("evaluate.gap_report", "evaluate.gap_report_ms"))
ROOT_SPAN = "pipeline.run"


def traced_run(cloud, params, tracer):
    """``anglepath.run`` as a sequence of public calls, one span each.

    Returns the point labels and the intermediate objects the count
    metrics are taken from, so counting happens outside every span.
    """
    import numpy as np
    from anglepath.anglegraph import build_simplex_graph
    from anglepath.core import resolve_params
    from anglepath.dendrogram import build_dendrogram
    from anglepath.evaluate import gap_report, simplex_classes
    from anglepath.neighborhood import build_annular_graph
    from anglepath.pipeline import (cut, default_eta, denoise, estimate_m,
                                    majority_vote, restrict_graph)
    from anglepath.simplices import build_valid_set

    span = tracer.span
    with span(ROOT_SPAN):
        with span("core.params"):
            p = resolve_params(params, cloud.n, cloud.coords)
        with span("neighborhood.annular"):
            graph_x = build_annular_graph(cloud, p.e, p.B)
        with span("simplices.valid"):
            simplex_set = build_valid_set(graph_x, cloud, p)
        with span("anglegraph"):
            graph_s = build_simplex_graph(simplex_set, cloud, p.weight_mode,
                                          p.delta)
        with span("dendrogram.build"):
            dend = build_dendrogram(graph_s)
        with span("dendrogram.knn"):
            knn_values = dend.knn(p.kappa)
        with span("pipeline.denoise"):
            eta = p.eta
            if eta is None:
                eta = default_eta(np.sort(knn_values[np.isfinite(knn_values)]))
            survivors = denoise(knn_values, eta)
        with span("pipeline.restrict"):
            graph_dns = restrict_graph(graph_s, survivors)
        with span("dendrogram.build_dns"):
            dend_dns = build_dendrogram(graph_dns)
        with span("dendrogram.profile"):
            profile = dend_dns.scale_profile(p.k, p.delta, p.nu)
            m_hat = p.m if p.m is not None else estimate_m(profile)
        with span("pipeline.cut"):
            simplex_labels, _ = cut(dend_dns, m_hat, p.nu)
        with span("pipeline.vote"):
            point_labels = majority_vote(
                simplex_labels, simplex_set.simplices[survivors], cloud)
        # run() compacts labels when a cluster received no points
        used = np.unique(point_labels)
        if used.size != m_hat:
            point_labels = np.searchsorted(used, point_labels)
            m_hat = used.size
        finite = knn_values[np.isfinite(knn_values)]
        for q in (0.1, 0.5, 0.9, 0.99):
            if finite.size:
                np.quantile(finite, q)
        np.setdiff1d(np.arange(len(simplex_set)), survivors)
        # the span is opened without ground truth too, where it measures
        # the skipped step
        with span("evaluate.gap_report"):
            if cloud.truth is not None:
                classes = simplex_classes(simplex_set.simplices, cloud.truth)
                gap_report(dend, classes)
                gap_report(dend_dns, classes[survivors])
    stages = {"p": p, "graph_x": graph_x, "simplex_set": simplex_set,
              "graph_s": graph_s, "dend": dend, "survivors": survivors}
    return point_labels, m_hat, stages


def _counts(cloud, stages):
    """Exact sizes of each stage, computed outside the timed spans."""
    import tracemalloc

    import numpy as np
    from anglepath.anglegraph import find_adjacent_pairs
    from anglepath.simplices import build_valid_set, enumerate_candidates

    p, graph_x = stages["p"], stages["graph_x"]
    simplex_set, graph_s = stages["simplex_set"], stages["graph_s"]
    nbrs = graph_x.neighbors
    flat = np.concatenate(nbrs)
    centers = np.repeat(np.arange(len(nbrs)), [len(nb) for nb in nbrs])
    dist = np.linalg.norm(cloud.coords[flat] - cloud.coords[centers], axis=1)
    candidates = enumerate_candidates(graph_x, p.d).shape[0]
    pairs = find_adjacent_pairs(simplex_set.simplices)[0].shape[0]

    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    build_valid_set(graph_x, cloud, p)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    valid = len(simplex_set)
    survivors = int(stages["survivors"].size)
    return {
        "neighborhood.neighbors": int(flat.size),
        "neighborhood.in_band": int((dist <= p.e / p.q).sum()),
        "simplices.candidates": int(candidates),
        "simplices.valid": valid,
        "simplices.peak_bytes": int(peak - base),
        "anglegraph.pairs": int(pairs),
        "anglegraph.edges": int(graph_s.n_edges),
        "dendrogram.events": int(stages["dend"].n_events),
        "pipeline.survivors": survivors,
    }


def _trace(job):
    from anglepath import load_csv

    tracer = Tracer()
    with tracer.span("datasets.load_csv"):
        cloud = load_csv(job["points"])
    cloud, _, params = _cloud_and_params(job, cloud)
    out = {"error": None}
    try:
        labels, m_hat, stages = traced_run(cloud, params, tracer)
    except Exception as exc:  # noqa: BLE001 - a failed attempt, reported
        traceback.print_exc()
        out["error"] = f"traced run raised {type(exc).__name__}: {exc}"
    else:
        out.update(m_hat=m_hat, labels_sha256=_digest(labels))
        if job["counts"]:
            out["counts"] = _counts(cloud, stages)
    out.update(stage_ms=tracer.durations_ms(), spans=tracer.spans)
    return out


def main(argv):
    mode, job_path, out_path = argv
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    if mode == "setup":
        out = {"setup_s": _setup(job)[0]}
    else:
        out = {"run": _run, "trace": _trace}[mode](job)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
