"""Smoke test of the benchmark: every workload definition, shrunk to a tiny
cloud, runs end to end in both modes and prints exactly the metric names
BENCHMARK.json declares; failed runs are counted and reported.

    python3 -m pytest perfbench
"""

import json
import subprocess
from dataclasses import replace
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text(encoding="utf-8"))
# a tiny cloud per workload on which seed 0 runs through; the d=3 cloud
# needs a wider sigma at this n to stay dense enough for kappa-NN denoising
TINY = {"square2d-8k": {"n": 800}, "line1d-16k": {"n": 600},
        "cube3d-2k": {"n": 400, "sigma": 0.06}}


def _main(name, trace, capsys, **change):
    # the accuracy floor and m check are for the full-size clouds
    fields = dict({"floor": 0.0, "expect_m": None}, **TINY[name], **change)
    tiny = replace(WORKLOADS[name], name=f"{name}-smoke", **fields)
    assert run.main(["--workload", name, "--seed", "0", "--seconds", "0",
                     "--trace", str(trace)], workloads={name: tiny}) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


def test_every_workload_is_declared():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])
    assert sorted(TINY) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_prints_declared_metrics(name, trace, section, capsys):
    result = _main(name, trace, capsys)
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared
    assert all(v["value"] is not None for v in result["metrics"].values())


def test_accuracy_below_floor_fails_every_run(capsys):
    result = _main("square2d-8k", 0, capsys, floor=1.01)
    assert result["correct"] is False
    # every run sample fails; only the setup probes succeed
    assert result["failed"] == result["attempted"] - run.SETUP_PROBES - 1


def test_crashed_worker_is_a_failed_attempt(capsys, monkeypatch):
    call_worker = run._call_worker

    def crash_runs(mode, *args):
        if mode == "run":
            raise subprocess.CalledProcessError(1, ["worker.py", mode])
        return call_worker(mode, *args)

    monkeypatch.setattr(run, "_call_worker", crash_runs)
    result = _main("square2d-8k", 0, capsys)
    assert result["correct"] is False
    assert result["failed"] == run.MIN_SAMPLES
    assert result["metrics"]["cluster_s"]["value"] is None
    assert result["metrics"]["setup_s"]["value"] > 0
