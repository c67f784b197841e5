"""Record the committed baseline: every workload over a range of seeds.

    python3 perfbench/baseline.py [--workload NAME ...]

For each workload it runs run.py on seeds 0-9 with ``--trace 0`` and once,
on seed 0, with ``--trace 1``, each for BENCHMARK.json's ``run_seconds``. It writes
``perfbench/baseline/<workload>.json`` with the full records and, per
end-to-end metric, the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import OUT
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SEEDS = 10
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text(
    encoding="utf-8"))["run_seconds"]


def _run(workload, seed, trace):
    subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                    workload, "--seed", str(seed), "--seconds", str(SECONDS),
                    "--trace", str(trace)], check=True,
                   stdout=subprocess.DEVNULL)
    stem = f"{workload}-seed{seed}-trace{trace}"
    return json.loads((OUT / f"{stem}.json").read_text(encoding="utf-8"))


def summarize(records):
    """Median, quartiles and spread of each metric, and of the accuracy."""
    columns = {name: [r["metrics"][name]["value"] for r in records]
               for name in records[0]["metrics"]}
    columns["accuracy"] = [r["accuracy"] for r in records]
    out = {}
    for name, values in columns.items():
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median, "values": values}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS))
    args = parser.parse_args()
    (HERE / "baseline").mkdir(exist_ok=True)
    for workload in args.workload or WORKLOADS:
        runs = [_run(workload, seed, 0) for seed in range(SEEDS)]
        traced = _run(workload, 0, 1)
        doc = {"summary": summarize(runs), "runs": runs, "traced": traced}
        (HERE / "baseline" / f"{workload}.json").write_text(
            json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        for name, s in doc["summary"].items():
            print(f"{workload:12s} {name:12s} median {s['median']:.6g} "
                  f"spread {s['spread']:.4f}")


if __name__ == "__main__":
    main()
