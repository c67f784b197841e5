"""Benchmark workloads: each is a generated cloud plus the parameters and
correctness checks the run is held to. See README.md for why each exists."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    d: int
    n: int
    theta: float
    sigma: float
    e_over_tau: float | None  # None keeps the library default e = sqrt(2) tau
    m: int | None             # None lets the pipeline estimate m
    truth: bool               # attach ground truth, so gap_report runs
    floor: float | None       # a run whose accuracy is below this fails
    expect_m: int | None = None  # required m_hat when m is estimated
    D: int = 20

    def shape_spec(self, seed):
        return {"kind": self.kind, "d": self.d, "D": self.D, "n": self.n,
                "theta": self.theta, "sigma": self.sigma, "seed": seed}

    def params(self):
        tau = math.sqrt(3.0) * self.sigma
        e = None if self.e_over_tau is None else self.e_over_tau * tau
        return {"d": self.d, "tau": tau, "e": e, "m": self.m}


WORKLOADS = {w.name: w for w in (
    Workload(name="square2d-8k", kind="hypercubes", d=2, n=8000,
             theta=math.pi / 4, sigma=0.03, e_over_tau=3.0, m=None,
             truth=True, floor=0.90, expect_m=2),
    Workload(name="line1d-16k", kind="hypercubes", d=1, n=16000,
             theta=math.pi / 2, sigma=0.02, e_over_tau=None, m=2,
             truth=False, floor=0.80),
    Workload(name="cube3d-2k", kind="hypercubes", d=3, n=2000,
             theta=math.pi / 2, sigma=0.03, e_over_tau=3.0, m=2,
             truth=True, floor=None),
)}
