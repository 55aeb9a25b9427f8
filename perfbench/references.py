"""Posterior references for every program the benchmark checks.

Run from the repository root to recompute ``perfbench/references.json``
from scratch::

    python3 perfbench/references.py

Each reference is the posterior of the *unsliced* program (Theorem 1
makes it the posterior of every correct slice too), computed by a
method that shares no code with the samplers, slicers or executors
under test:

* discrete programs (Ex3, Ex5, BurglarAlarm, NoisyOR): exact posterior
  by ``repro.bayesnet`` variable elimination;
* HIV: the closed-form linear-Gaussian posterior, from the model's data
  with numpy (its mean is checked against the Gaussian EP engine,
  whose means, not variances, are exact on this loopy model);
* BayesianLinearRegression: the weights are Gaussian given the noise
  precision, so one-dimensional quadrature over the precision gives
  the exact posterior moments of the slope;
* Chess and Halo: the factor-graph EP moments, at bench size only (EP
  diverges on Halo at 150 games or more).
"""

from __future__ import annotations

import json
import math
import os
import sys
from typing import Dict, List, Tuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "references.json")

#: The model parameters ``repro.models.TABLE1`` uses at each size; the
#: closed-form references rebuild the data from them.
HIV_ARGS = {
    "bench": dict(n_persons=12, n_measurements=60, n_returned=2, seed=0),
    "paper": dict(n_persons=84, n_measurements=369, n_returned=10, seed=0),
}
BLR_ARGS = {
    "bench": dict(n_points=120, n_observed=12, seed=0),
    "paper": dict(n_points=1000, n_observed=100, seed=0),
}
DISCRETE = ("Ex3", "Ex5", "BurglarAlarm", "NoisyOR")
#: (program, size) pairs the workloads check against.
NEEDED: List[Tuple[str, str]] = (
    [(name, "bench") for name in DISCRETE]
    + [(name, "paper") for name in DISCRETE]
    + [("HIV", "bench"), ("HIV", "paper")]
    + [("BayesianLinearRegression", "bench"),
       ("BayesianLinearRegression", "paper")]
    + [("Chess", "bench"), ("Halo", "bench")]
)


def _discrete(program) -> Dict[str, object]:
    from repro.bayesnet.compile import compile_program
    from repro.bayesnet.varelim import variable_elimination

    compiled = compile_program(program)
    dist = variable_elimination(compiled.net, compiled.query, compiled.evidence)
    pairs = sorted(((v, p) for v, p in dist.items()), key=lambda vp: str(vp[0]))
    mean = sum(float(v) * p for v, p in pairs)
    var = sum(p * (float(v) - mean) ** 2 for v, p in pairs)
    return {"method": "variable-elimination", "mean": mean, "var": var,
            "dist": [[v, p] for v, p in pairs]}


def _hiv(size: str) -> Dict[str, object]:
    from repro.models.datasets import hiv_data

    args = HIV_ARGS[size]
    data = hiv_data(args["n_persons"], args["n_measurements"], args["seed"])
    prior_mean = np.array([4.0, -0.5])
    prior_prec = np.diag([1.0 / 1.0, 1.0 / 0.0625])
    noise_var = 0.25
    mean = var = 0.0
    for person in range(args["n_returned"]):
        rows = [(t, y) for p, t, y in data.measurements if p == person]
        x = np.array([[1.0, t] for t, _ in rows])
        y = np.array([y for _, y in rows])
        prec = prior_prec + x.T @ x / noise_var
        cov = np.linalg.inv(prec)
        post = cov @ (prior_prec @ prior_mean + x.T @ y / noise_var)
        mean += post[0]
        var += cov[0, 0]
    return {"method": "closed-form linear-Gaussian", "mean": float(mean),
            "var": float(var)}


def _blr(size: str) -> Dict[str, object]:
    from repro.models.datasets import regression_data

    args = BLR_ARGS[size]
    data = regression_data(args["n_points"], args["seed"])
    n = args["n_observed"]
    x = np.column_stack([np.ones(n), np.array(data.xs[:n])])
    y = np.array(data.ys[:n])
    alpha = 1.0 / 10.0  # prior precision of each weight (variance 10)
    shape, rate = 2.0, 2.0  # Gamma prior on the noise precision
    xtx, xty, yty = x.T @ x, x.T @ y, float(y @ y)
    log_taus = np.linspace(math.log(1e-4), math.log(1e4), 20_001)
    log_post = np.empty_like(log_taus)
    slope_mean = np.empty_like(log_taus)
    slope_var = np.empty_like(log_taus)
    for i, log_tau in enumerate(log_taus):
        tau = math.exp(log_tau)
        prec = alpha * np.eye(2) + tau * xtx
        cov = np.linalg.inv(prec)
        m = tau * cov @ xty
        resid = yty - 2.0 * m @ xty + m @ xtx @ m
        evidence = (math.log(alpha) + 0.5 * n * log_tau
                    - 0.5 * tau * resid - 0.5 * alpha * m @ m
                    - 0.5 * np.linalg.slogdet(prec)[1])
        log_prior = (shape - 1.0) * log_tau - rate * tau
        # + log_tau: the grid is uniform in log(tau)
        log_post[i] = evidence + log_prior + log_tau
        slope_mean[i] = m[1]
        slope_var[i] = cov[1, 1]
    w = np.exp(log_post - log_post.max())
    w /= w.sum()
    mean = float(w @ slope_mean)
    second = float(w @ (slope_var + slope_mean ** 2))
    return {"method": "quadrature over the noise precision", "mean": mean,
            "var": second - mean * mean}


def _ep(program) -> Dict[str, object]:
    from repro.factorgraph.engine import InferNetEngine

    mean, var = InferNetEngine().infer(program).moments
    return {"method": "factor-graph EP", "mean": float(mean), "var": float(var)}


def compute() -> Dict[str, Dict[str, Dict[str, object]]]:
    from repro.models import benchmark

    refs: Dict[str, Dict[str, Dict[str, object]]] = {"bench": {}, "paper": {}}
    for name, size in NEEDED:
        program = getattr(benchmark(name), size)()
        if name in DISCRETE:
            ref = _discrete(program)
        elif name == "HIV":
            ref = _hiv(size)
            ep = _ep(program)
            if abs(ep["mean"] - ref["mean"]) > 1e-6 * (1 + abs(ref["mean"])):
                raise SystemExit(f"HIV {size}: EP {ep} disagrees with {ref}")
        elif name == "BayesianLinearRegression":
            ref = _blr(size)
        else:
            ref = _ep(program)
        refs[size][name] = ref
    return refs


def main() -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    refs = compute()
    with open(OUT, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    for size, table in refs.items():
        for name, ref in table.items():
            print(f"{size:5} {name:25} mean={ref['mean']:.6g} "
                  f"sd={math.sqrt(ref['var']):.4g}  ({ref['method']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
