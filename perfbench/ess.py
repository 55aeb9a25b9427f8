"""Effective-sample-size estimators owned by the benchmark.

The benchmark computes ESS itself, so ``ess_per_s`` and the output
checks do not move when the program's own diagnostics change.

* :func:`chain_ess` — Geyer's initial positive sequence estimator for
  one MCMC chain: ``n / tau`` with ``tau = -1 + 2 * sum(Gamma_k)``,
  where ``Gamma_k = rho(2k) + rho(2k+1)`` is summed while positive.
* :func:`kish_ess` — Kish's ``(sum w)^2 / sum w^2`` for importance
  weights.

:func:`self_test` checks both against cases whose ESS is known in
closed form; a run whose estimators fail it reports ``correct: false``.
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence

import numpy as np


def chain_ess(values: Sequence[float]) -> float:
    """Initial-positive-sequence ESS of one chain (1.0 for a chain that
    never moves: it carries one draw's worth of information)."""
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < 4:
        return float(n)
    x = x - x.mean()
    var = float(np.dot(x, x)) / n
    if var <= 0.0:
        return 1.0
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(x, size)
    acov = np.fft.irfft(spectrum * np.conj(spectrum), size)[:n] / n
    rho = acov / acov[0]
    tau = -1.0
    for k in range(0, n - 1, 2):
        pair = rho[k] + rho[k + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
    return float(min(n, n / max(tau, 1e-12)))


def kish_ess(weights: Sequence[float]) -> float:
    """Kish's effective sample size of importance weights."""
    w = np.asarray(weights, dtype=float)
    total = float(w.sum())
    if total <= 0.0:
        return 0.0
    return total * total / float(np.dot(w, w))


def _ar1(phi: float, n: int, seed: int) -> List[float]:
    rng = random.Random(seed)
    x = rng.gauss(0.0, 1.0 / math.sqrt(1.0 - phi * phi))
    out = []
    for _ in range(n):
        x = phi * x + rng.gauss(0.0, 1.0)
        out.append(x)
    return out


def self_test() -> List[str]:
    """Failures of the estimators on closed-form cases (empty = pass).

    AR(1) with coefficient ``phi`` has integrated autocorrelation time
    ``(1 + phi) / (1 - phi)``; the estimate must land within 15% over
    40 000 draws (its standard error there is below 4%).  Kish ESS is
    exact for ``k`` equal weights among zeros and for two weight levels.
    """
    failures = []
    n = 40_000
    for phi in (0.0, 0.5, 0.9):
        expected = n * (1.0 - phi) / (1.0 + phi)
        got = chain_ess(_ar1(phi, n, seed=17))
        if abs(got / expected - 1.0) > 0.15:
            failures.append(f"chain_ess AR(1) phi={phi}: {got:.0f} vs {expected:.0f}")
    if chain_ess([3.0] * 100) != 1.0:
        failures.append("chain_ess of a constant chain is not 1")
    if abs(kish_ess([1.0] * 37 + [0.0] * 63) - 37.0) > 1e-9:
        failures.append("kish_ess of 37 equal weights is not 37")
    # a weights of value u and b of value v: (a u + b v)^2 / (a u^2 + b v^2)
    a, u, b, v = 10, 3.0, 90, 0.5
    expected = (a * u + b * v) ** 2 / (a * u * u + b * v * v)
    if abs(kish_ess([u] * a + [v] * b) - expected) > 1e-9:
        failures.append("kish_ess of two weight levels is off")
    return failures
