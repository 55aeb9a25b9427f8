"""Output checks against the independent references in references.json.

A sampled mean passes when it lies within a tolerance scaled by the
job's own ESS.  An ESS below 100 is itself unreliable (short or poorly
mixing chains overstate it), so such jobs get a fixed, coarse bound in
posterior standard deviations instead.  EP references are approximate
(the EP mean of bench-size Halo sits about 0.15 sd from the sampled
one), so their tolerance carries a further quarter sd.

``check_slice`` holds the method properties each ``table1-paper`` job
must satisfy.
"""

from __future__ import annotations

import json
import math
import os
import random
from typing import Dict, List, Optional

from repro.core import check_def_before_use, check_program
from repro.semantics.executor import run_program
from repro.semantics.exact import exact_inference

HERE = os.path.dirname(os.path.abspath(__file__))

#: Standard errors allowed when the ESS is trustworthy.
Z = 5.0
#: ESS below which the estimate is not trusted.
MIN_TRUSTED_ESS = 100.0
#: Bound, in posterior sd, for jobs whose ESS is below MIN_TRUSTED_ESS.
COARSE_SD = 8.0
#: Extra tolerance, in posterior sd, for approximate (EP) references.
EP_SLACK_SD = 0.25
#: Seeded runs per slice on which closures and interpreter must agree.
TRACE_SEEDS = 3


def load_references() -> Dict[str, Dict[str, dict]]:
    with open(os.path.join(HERE, "references.json")) as f:
        return json.load(f)


def mean_error(ref: dict, mean: float, ess: float) -> Optional[str]:
    """None when ``mean`` is within tolerance of ``ref``, else why not."""
    sd = math.sqrt(ref["var"])
    if not math.isfinite(mean):
        return f"mean {mean} is not finite"
    if ess >= MIN_TRUSTED_ESS:
        tol = Z * sd / math.sqrt(ess)
    else:
        tol = COARSE_SD * sd
    if ref["method"] == "factor-graph EP":
        tol += EP_SLACK_SD * sd
    # A point-mass posterior (sd 0) still allows rounding error.
    tol += 1e-9 * (1.0 + abs(ref["mean"]))
    if abs(mean - ref["mean"]) > tol:
        return (f"mean {mean:.6g} vs reference {ref['mean']:.6g} "
                f"(tolerance {tol:.3g}, ESS {ess:.1f})")
    return None


def _same_dist(dist, ref_pairs, what: str) -> List[str]:
    want = {value: p for value, p in ref_pairs}
    support = set(want) | set(dist.support())
    tv = 0.5 * sum(abs(dist.prob(v) - want.get(v, 0.0)) for v in support)
    return [] if tv < 1e-9 else [f"{what}: exact posterior off by TV {tv:.3g}"]


def check_slice(original, result, closure, ref: Optional[dict],
                rng: random.Random) -> List[str]:
    """Method properties of one slice: it validates, returns the
    original's return expression, keeps the discrete posterior exactly,
    and its closures replay the interpreter's traces."""
    sliced = result.sliced
    errors: List[str] = []
    if sliced.ret != original.ret:
        errors.append("slice changed the return expression")
    try:
        check_def_before_use(sliced)
        check_program(sliced)
    except Exception as exc:  # any validation failure is a wrong slice
        errors.append(f"slice does not validate: {exc}")
    if result.sliced_size > result.original_size:
        errors.append("slice is larger than the original")
    if ref is not None and "dist" in ref:
        errors += _same_dist(
            exact_inference(sliced).distribution, ref["dist"], "slice"
        )
    for _ in range(TRACE_SEEDS):
        seed = rng.randrange(1 << 30)
        a = run_program(sliced, random.Random(seed))
        b = closure.run(random.Random(seed))
        if (a.value, a.log_likelihood, a.trace) != (b.value, b.log_likelihood, b.trace):
            errors.append(f"closures and interpreter disagree on seed {seed}")
    return errors
