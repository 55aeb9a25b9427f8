"""The three workloads: cold slicing and codegen at paper size, warm
inference at bench size, and the warm HTTP service.

Each workload class has the same shape:

* ``setup()`` — the set-up work before the first timed job (program
  generation, cache warming, server boot).  ``run.py`` repeats it and
  times each repetition.
* ``warm_up()`` — the untimed warm-up pass of a warm workload.
* ``round(rng)`` — the jobs of one round, each a ``(kind, spec)`` pair.
  A run is a whole number of rounds and at least ``MIN_JOBS`` jobs.
* ``run(job_id, kind, spec, spans, rng)`` — one job from source text in
  to result out, returning a :class:`Job`.  Output checks run after
  the clock stops.
* ``finish(jobs)`` — checks that need every job of a round.
* ``sliced_stmts()``, ``reset_stats()``, ``cache_stats(jobs)`` — the
  figures ``run.py`` reports besides job latencies.
"""

from __future__ import annotations

import asyncio
import gc
import http.client
import json
import random
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core import parse, pretty
from repro.core.freevars import clear_free_vars_cache
from repro.inference import LikelihoodWeighting, MetropolisHastings
from repro.ir.lower import clear_lower_cache
from repro.models import TABLE1, benchmark
from repro.runtime.cache import ProgramCache
from repro.semantics.compiled import clear_compile_cache
from repro.semantics.liveness import clear_liveness_cache
from repro.semantics.vectorized import (
    NotVectorizable,
    clear_vectorized_cache,
    compile_vectorized,
)
from repro.serve.app import HttpServer, ServeApp

import checks
import ess
from spans import Spans

SLICERS = ("svf", "ab")


@dataclass
class Job:
    kind: str
    seconds: float
    #: An operation that failed (a refused request, an error status).
    failed: bool = False
    #: Output-check failures: any makes the run incorrect.
    errors: List[str] = field(default_factory=list)
    data: Dict[str, Any] = field(default_factory=dict)


def _cache_stats(cache: ProgramCache) -> Dict[str, int]:
    s = cache.stats
    return {"slice_hits": s.slice_hits, "slice_misses": s.slice_misses,
            "compile_hits": s.compile_hits, "compile_misses": s.compile_misses}


def _clear_caches() -> None:
    """Drop every module-level cache, so no artifact of an earlier job
    (the identity-keyed caches also hold its AST alive) survives."""
    clear_compile_cache()
    clear_lower_cache()
    clear_vectorized_cache()
    clear_free_vars_cache()
    clear_liveness_cache()


# ---------------------------------------------------------------------------
# table1-paper: cold parse, slice and codegen at the paper's sizes
# ---------------------------------------------------------------------------


class Table1Paper:
    """Each job parses a paper-size Table-1 source, slices it under one
    slicer and generates both executors, from empty caches."""

    MIN_JOBS = 1
    #: Jobs per kind and round: five of the jobs of a few milliseconds,
    #: three of those under two seconds, one of each Chess job, so that
    #: no per-kind median of a short job rests on one sample.
    REPEATS = {"Ex3": 5, "Ex5": 5, "BurglarAlarm": 5, "NoisyOR": 5,
               "BayesianLinearRegression": 3, "HIV": 3, "Halo": 3}

    def __init__(self, refs: Dict[str, Dict[str, dict]]) -> None:
        self.refs = refs["paper"]
        self.sources: Dict[str, str] = {}
        self.sizes: Dict[Tuple[str, str], Tuple[int, int]] = {}

    def setup(self) -> None:
        self.sources = {spec.name: pretty(spec.paper()) for spec in TABLE1}

    def warm_up(self) -> None:
        """One untimed Ex3 job per slicer, so the first timed job does
        not pay the process's first-use costs such as lazy imports; no
        job artifact survives it."""
        for slicer in SLICERS:
            self.run(-1, "warm-up", ("Ex3", slicer), Spans(False),
                     random.Random(0))

    def round(self, rng: random.Random):
        return [(f"{name}/{slicer}", (name, slicer))
                for name in self.sources for slicer in SLICERS
                for _ in range(self.REPEATS.get(name, 1))]

    def run(self, job_id, kind, spec, spans, rng) -> Job:
        name, slicer = spec
        cache = ProgramCache()
        _clear_caches()
        gc.collect()
        start = time.perf_counter()
        with spans.span("job", job_id):
            with spans.span("core.parse", job_id):
                program = parse(self.sources[name])
            with spans.span(f"passes.sli_{slicer}", job_id):
                result = cache.slice(program, slicer=slicer)
            with spans.span("semantics.codegen_closure", job_id):
                closure = cache.compiled(result.sliced)
            with spans.span("semantics.codegen_numpy", job_id):
                try:
                    compile_vectorized(result.sliced)
                except NotVectorizable:
                    pass
        seconds = time.perf_counter() - start
        ref = self.refs.get(name)
        errors = checks.check_slice(program, result, closure, ref, rng)
        self.sizes[(name, slicer)] = (result.original_size, result.sliced_size)
        return Job(kind, seconds, errors=errors, data={
            "pass_seconds": dict(result.pass_seconds),
            "cache": _cache_stats(cache),
        })

    def finish(self, jobs: List[Job]) -> List[str]:
        errors = []
        for name in self.sources:
            orig, svf = self.sizes[(name, "svf")]
            _, ab = self.sizes[(name, "ab")]
            if not ab <= svf <= orig:
                errors.append(f"{name}: want AB {ab} <= SVF {svf} <= original {orig}")
        return errors

    def sliced_stmts(self) -> Dict[str, int]:
        out = {slicer: 0 for slicer in SLICERS}
        for (_, slicer), (_, sliced) in self.sizes.items():
            out[slicer] += sliced
        return out

    def reset_stats(self) -> None:
        """Every job has its own cache; nothing to reset."""

    def cache_stats(self, jobs: List[Job]) -> Dict[str, int]:
        total: Dict[str, int] = {}
        for job in jobs:
            for key, value in job.data["cache"].items():
                total[key] = total.get(key, 0) + value
        return total

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# fig18-warm: inference at engine defaults on cached slices
# ---------------------------------------------------------------------------


def _posterior(samples, weights=None) -> Tuple[float, float]:
    """(mean, ESS) of the returned value, with the benchmark's ESS."""
    xs = [float(x) for x in samples]
    if weights is None:
        return sum(xs) / len(xs), ess.chain_ess(xs)
    total = sum(weights)
    return sum(w * x for w, x in zip(weights, xs)) / total, ess.kish_ess(weights)


class Fig18Warm:
    """MH (the paper's R2 column) and likelihood weighting at engine
    defaults on the bench-size Table-1 programs, sliced by the default
    slicer and compiled during set-up."""

    ENGINES = ("mh", "lw")
    MIN_JOBS = 1

    def __init__(self, refs: Dict[str, Dict[str, dict]]) -> None:
        self.refs = refs["bench"]
        self.sources: Dict[str, str] = {}
        self.cache = ProgramCache()
        self.sliced_total = 0

    def setup(self) -> None:
        self.cache = ProgramCache()
        _clear_caches()
        self.sources = {spec.name: pretty(spec.bench()) for spec in TABLE1}
        self.sliced_total = 0
        for name, source in self.sources.items():
            result = self.cache.slice(parse(source))
            self.sliced_total += result.sliced_size
            self.cache.compiled(result.sliced)
            try:
                compile_vectorized(result.sliced)
            except NotVectorizable:
                pass

    def warm_up(self) -> None:
        """Every job kind once, with short runs."""
        for _, (name, engine) in self.round(random.Random(0)):
            program = self.cache.slice(parse(self.sources[name])).sliced
            if engine == "mh":
                MetropolisHastings(n_samples=100, burn_in=50).infer(program)
            else:
                LikelihoodWeighting(n_samples=2000).infer(program)
        self.cache.stats.reset()

    def round(self, rng: random.Random):
        jobs = []
        for name in self.sources:
            for engine in self.ENGINES:
                # Chess's hard observes zero every likelihood weight.
                if engine == "lw" and name == "Chess":
                    continue
                jobs.append((f"{name}/{engine}", (name, engine)))
        return jobs

    def run(self, job_id, kind, spec, spans, rng) -> Job:
        name, engine_name = spec
        seed = rng.randrange(1 << 30)
        engine = (MetropolisHastings(seed=seed) if engine_name == "mh"
                  else LikelihoodWeighting(seed=seed))
        start = time.perf_counter()
        with spans.span("job", job_id):
            with spans.span("core.parse", job_id):
                program = parse(self.sources[name])
            with spans.span("runtime.cache_hit", job_id):
                sliced = self.cache.slice(program).sliced
                self.cache.compiled(sliced)
            infer_start = time.perf_counter()
            with spans.span(f"inference.{engine_name}", job_id):
                result = engine.infer(sliced)
        end = time.perf_counter()
        mean, n_eff = _posterior(result.samples, result.weights)
        error = checks.mean_error(self.refs[name], mean, n_eff)
        return Job(kind, end - start,
                   errors=[f"{kind}: {error}"] if error else [],
                   data={
                       "engine": engine_name,
                       "ess": n_eff,
                       "infer_s": end - infer_start,
                       "statements": result.statements_executed,
                       "draws": result.n_proposals,
                       "accepted": result.n_accepted,
                   })

    def finish(self, jobs: List[Job]) -> List[str]:
        return []

    def sliced_stmts(self) -> Dict[str, int]:
        return {"svf": self.sliced_total}

    def reset_stats(self) -> None:
        self.cache.stats.reset()

    def cache_stats(self, jobs: List[Job]) -> Dict[str, int]:
        return _cache_stats(self.cache)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# serve-warm: the HTTP service with a warm cache
# ---------------------------------------------------------------------------

#: Requests per program: (engine, samples).  Importance sampling where a
#: short run is not degenerate; MH where hard observes (Chess,
#: BurglarAlarm) or many peaked soft observes (paper-size BLR and HIV)
#: leave short importance runs with every weight zero or an ESS of 1.
#: The last field is the number of such requests per round: the short
#: bench-size jobs come three times for each slow one.
SERVE_JOBS: List[Tuple[str, str, str, int, int]] = [
    ("Ex3", "bench", "importance", 300, 3),
    ("Ex5", "bench", "importance", 300, 3),
    ("NoisyOR", "bench", "importance", 300, 3),
    ("BurglarAlarm", "bench", "mh", 100, 3),
    ("BayesianLinearRegression", "bench", "importance", 300, 3),
    ("HIV", "bench", "importance", 300, 3),
    ("Chess", "bench", "mh", 100, 1),
    ("Halo", "bench", "importance", 300, 3),
    ("BayesianLinearRegression", "paper", "mh", 100, 1),
    ("HIV", "paper", "mh", 100, 1),
]
#: A program whose observe nests 5000 parentheses deep: a bad input the
#: service must answer with a typed 4xx.
DEEP_NEST = ("bool x;\nx ~ Bernoulli(0.5);\nobserve("
             + "(" * 5000 + "x" + ")" * 5000 + ");\nreturn x;\n")
DEEP_KIND = "deep-nest"
TERMINAL = ("done", "failed", "deadline", "cancelled")


class _Server:
    """repro.serve on an ephemeral port, its event loop on a thread."""

    def __init__(self) -> None:
        self.cache = ProgramCache()
        # The closed loop has one request in flight; admission limits
        # sized so the loop is never refused (the defaults of 5/s and
        # 8 in flight would answer it with 429).
        self.app = ServeApp(
            cache=self.cache,
            tenant_rate=1e6,
            tenant_burst=1e6,
            tenant_max_inflight=1000,
        )
        self.server = HttpServer(self.app, host="127.0.0.1", port=0)
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def serve() -> None:
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.server.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=serve, name="serve-loop", daemon=True)
        self.thread.start()
        if not started.wait(30):
            raise RuntimeError("server did not start")
        self.port = self.server.port

    def _connect(self) -> http.client.HTTPConnection:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        conn.connect()
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def submit(self, body: bytes) -> Tuple[int, Any]:
        conn = self._connect()
        try:
            conn.request("POST", "/v1/jobs", body,
                         {"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def wait(self, job_id: str) -> Optional[Dict[str, Any]]:
        """Follow the job's event stream until its terminal status."""
        conn = self._connect()
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events")
            response = conn.getresponse()
            event = None
            while True:
                line = response.readline()
                if not line:
                    return None
                line = line.decode().rstrip("\r\n")
                if line.startswith("event:"):
                    event = line[6:].strip()
                elif line.startswith("data:") and event == "status":
                    data = json.loads(line[5:])
                    if data.get("status") in TERMINAL:
                        return data
        finally:
            conn.close()

    def close(self) -> None:
        future = asyncio.run_coroutine_threadsafe(
            self.server.shutdown(timeout=30), self.loop
        )
        future.result(60)
        self.app.runner.join(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(60)
        self.loop.close()


class ServeWarm:
    """One closed-loop client resubmitting source text to repro.serve."""

    #: Enough jobs for a 90th percentile with ten samples beyond it.
    MIN_JOBS = 100

    def __init__(self, refs: Dict[str, Dict[str, dict]]) -> None:
        self.refs = refs
        self.server: Optional[_Server] = None
        self.sources: Dict[Tuple[str, str], str] = {}
        self.sliced_total = 0

    def setup(self) -> None:
        if self.server is not None:
            self.server.close()
        self.sources = {}
        for name, size, _, _, _ in SERVE_JOBS:
            self.sources[(name, size)] = pretty(getattr(benchmark(name), size)())
        self.server = _Server()
        # Warm the service cache: one short request per program.  Only
        # the slice matters, so a request whose ten draws are all
        # blocked (Chess) still warms it.
        for source in self.sources.values():
            body = {"program": source, "engine": "importance", "samples": 10}
            status, reply = self.server.submit(json.dumps(body).encode())
            if status != 202 or self.server.wait(reply["id"]) is None:
                raise RuntimeError(f"warming request answered {status}")
        cache = self.server.cache
        self.sliced_total = sum(
            cache.slice(parse(source)).sliced_size
            for source in self.sources.values()
        )

    def warm_up(self) -> None:
        """Every job kind once."""
        for kind, spec in self.round(random.Random(0)):
            if kind != DEEP_KIND:
                self.run(-1, kind, spec, Spans(False), random.Random(0))
        self.reset_stats()

    def round(self, rng: random.Random):
        jobs = [(f"{name}-{size}/{engine}", (name, size, engine, samples))
                for name, size, engine, samples, repeat in SERVE_JOBS
                for _ in range(repeat)]
        jobs.append((DEEP_KIND, None))
        rng.shuffle(jobs)
        return jobs

    def run(self, job_id, kind, spec, spans, rng) -> Job:
        assert self.server is not None
        if spec is None:
            body = {"program": DEEP_NEST, "engine": "importance", "samples": 10}
        else:
            name, size, engine, samples = spec
            body = {"program": self.sources[(name, size)], "engine": engine,
                    "samples": samples, "seed": rng.randrange(1 << 30)}
        payload = json.dumps(body).encode()
        if spec is None:
            start = time.perf_counter()
            status, reply = self.server.submit(payload)
            seconds = time.perf_counter() - start
            # Expected: a typed 4xx.  Today the parser's RecursionError
            # comes back as 500 {"error": "internal"}.
            failed = not (400 <= status < 500 and reply.get("error") != "internal")
            return Job(kind, seconds, failed=failed)
        start = time.perf_counter()
        with spans.span("job", job_id):
            with spans.span("serve.submit", job_id):
                status, reply = self.server.submit(payload)
            submitted = time.perf_counter()
            final = None
            if status == 202:
                with spans.span("serve.complete", job_id):
                    final = self.server.wait(reply["id"])
        end = time.perf_counter()
        job = Job(kind, end - start, data={"submit_s": submitted - start})
        if final is None or final.get("status") != "done":
            job.failed = True
            job.errors.append(f"{kind}: submit {status}, final "
                              f"{None if final is None else final.get('status')}")
            return job
        if final.get("cache") != "hit":
            job.failed = True
            return job
        job.data["stages"] = dict(final.get("stage_seconds") or {})
        result = final["result"]
        # Only the Kish ESS of an importance job can be read back from
        # the service; an MH job's chain is not returned, so it gets
        # the coarse bound of an untrusted ESS.
        info = (result.get("health") or {}).get("info") or {}
        n_eff = 0.0
        if engine == "importance" and info.get("ess_kind") == "kish":
            n_eff = min(float(info["ess"]), float(result["samples"]))
        error = checks.mean_error(self.refs[size][name], result["mean"], n_eff)
        if error:
            job.errors.append(f"{kind}: {error}")
        return job

    def finish(self, jobs: List[Job]) -> List[str]:
        return []

    def sliced_stmts(self) -> Dict[str, int]:
        return {"svf": self.sliced_total}

    def reset_stats(self) -> None:
        assert self.server is not None
        self.server.cache.stats.reset()

    def cache_stats(self, jobs: List[Job]) -> Dict[str, int]:
        assert self.server is not None
        return _cache_stats(self.server.cache)

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None


WORKLOADS = {
    "table1-paper": Table1Paper,
    "fig18-warm": Fig18Warm,
    "serve-warm": ServeWarm,
}
