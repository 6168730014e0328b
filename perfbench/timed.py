"""Timed runs: each workload's jobs, timed with tracing off.

A run makes a fixed job list from the seed and runs it in passes until the
run's seconds have gone by, and at least MIN_PASSES times.  Every job is
checked on every pass.

On a shared machine other tenants slow every instruction stream by 10-80% in
spells of a second or more, and CPU time slows with wall time, so neither a
job's best pass nor its median pass repeats from run to run.  Each job is
therefore timed between two runs of a fixed reference loop, pure Python that
calls nothing from congwidth.  A job's latency, in units of "ref", is the
median over passes of its time divided by the mean of the two reference
times around it: a spell slows job and reference alike and cancels, while a
change to the library moves the job alone.  Raw best-pass milliseconds are
reported as details.
"""

from __future__ import annotations

import math
import random
import resource
import statistics
import sys
import time

import jobs

from congwidth.census import width_bfs, width_census_csv
from congwidth.norms import axiom_harness

SETUP_REPEATS = 9
MIN_PASSES = 3
# No pass starts after this many seconds, so a slow build still finishes
# its run within three minutes.
LAST_PASS_START_S = 100
REDUCE_JOBS = 10 * 20  # ten shuffled cycles of the class mix
REF_ROUNDS = 40  # about 0.5 ms on a 2-CPU Xeon
_REF_A = ((2, -1, 3), (0, 5, -2), (7, 1, 1))


def reference_work(rounds: int = REF_ROUNDS) -> int:
    """Fixed work the job times are divided by: 3x3 integer matrix products.

    Like the library it is interpreter-bound small-integer arithmetic and
    tuple building; it calls nothing from congwidth, so no library change
    moves it.
    """
    m, acc = _REF_A, 0
    for _ in range(rounds):
        m = tuple(tuple(sum(m[i][k] * _REF_A[k][j] for k in range(3)) % 1000003 for j in range(3))
                  for i in range(3))
        acc ^= m[0][0]
    return acc


def reference_s() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def generate_inputs(workload: str, seed: int) -> list:
    """The run's job list, made from the seed alone."""
    jobs.WORK.mkdir(exist_ok=True)
    rng = random.Random(seed)
    if workload == "reduce":
        return jobs.take(jobs.reduce_stream(seed), REDUCE_JOBS)
    out = []
    for name in jobs.CENSUS_JOBS:
        n, ring = jobs.census_group(name)
        out += [("census", name, k) for k in rng.sample(range(jobs.sl_order(n, ring)), jobs.CENSUS_SIGMAS)]
    for name, samples in jobs.NORM_CHUNK.items():
        out += [("norm", name, hseed)
                for hseed in rng.sample(jobs.NORM_CHUNK_SEEDS, jobs.NORM_SAMPLES // samples)]
    return out


def setup_probe(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports congwidth and makes the inputs."""
    argv = [sys.executable, str(jobs.HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    wall, status, _ = jobs.run_child(argv, jobs.WORK / "setup.err")
    if status:
        raise RuntimeError(f"set-up probe exited with status {status}")
    return wall


class Timed:
    """Per job: latency ratios to the reference loop and best raw latency."""

    def __init__(self):
        self.job_list: list = []
        self.cls: list[str] = []
        self.best: list[float] = []
        self.ratios: list[list[float]] = []
        self.refs: list[float] = []
        self.setup: list[float] = []
        self.extra: list[dict] = []
        self.details: dict[str, tuple[float, str, int]] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.rss_mb = 0.0

    def check(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(problems)}")
        return not problems

    def by_class(self, ref: bool = True) -> dict[str, list[float]]:
        """Per class: each job's latency in ref units, or its best seconds."""
        out: dict[str, list[float]] = {}
        for cls, best, ratios in zip(self.cls, self.best, self.ratios):
            if ratios:
                out.setdefault(cls, []).append(statistics.median(ratios) if ref else best)
        return out


# -- the workloads -------------------------------------------------------------
# prepare_* builds what every job of the run shares, once, and returns the
# jobs to time.  *_once runs and checks one job; it returns (class, latency
# seconds, extra timings) and the list of problems.


def prepare_reduce(t: Timed, job_list: list) -> tuple[dict, list]:
    return {}, job_list


def reduce_once(job, ctx: dict):
    try:
        out = jobs.run_reduce_job(job)
    except Exception as exc:  # a library error fails the job, not the run
        return None, [f"{type(exc).__name__}: {exc}"]
    return (job.cls, out.latency_s, {"replay": out.replay_s}), jobs.reduce_problems(job, out)


def prepare_finite(t: Timed, job_list: list) -> tuple[dict, list]:
    """Build each census group's table and full census, and both norms, once.

    Each census is checked against the seed commit's digest, and every timed
    width_bfs result against that census.
    """
    ctx = {"digests": jobs.expected()["norm_chunk"]}
    digests = jobs.expected()["census"]
    for name in jobs.CENSUS_JOBS:
        t0 = time.perf_counter()
        table, ideal = jobs.census_table(name)
        t1 = time.perf_counter()
        text = width_census_csv(table, ideal)
        t2 = time.perf_counter()
        t.details[f"census_table_s.{name}"] = (t1 - t0, "s", 1)
        t.details[f"census_csv_s.{name}"] = (t2 - t1, "s", 1)
        t.check(f"census {name}", jobs.census_problems(text, table.n, table.ring, digests[name]))
        ctx[name] = (table, ideal, jobs.rows_by_sigma(text))
    t0 = time.perf_counter()
    ctx.update(jobs.build_norms())
    t.details["norm_build_s"] = (time.perf_counter() - t0, "s", 1)
    return ctx, [job for job in job_list if job[0] == "norm" or job[2] not in ctx[job[1]][0].center]


def finite_once(job, ctx: dict):
    kind, name, arg = job
    if kind == "census":
        table, ideal, rows = ctx[name]
        t0 = time.perf_counter()
        result = width_bfs(table, arg, ideal)
        latency = time.perf_counter() - t0
        same = jobs.census_rows(arg, result) == rows.get(arg)
        return (name, latency, {}), [] if same else [f"sigma {arg}: minima differ from the checked census"]
    samples = jobs.NORM_CHUNK[name]
    t0 = time.perf_counter()
    report = axiom_harness(ctx[name], samples, arg).render()
    latency = time.perf_counter() - t0
    return (name, latency, {}), jobs.norm_problems(report, samples, ctx["digests"][name][str(arg)])


WORKLOAD_FNS = {
    "reduce": (prepare_reduce, reduce_once),
    "finite": (prepare_finite, finite_once),
}


def timed_run(workload: str, seed: int, seconds: int) -> Timed:
    prepare, run_once = WORKLOAD_FNS[workload]
    t = Timed()
    ctx, t.job_list = prepare(t, generate_inputs(workload, seed))
    t.cls = [""] * len(t.job_list)
    t.best = [math.inf] * len(t.job_list)
    t.ratios = [[] for _ in t.job_list]
    t.extra = [{} for _ in t.job_list]
    # Set-up probes are spread over the run, so that their median spans
    # the run's spells of contention rather than the few seconds before it.
    probe_at = [seconds * (i + 0.5) / SETUP_REPEATS for i in range(SETUP_REPEATS)]
    before = reference_s()
    t.refs.append(before)
    start = time.perf_counter()
    while t.passes < MIN_PASSES or time.perf_counter() - start < seconds:
        if t.passes and time.perf_counter() - start > LAST_PASS_START_S:
            break
        for k, job in enumerate(t.job_list):
            if len(t.setup) < SETUP_REPEATS and time.perf_counter() - start >= probe_at[len(t.setup)]:
                t.setup.append(setup_probe(workload, seed))
                before = reference_s()
            done, problems = run_once(job, ctx)
            after = reference_s()
            t.refs.append(after)
            ref, before = (before + after) / 2, after
            if not t.check(f"{workload} job {k} pass {t.passes}", problems):
                continue
            t.cls[k], latency, extra = done
            t.ratios[k].append(latency / ref)
            t.best[k] = min(t.best[k], latency)
            for key, value in extra.items():
                t.extra[k][key] = min(t.extra[k].get(key, math.inf), value)
        t.passes += 1
    while len(t.setup) < SETUP_REPEATS:
        t.setup.append(setup_probe(workload, seed))
    t.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return t


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(t: Timed) -> dict[str, tuple[float, str, int]]:
    classes = t.by_class()
    every = [x for v in classes.values() for x in v]
    if not every:
        return {}
    return {
        "setup_s": (statistics.median(t.setup), "s", len(t.setup)),
        "jobs_per_kref": (1e3 * len(every) / sum(every), "1/kref", len(every)),
        "job_ref_p50": (statistics.median(every), "ref", len(every)),
        "job_ref_p90": (percentile(every, 0.9), "ref", len(every)),
        "class_ref_gmean": (math.exp(statistics.mean(math.log(statistics.median(v)) for v in classes.values())),
                            "ref", len(classes)),
        "peak_rss_mb": (t.rss_mb, "MB", t.attempted),
    }


def details(workload: str, t: Timed) -> dict[str, tuple[float, str, int]]:
    """Per-workload and raw-millisecond figures, printed and stored but not in the JSON metrics."""
    classes = t.by_class(ref=False)
    out = dict(t.details)
    out["ref_ms_p50"] = (statistics.median(t.refs) * 1e3, "ms", len(t.refs))
    out["ref_ms_min"] = (min(t.refs) * 1e3, "ms", len(t.refs))
    every = [x for v in classes.values() for x in v]
    if every:
        out["job_ms_p50"] = (statistics.median(every) * 1e3, "ms", len(every))
        out["job_ms_p90"] = (percentile(every, 0.9) * 1e3, "ms", len(every))
    if workload == "reduce" and classes:
        out["reduce_per_s"] = (len(every) / sum(every), "1/s", len(every))
        out["reduce_ms_p90"] = (percentile(every, 0.9) * 1e3, "ms", len(every))
        replay = [e["replay"] for e in t.extra if "replay" in e]
        out["replay_ms_p50"] = (statistics.median(replay) * 1e3, "ms", len(replay))
    for cls in sorted(classes):
        out[f"{workload}_ms_p50.{cls}"] = (statistics.median(classes[cls]) * 1e3, "ms", len(classes[cls]))
    for cls, v in sorted(t.by_class().items()):
        out[f"{workload}_ref_p50.{cls}"] = (statistics.median(v), "ref", len(v))
    out["passes"] = (t.passes, "count", t.passes)
    return out
