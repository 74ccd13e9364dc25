"""The repository benchmark: one workload, one seed, one mode per call.

    python3 perfbench/run.py --workload wide-barrier --seed 1 --seconds 30 --trace 0

Run from the repository root; it imports ``repro`` from ``src/`` and
times the layers' public functions from outside.  ``--trace 0`` measures
the end-to-end metrics with nothing wrapped; ``--trace 1`` first times one
untraced pass, then repeats the workload with every layer entry point
wrapped (see ``tracing.py``) for the per-layer metrics.  Both modes check
the outputs.  Human-readable lines come first; the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch state (sweep caches, span dumps, ledgers), inside the checkout.
STATE = ROOT / ".perfbench"

#: Host deadline per scenario on the in-process workloads (seconds); the
#: traced run allows TRACE_SLACK times as much.
DEADLINE_S = 6.0
TRACE_SLACK = 1.5
#: sweep-cold pool width.
SWEEP_JOBS = 2
#: Set-up is repeated this many times; ``setup_s`` takes the median.
SETUP_REPEATS = 3
#: The tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10

COST_PHASES = ("adapt.gc", "adapt.migration", "adapt.exclusive_fetch",
                "adapt.repartition", "adapt.barrier",
                "recovery.restore", "recovery.rebuild")

END_TO_END_UNITS = {
    "setup_s": "s",
    "scenarios_per_s": "1/s",
    "events_per_s": "1/s",
    "sim_s_per_wall_s": "s/s",
    "scenario_wall_p50_s": "s",
    "scenario_wall_tail_s": "s",
    "peak_rss_mb": "MB",
    "sim_runtime_s": "s",
}

PER_LAYER_UNITS = {
    "simcore.events": "count",
    "simcore.self_s": "s",
    "simcore.us_per_event": "us",
    "network.messages": "count",
    "network.bytes": "B",
    "network.transmit_calls": "count",
    "network.self_s": "s",
    "network.max_link_busy_s": "s",
    "network.adapt_max_link_bytes": "B",
    "dsm.apply_notices_calls": "count",
    "dsm.notices_applied": "count",
    "dsm.apply_notices_self_s": "s",
    "dsm.access_calls": "count",
    "dsm.access_self_s": "s",
    "dsm.pages": "count",
    "dsm.diffs": "count",
    "dsm.make_diff_calls": "count",
    "dsm.diff_apply_calls": "count",
    "dsm.diff_self_s": "s",
    "dsm.self_s": "s",
    "openmp.self_s": "s",
    "apps.kernel_self_s": "s",
    "apps.verify_s": "s",
    "core.adaptations": "count",
    "core.migrations": "count",
    "core.recoveries": "count",
    "core.drained_pages": "count",
    "core.self_s": "s",
    **{f"core.sim_phase_s.{p}": "s" for p in COST_PHASES},
    "exec.executions": "count",
    "exec.cache_hits": "count",
    "exec.cache_stores": "count",
    "exec.cache_get_s": "s",
    "exec.cache_put_s": "s",
    "exec.task_exec_p50_s": "s",
    "exec.pool_busy_ratio": "ratio",
    "exec.retries": "count",
    "exec.useful_exec_ratio": "ratio",
    "exec.task_overhead_p50_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.remainder_s": "s",
    "sim_adapt_s": "s",
    "failed_ratio": "ratio",
}


# ---------------------------------------------------------------------------
# small arithmetic
# ---------------------------------------------------------------------------
def tail_percentile(samples, beyond: int = TAIL_BEYOND
                    ) -> Optional[Tuple[int, float]]:
    """The highest whole percentile with at least ``beyond`` samples above
    it, by nearest rank: ``(percentile, value)``, or None when there are
    too few samples for any percentile to qualify."""
    ordered = sorted(samples)
    n = len(ordered)
    pct = (100 * (n - beyond)) // n if n else 0
    if pct < 1:
        return None
    return pct, ordered[math.ceil(pct * n / 100) - 1]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def import_times() -> List[float]:
    """Cold-start import of numpy and ``repro.api`` in fresh interpreters
    (SETUP_REPEATS of them): the part of set-up a process pays once."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy, repro.api"],
                       env=env, check=True)
        times.append(time.perf_counter() - t0)
    return times


def stop_resource_tracker() -> None:
    """Stop the ``multiprocessing`` resource tracker and wait for it.

    The spawn pool behind ``api.sweep`` joins its workers, but the
    resource tracker it launches is never waited for: left alone it
    outlives this process as an orphan.  ``_stop`` closes its pipe, which
    ends it, and reaps it."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def source_digest() -> str:
    """Digest of the program under test and of this benchmark, keying the
    cross-run ledger (either changing starts a new ledger)."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# one scenario execution (in process, under a host deadline)
# ---------------------------------------------------------------------------
class _Deadline(BaseException):
    """Raised by the alarm; BaseException so ``except Exception`` inside
    the program cannot swallow it."""


class HostDeadline:
    """SIGALRM-based host deadline around one in-process scenario."""

    def __init__(self) -> None:
        self.armed = False
        self.fired = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        if self.armed:
            self.fired = True
            raise _Deadline()

    def __call__(self, seconds: float) -> "HostDeadline":
        self.seconds = seconds
        return self

    def __enter__(self) -> "HostDeadline":
        self.fired = False
        self.armed = True
        # Re-fire every second in case the program catches the first one.
        signal.setitimer(signal.ITIMER_REAL, self.seconds, 1.0)
        return self

    def __exit__(self, *exc) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def failure_class(err: BaseException) -> str:
    """Class name of the innermost cause (SimulationError wraps the error
    a simulated process raised)."""
    while err.__cause__ is not None:
        err = err.__cause__
    return type(err).__name__


@dataclass
class Outcome:
    """One attempted scenario."""

    index: int
    wall: float
    failure: Optional[str] = None
    detail: str = ""
    #: Canonical ScenarioResult digest (completed scenarios).
    digest: str = ""
    result: object = None
    report: object = None


def run_in_process(api, spec, index: int, deadline: HostDeadline,
                   seconds: float, obs=None) -> Outcome:
    failure = detail = None
    report = None
    t0 = time.perf_counter()
    try:
        with deadline(seconds):
            report = api.run(spec, obs=obs)
    except (Exception, _Deadline) as err:  # the scenario failed; record why
        failure = "timeout" if deadline.fired else failure_class(err)
        detail = str(err).splitlines()[0][:160] if str(err) else ""
    wall = time.perf_counter() - t0
    if report is None:
        return Outcome(index, wall, failure, detail)
    result = report.result
    out = Outcome(index, wall, digest=hashlib.sha256(
        result.to_json().encode()).hexdigest(), result=result, report=report)
    if spec.materialized and result.verified is not True:
        out.failure = "mismatch"
        out.detail = "materialized result differs from the sequential reference"
    return out


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------
def warm_specs(api, wl) -> List:
    """One tiny scenario per kernel the workload runs, same mode."""
    seen = {}
    for spec in wl.specs:
        seen.setdefault(spec.kernel, spec)
    return [
        api.spec_from_preset("tiny", kernel, 2, calibrated=True,
                             materialized=spec.materialized,
                             adaptive=spec.adaptive)
        for kernel, spec in seen.items()
    ]


def set_up(api, name: str, seed: int):
    """Spec generation, serial expected results (sweep-cold) and warm-up.
    Returns (workload, expected result JSON by digest)."""
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed)
    expected: Dict[str, str] = {}
    if name == "sweep-cold":
        for spec in wl.specs:
            digest = spec.config_digest()
            if digest not in expected:
                expected[digest] = api.run(spec).result.to_json()
    else:
        for spec in warm_specs(api, wl):
            api.run(spec)
    return wl, expected


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------
@dataclass
class Pass:
    """One pass over the workload's scenario list (one sweep for
    sweep-cold)."""

    outcomes: List[Outcome] = field(default_factory=list)
    wall: float = 0.0
    #: Per-scenario wall samples (executed tasks' slot time on sweeps).
    samples: List[float] = field(default_factory=list)
    traced: bool = False
    #: Deterministic work ledger: scenario index -> counts.
    ledger: Dict[int, dict] = field(default_factory=dict)
    #: Per-layer aggregates (traced passes): sums keyed by kind, plus
    #: ``_exec_walls`` (a list) and ``_tiling_error`` (a max).
    layer: Dict[str, object] = field(default_factory=dict)
    sweep: object = None


def result_counts(result) -> dict:
    return {k: getattr(result, k) for k in
            ("events", "messages", "bytes", "pages", "diffs", "adaptations")}


def serial_pass(api, wl, deadline, tracer=None, obs=None,
                keep_spans: bool = False) -> Pass:
    p = Pass(traced=tracer is not None)
    limit = DEADLINE_S * (TRACE_SLACK if tracer is not None else 1.0)
    for i, spec in enumerate(wl.specs):
        gc.collect()  # reclaim the previous scenario outside the timing
        if tracer is None:
            out = run_in_process(api, spec, i, deadline, limit)
        else:
            out = traced_scenario(api, spec, i, deadline, limit, tracer,
                                  obs, p, keep_spans)
        # the live experiment would keep the whole simulation in memory
        out.report = None
        p.outcomes.append(out)
        p.samples.append(out.wall)
        p.wall += out.wall
        if out.result is not None:
            p.ledger.setdefault(i, {}).update(result_counts(out.result))
    return p


def traced_scenario(api, spec, i, deadline, limit, tracer, obs, p,
                    keep_spans: bool) -> Outcome:
    calls0, notices0 = Counter(tracer.calls), tracer.notices
    first = len(tracer.start_col)
    tracer.scenario = i
    root = tracer.enter(tracer.root_nid)
    try:
        out = run_in_process(api, spec, i, deadline, limit, obs=obs)
    finally:
        tracer.exit(root)
    # A timed-out scenario did as much work as the deadline allowed, not a
    # fixed amount: it stays out of the ledger and the layer figures.
    if out.failure != "timeout":
        spans = tracer.spans(first)
        account_spans(spans, p.layer)
        calls = tracer.calls - calls0
        p.ledger.setdefault(i, {}).update(
            {f"calls.{k}": v for k, v in sorted(calls.items())},
            notices=tracer.notices - notices0)
        for name in ("dsm.apply_notices", "dsm.make_diff", "dsm.diff_apply",
                     "network.transmit", "network.transmit_flight",
                     "exec.execute_spec"):
            _add(p.layer, f"calls.{name}", calls.get(name, 0))
        _add(p.layer, "calls.dsm.access",
             calls.get("dsm.access", 0) + calls.get("dsm.access_batch", 0))
        _add(p.layer, "notices", tracer.notices - notices0)
        p.layer.setdefault("_exec_walls", []).extend(
            e - s for name, s, e, _ in spans if name == "exec.execute_spec")
        if out.report is not None:
            account_report(out.report, p.layer)
    if not keep_spans or out.failure == "timeout":
        tracer.truncate(first)
    return out


def _add(d: dict, key: str, value: float) -> None:
    d[key] = d.get(key, 0.0) + value


def account_spans(spans, layer: dict) -> None:
    """Add one root's spans to the pass aggregates and check that the
    layer self times plus the remainder tile the root's wall time."""
    from tracing import LAYER_OF, self_times

    own = self_times(spans)
    total = 0.0
    for (name, *_), t in zip(spans, own):
        _add(layer, f"self.{LAYER_OF[name]}", t)
        _add(layer, f"name.{name}", t)
        total += t
    root_wall = spans[0][2] - spans[0][1]
    layer["_tiling_error"] = max(layer.get("_tiling_error", 0.0),
                                 abs(total - root_wall))


def account_report(report, layer: dict) -> None:
    """Modelled per-layer figures of one completed scenario."""
    exp = report.experiment
    result = report.result
    busy = exp.runtime.switch.link_report()
    _add(layer, "max_link_busy", max(busy.values()) if busy else 0.0)
    for rec in exp.adapt_records:
        _add(layer, "adapt_points", 1)
        _add(layer, "adapt_duration", rec.duration)
        _add(layer, "adapt_max_link_bytes", rec.max_link_bytes)
        _add(layer, "drained_pages", rec.drained_pages)
    _add(layer, "migrations", len(exp.migrations))
    _add(layer, "recoveries", len(result.recoveries))
    breakdown = report.cost_breakdown
    if breakdown is not None:
        for phase in COST_PHASES:
            _add(layer, f"phase.{phase}", breakdown.phases[phase].seconds)


def sweep_pass(api, wl, expected, tracer=None,
               keep_spans: bool = False) -> Pass:
    """One cold sweep: fresh cache, seeded share pre-stored (untimed)."""
    from repro.exec.cache import ResultCache
    from repro.exec.result import ScenarioResult

    p = Pass(traced=tracer is not None)
    root_dir = STATE / "cache" / str(os.getpid())
    shutil.rmtree(root_dir, ignore_errors=True)
    seeder = ResultCache(root=root_dir)
    for k in wl.precached:
        spec = wl.specs[k]
        seeder.put(spec, ScenarioResult.from_dict(
            json.loads(expected[spec.config_digest()])))
    cache = ResultCache(root=root_dir)
    gc.collect()
    try:
        if tracer is not None:
            first = len(tracer.start_col)
            calls0 = Counter(tracer.calls)
            root = tracer.enter(tracer.root_nid)
        t0 = time.perf_counter()
        try:
            sweep = api.sweep(wl.specs, jobs=SWEEP_JOBS, cache=cache)
            failure = None
        except Exception as err:  # the whole sweep failed
            sweep, failure = None, failure_class(err)
        p.wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.exit(root)
            account_spans(tracer.spans(first), p.layer)
            calls = tracer.calls - calls0
            p.ledger[-1] = {f"calls.{k}": v for k, v in sorted(calls.items())}
            if not keep_spans:
                tracer.truncate(first)
    finally:
        shutil.rmtree(root_dir, ignore_errors=True)
    p.sweep = sweep
    if sweep is None:
        p.outcomes = [Outcome(i, 0.0, failure) for i in range(len(wl.specs))]
        return p
    for o in sweep.outcomes:
        got = o.result.to_json()
        out = Outcome(o.index, o.ended_at - o.started_at, result=o.result,
                      digest=hashlib.sha256(got.encode()).hexdigest())
        if got != expected[o.spec.config_digest()]:
            out.failure = "mismatch"
            out.detail = "differs from serial execute_spec of the same spec"
        p.outcomes.append(out)
        if not o.cached:
            p.samples.append(o.ended_at - o.started_at)
        p.ledger[o.index] = {"cached": o.cached, **result_counts(o.result)}
    p.ledger[-2] = {"executed": sweep.executed, "hits": sweep.cache_hits,
                    "stores": sweep.cache_stats.stores,
                    "retried": sweep.retried}
    return p


def one_pass(api, name, wl, expected, deadline, tracer=None, obs=None,
             keep_spans: bool = False) -> Pass:
    if name == "sweep-cold":
        return sweep_pass(api, wl, expected, tracer, keep_spans)
    return serial_pass(api, wl, deadline, tracer, obs, keep_spans)


def measure(api, name, wl, expected, seconds, deadline, tracer=None,
            obs=None) -> List[Pass]:
    """Repeat whole passes until ``seconds`` would be exceeded: at least
    two, and enough samples that the tail percentile is not below the
    median (so it does not flip between scenario kinds from run to run)."""
    min_passes = 2
    if name != "sweep-cold" and tracer is None:
        min_passes = max(2, math.ceil(2 * (TAIL_BEYOND + 1) / len(wl.specs)))
    passes: List[Pass] = []
    t0 = time.perf_counter()
    while True:
        # spans are kept (and written out) for the first traced pass only
        passes.append(one_pass(api, name, wl, expected, deadline, tracer,
                               obs, keep_spans=not passes))
        elapsed = time.perf_counter() - t0
        if len(passes) >= min_passes and \
                elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


# ---------------------------------------------------------------------------
# outputs check and ledger
# ---------------------------------------------------------------------------
def check_outputs(wl, passes: List[Pass], problems: List[str]) -> None:
    """Same digest or same failure class for every scenario in every pass;
    identical work ledgers across passes of the same mode."""
    first = passes[0]
    for p in passes[1:]:
        for a, b in zip(first.outcomes, p.outcomes):
            label = wl.specs[a.index].display_name
            if (a.failure, a.digest) != (b.failure, b.digest):
                problems.append(
                    f"scenario {a.index} {label}: outcome changed between "
                    f"repetitions ({a.failure or a.digest[:12]} -> "
                    f"{b.failure or b.digest[:12]})")
    by_mode: Dict[bool, dict] = {}
    for p in passes:
        ref = by_mode.setdefault(p.traced, p.ledger)
        if p.ledger != ref:
            keys = sorted(k for k in set(ref) | set(p.ledger)
                          if ref.get(k) != p.ledger.get(k))
            problems.append(f"work ledger drifted between passes "
                            f"(scenarios {keys[:5]}): benchmark defect")


def check_ledger_file(name, seed, passes: List[Pass],
                      problems: List[str]) -> None:
    """Compare this run's results and ledger with an earlier run of the
    same program, workload and seed (if any), then record them."""
    path = STATE / "ledger" / f"{name}-seed{seed}-{source_digest()}.json"
    now = {"outcomes": {str(o.index): o.failure or o.digest
                        for o in passes[0].outcomes}}
    traced = [p for p in passes if p.traced]
    if traced:
        now["ledger"] = {str(k): v for k, v in traced[0].ledger.items()}
    try:
        before = json.loads(path.read_text())
    except (OSError, ValueError):
        before = {}
    for key, value in now.items():
        if key in before and before[key] != value:
            problems.append(f"{key} differ from an earlier run of the same "
                            f"seed ({path.name})")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**before, **now}, sort_keys=True))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def end_to_end(passes: List[Pass], setup_s: float
               ) -> Tuple[Dict[str, float], Tuple[int, int]]:
    """The end-to-end metrics, plus (tail percentile, sample count)."""
    wall = sum(p.wall for p in passes)
    done = [o for p in passes for o in p.outcomes if o.failure is None]
    samples = [s for p in passes for s in p.samples]
    tail = tail_percentile(samples)
    distinct = {o.digest: o.result for o in passes[0].outcomes
                if o.failure is None}
    return {
        "setup_s": setup_s,
        "scenarios_per_s": len(done) / wall,
        "events_per_s": sum(o.result.events for o in done) / wall,
        "sim_s_per_wall_s": sum(o.result.runtime_seconds for o in done) / wall,
        "scenario_wall_p50_s": median(samples),
        "scenario_wall_tail_s": tail[1] if tail else max(samples),
        "peak_rss_mb": peak_rss_mb(),
        "sim_runtime_s": sum(r.runtime_seconds for r in distinct.values()),
    }, (tail[0] if tail else 100, len(samples))


def measured_wall(p: Pass) -> float:
    """Pass wall without timed-out scenarios, whose time is the deadline."""
    return p.wall - sum(o.wall for o in p.outcomes if o.failure == "timeout")


def per_layer(name, wl, untraced: Pass, traced: List[Pass]
              ) -> Dict[str, float]:
    first = traced[0]
    agg = first.layer
    done = [o for o in first.outcomes if o.failure is None]

    def t(key: str) -> float:
        return median([p.layer.get(key, 0.0) for p in traced])

    m: Dict[str, float] = {k: 0.0 for k in PER_LAYER_UNITS}
    m["simcore.events"] = sum(o.result.events for o in done)
    m["network.messages"] = sum(o.result.messages for o in done)
    m["network.bytes"] = sum(o.result.bytes for o in done)
    m["dsm.pages"] = sum(o.result.pages for o in done)
    m["dsm.diffs"] = sum(o.result.diffs for o in done)
    m["core.adaptations"] = sum(o.result.adaptations for o in done)
    m["trace.overhead_ratio"] = (median([measured_wall(p) for p in traced])
                                 / measured_wall(untraced))
    m["trace.remainder_s"] = t("self.remainder")
    attempted = sum(len(p.outcomes) for p in traced)
    m["failed_ratio"] = sum(o.failure is not None for p in traced
                            for o in p.outcomes) / attempted
    for layer in ("simcore", "network", "dsm", "openmp", "core"):
        m[f"{layer}.self_s"] = t(f"self.{layer}")
    m["apps.kernel_self_s"] = t("self.apps")
    m["apps.verify_s"] = t("self.verify")
    if name == "sweep-cold":
        sweep_layer(first, traced, m, t)
        return m
    if m["simcore.events"]:
        m["simcore.us_per_event"] = m["simcore.self_s"] / m["simcore.events"] * 1e6
    m["network.transmit_calls"] = (agg.get("calls.network.transmit", 0)
                                   + agg.get("calls.network.transmit_flight", 0))
    m["network.max_link_busy_s"] = agg.get("max_link_busy", 0.0)
    points = agg.get("adapt_points", 0)
    if points:
        m["network.adapt_max_link_bytes"] = agg["adapt_max_link_bytes"] / points
        m["sim_adapt_s"] = agg["adapt_duration"] / points
    m["dsm.apply_notices_calls"] = agg.get("calls.dsm.apply_notices", 0)
    m["dsm.notices_applied"] = agg.get("notices", 0)
    m["dsm.apply_notices_self_s"] = t("name.dsm.apply_notices")
    m["dsm.access_calls"] = agg.get("calls.dsm.access", 0)
    m["dsm.access_self_s"] = t("name.dsm.access") + t("name.dsm.access_batch")
    m["dsm.make_diff_calls"] = agg.get("calls.dsm.make_diff", 0)
    m["dsm.diff_apply_calls"] = agg.get("calls.dsm.diff_apply", 0)
    m["dsm.diff_self_s"] = t("name.dsm.make_diff") + t("name.dsm.diff_apply")
    m["core.migrations"] = agg.get("migrations", 0)
    m["core.recoveries"] = agg.get("recoveries", 0)
    m["core.drained_pages"] = agg.get("drained_pages", 0)
    for phase in COST_PHASES:
        m[f"core.sim_phase_s.{phase}"] = agg.get(f"phase.{phase}", 0.0)
    m["exec.executions"] = agg.get("calls.exec.execute_spec", 0)
    m["exec.task_exec_p50_s"] = median(agg.get("_exec_walls", []))
    m["exec.useful_exec_ratio"] = (
        len({s.config_digest() for s in wl.specs}) / len(wl.specs))
    return m


def sweep_layer(first: Pass, traced: List[Pass], m, t) -> None:
    sweep = first.sweep
    if sweep is None:
        return
    executed = [o for o in sweep.outcomes if not o.cached]
    m["exec.executions"] = sweep.executed
    m["exec.cache_hits"] = sweep.cache_hits
    m["exec.cache_stores"] = sweep.cache_stats.stores
    m["exec.cache_get_s"] = t("name.exec.cache_get")
    m["exec.cache_put_s"] = t("name.exec.cache_put")
    m["exec.retries"] = sweep.retried
    m["exec.useful_exec_ratio"] = (
        len({o.spec.config_digest() for o in executed}) / len(executed)
        if executed else 0.0)
    walls, overheads, busy = [], [], []
    for p in traced:
        if p.sweep is None:
            continue
        run = [o for o in p.sweep.outcomes if not o.cached]
        walls += [o.wall_seconds for o in run]
        overheads += [(o.ended_at - o.started_at) - o.wall_seconds for o in run]
        busy.append(sum(o.ended_at - o.started_at for o in run)
                    / (p.sweep.jobs * p.sweep.wall_seconds))
    m["exec.task_exec_p50_s"] = median(walls)
    m["exec.task_overhead_p50_s"] = median(overheads)
    m["exec.pool_busy_ratio"] = median(busy)


# ---------------------------------------------------------------------------
# the command
# ---------------------------------------------------------------------------
def write_spans(tracer, name: str, seed: int) -> Path:
    """Dump the first traced pass's spans: one line per span."""
    path = STATE / "spans" / f"{name}-seed{seed}.tsv"
    path.parent.mkdir(parents=True, exist_ok=True)
    names = tracer.names
    base = tracer.start_col[0] if len(tracer.start_col) else 0.0
    with open(path, "w") as fh:
        fh.write("id\tname\tstart_s\tend_s\tparent\tscenario\n")
        for i in range(len(tracer.start_col)):
            fh.write(f"{i}\t{names[tracer.name_col[i]]}\t"
                     f"{tracer.start_col[i] - base:.9f}\t"
                     f"{tracer.end_col[i] - base:.9f}\t"
                     f"{tracer.parent_col[i]}\t{tracer.scenario_col[i]}\n")
    return path


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True,
                    choices=("wide-barrier", "adapt-materialized", "sweep-cold"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    try:
        return measure_and_report(parse_args(argv))
    finally:
        stop_resource_tracker()


def measure_and_report(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy

    import repro.api as api

    reps = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl, expected = set_up(api, args.workload, args.seed)
        reps.append(time.perf_counter() - t0)
    setup_s = median(import_times()) + median(reps)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"host={platform.node()} python={platform.python_version()} "
          f"numpy={numpy.__version__} nproc={os.cpu_count()}")
    print(f"scenarios per pass: {len(wl.specs)}")
    STATE.mkdir(exist_ok=True)
    deadline = HostDeadline()
    problems: List[str] = []

    if args.trace:
        from repro.api import ObsConfig
        from tracing import Tracer

        t0 = time.perf_counter()
        untraced = one_pass(api, args.workload, wl, expected, deadline)
        with Tracer() as tracer:
            traced = measure(api, args.workload, wl, expected,
                             args.seconds - (time.perf_counter() - t0), deadline,
                             tracer, ObsConfig(per_process=False))
            span_path = write_spans(tracer, args.workload, args.seed)
        passes = [untraced] + traced
        metrics = per_layer(args.workload, wl, untraced, traced)
        units = PER_LAYER_UNITS
        tiling = max(p.layer.get("_tiling_error", 0.0) for p in traced)
        if tiling > 1e-6:
            problems.append(f"layer self times plus remainder miss the "
                            f"traced wall time by {tiling:.3g} s")
        print(f"spans: {span_path.relative_to(ROOT)} "
              f"(self-time tiling error {tiling:.2g} s)")
    else:
        passes = measure(api, args.workload, wl, expected, args.seconds,
                         deadline)
        metrics, (tail_pct, n_samples) = end_to_end(passes, setup_s)
        units = END_TO_END_UNITS
        print(f"scenario_wall_tail_s is p{tail_pct} of {n_samples} samples")

    check_outputs(wl, passes, problems)
    check_ledger_file(args.workload, args.seed, passes, problems)
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(o.failure is not None for p in passes for o in p.outcomes)
    print(f"passes: {len(passes)}  attempted: {attempted}  failed: {failed}  "
          f"failed_ratio: {failed / attempted:.4f} ratio")
    for o in passes[0].outcomes:
        if o.failure is not None:
            spec = wl.specs[o.index]
            print(f"FAILED {o.failure} {spec.display_name}: {o.detail} "
                  f"spec={spec.canonical_json()}")
    for key, value in metrics.items():
        print(f"  {key:36s} {value:16.6f} {units[key]}")
    for problem in problems:
        print(f"OUTPUTS CHECK: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
