"""Per-layer span ledger for the traced benchmark run.

The traced run wraps the public entry points of each layer of the
system from the outside: class attributes for methods, and every
module binding for functions (a function imported by name is bound at
import time, so patching only its home module would miss callers).
Each wrapper records a span — layer, start, end, parent — and the
layer's work counters at the boundary.  A layer's *self time* is its
span's duration minus the part covered by its child spans, so time
spent in the disk below an injector is charged to the disk and never
to both.

A call into a layer that is already the innermost open span (ixt3's
``write`` delegating to ext3's, ``verify_sha1`` calling ``sha1``) is
part of that span: it opens no new span and is not counted again.

The worker pool is counted apart, by :class:`PoolCounter`, on a pass
that runs at the workload's own pool width: the spans above only see
the process they run in, so the traced passes run every layer in-process.

:func:`install` and :meth:`PoolCounter.install` return an
:class:`Installation`; :meth:`~Installation.remove` puts every original
object back, so untraced runs execute the program's own code.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: File systems whose syscall layers (``fs.<name>``) the ledger reports.
FS_NAMES = ("ext3", "ixt3", "reiserfs", "jfs", "ntfs")
ARRAY = "redundancy.array"
CRASH_SUBLAYERS = ("crash.engine.record", "crash.engine.apply",
                   "crash.engine.check")


class Ledger:
    """Span stack plus per-layer self time, calls, errors and counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 keep_spans: bool = False):
        self.clock = clock
        #: Open spans, innermost last: ``[layer, child_time, span_index]``.
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.errors: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, Dict[str, int]] = defaultdict(
            lambda: defaultdict(int))
        #: Closed spans as ``(layer, start, end, parent_index)`` — kept
        #: only on request (a traced pass closes millions of spans).
        self.spans: Optional[List[Tuple[str, float, float, int]]] = (
            [] if keep_spans else None)
        #: Crash recordings seen by the traced run (memo accounting).
        self.recordings: List[Any] = []
        self.memo_entries: Dict[str, int] = defaultdict(int)

    def count(self, layer: str, name: str, n: int = 1) -> None:
        self.counters[layer][name] += n

    def inside(self, layer: str) -> bool:
        """True when a span of *layer* is open anywhere on the stack."""
        return any(frame[0] == layer for frame in self.stack)

    def inside_innermost(self, layer: str) -> bool:
        """True when the innermost open span is one of *layer*."""
        return bool(self.stack) and self.stack[-1][0] == layer

    def span(self, layer: str, fn: Callable, args: tuple, kwargs: dict):
        """Run ``fn(*args, **kwargs)`` inside a span of *layer*."""
        if self.inside_innermost(layer):
            return fn(*args, **kwargs)
        stack = self.stack
        spans = self.spans
        parent = stack[-1][2] if stack else -1
        frame = [layer, 0.0, -1]
        if spans is not None:
            frame[2] = len(spans)
            spans.append(None)  # placeholder, filled at close
        stack.append(frame)
        clock = self.clock
        start = clock()
        failed = True
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            end = clock()
            stack.pop()
            duration = end - start
            self.self_s[layer] += duration - frame[1]
            self.total_s[layer] += duration
            self.calls[layer] += 1
            if failed:
                self.errors[layer] += 1
            if stack:
                stack[-1][1] += duration
            if spans is not None:
                spans[frame[2]] = (layer, start, end, parent)

    def tally_recordings(self) -> None:
        """Fold the memo sizes of the crash recordings seen so far."""
        for rec in self.recordings:
            for memo in ("digest_memo", "fsck_memo", "walk_memo"):
                self.memo_entries[memo] += len(getattr(rec, memo, ()) or ())
        self.recordings.clear()


# -- patching -----------------------------------------------------------------


class Installation:
    """The wrappers one traced run put in place, and how to undo them."""

    def __init__(self) -> None:
        #: (owner, attribute, original) in installation order.
        self.patches: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, wrapper: Any) -> None:
        self.patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def remove(self) -> None:
        for owner, name, original in reversed(self.patches):
            setattr(owner, name, original)
        self.patches.clear()


def _method(ledger: Ledger, layer: str, fn: Callable,
            post: Optional[Callable] = None,
            pre: Optional[Callable] = None) -> Callable:
    """Wrap a method: span around the call, then ``post(state, self,
    args, result)`` with ``state = pre(self, args)`` taken before it."""
    span = ledger.span

    def wrapper(self, *args, **kwargs):
        if pre is None and post is None:
            return span(layer, fn, (self,) + args, kwargs)
        state = pre(self, args) if pre is not None else None
        result = span(layer, fn, (self,) + args, kwargs)
        if post is not None:
            post(state, self, args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _subclasses(cls) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _wrap_methods(inst: Installation, ledger: Ledger, cls: type,
                  layer: str, names, post: Optional[Dict] = None,
                  pre: Optional[Dict] = None) -> None:
    """Wrap *names* on *cls* and every subclass that defines them."""
    post = post or {}
    pre = pre or {}
    for klass in _subclasses(cls):
        for name in names:
            fn = klass.__dict__.get(name)
            if fn is None or not callable(fn):
                continue
            inst.set(klass, name, _method(
                ledger, layer, fn, post.get(name), pre.get(name)))


def _wrap_function(inst: Installation, fn: Callable, wrapper: Callable) -> None:
    """Replace every ``repro.*`` module binding of *fn* by *wrapper*."""
    wrapper.__wrapped__ = fn
    for modname, module in list(sys.modules.items()):
        if module is None or not modname.startswith("repro"):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is fn:
                inst.set(module, attr, wrapper)


def _function(ledger: Ledger, layer: str, fn: Callable,
              post: Optional[Callable] = None) -> Callable:
    span = ledger.span

    def wrapper(*args, **kwargs):
        result = span(layer, fn, args, kwargs)
        if post is not None:
            post(args, kwargs, result)
        return result

    return wrapper


# -- the layers -----------------------------------------------------------------


def install(ledger: Ledger) -> Installation:
    """Wrap every layer's entry points so *ledger* sees them."""
    # Import every layer first so class hierarchies and module bindings
    # are complete before anything is patched.
    import repro.common.bitmap as bitmap_mod
    import repro.common.checksum as checksum_mod
    import repro.crash.engine as crash_mod  # every file system, too
    import repro.fingerprint.harness as harness_mod
    import repro.fingerprint.inference as inference_mod
    import repro.fleet.campaign as campaign_mod
    import repro.fleet.sim as sim_mod
    import repro.obs.postmortem as postmortem_mod
    from repro.disk.cache import BlockCache
    from repro.disk.disk import SimulatedDisk
    from repro.disk.faults import Fault
    from repro.disk.injector import FaultInjector
    from repro.disk.recorder import WriteRecorder
    from repro.obs.events import EventLog
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.timeseries import FlightRecorder, TimeSeries
    from repro.obs.trace import Tracer
    from repro.redundancy.array import ArrayDevice
    from repro.vfs.api import _TRACED_OPS, FileSystem

    m = dict(locals())
    inst = Installation()
    try:
        _patch(inst, ledger, m)
    except BaseException:
        inst.remove()
        raise
    return inst


def _patch(inst: Installation, ledger: Ledger, m: Dict[str, Any]) -> None:
    count = ledger.count

    # fs.<name>: the syscall surface of every file system.  The layer is
    # the *instance's* file system, so ixt3 delegating to ext3 code
    # stays inside fs.ixt3.
    names: Dict[str, str] = {}

    def fs_layer(fs) -> str:
        layer = names.get(fs.name)
        if layer is None:
            layer = names[fs.name] = "fs." + fs.name
        return layer

    span = ledger.span
    for klass in _subclasses(m["FileSystem"]):
        for op in m["_TRACED_OPS"]:
            fn = klass.__dict__.get(op)
            if fn is None or getattr(fn, "__isabstractmethod__", False):
                continue

            def fs_wrapper(self, *args, _fn=fn, **kwargs):
                return span(fs_layer(self), _fn, (self,) + args, kwargs)

            fs_wrapper.__wrapped__ = fn
            inst.set(klass, op, fs_wrapper)

    # common.bitmap: allocator scans.
    def find_free_post(_state, bmp, args, result):
        start = args[0] if args else 0
        count("common.bitmap", "find_free_calls")
        end = result if result is not None else bmp.nbits - 1
        count("common.bitmap", "bits_scanned", max(0, end - start + 1))

    _wrap_methods(inst, ledger, m["bitmap_mod"].Bitmap, "common.bitmap",
                  ("find_free", "find_free_run"),
                  post={"find_free": find_free_post})

    # common.checksum: every hashing entry point, wherever it is bound.
    ck = m["checksum_mod"]

    def hashed_one(args, kwargs, _result):
        if not ledger.inside_innermost("common.checksum"):  # outermost call only
            count("common.checksum", "bytes_hashed", len(args[0]))

    for fn in (ck.sha1, ck.crc32, ck.crc32_bytes, ck.verify_sha1):
        _wrap_function(inst, fn, _function(ledger, "common.checksum", fn,
                                           hashed_one))
    for fn in (ck.sha1_many, ck.transaction_checksum):
        def bulk(blocks, _fn=fn):
            blocks = list(blocks)
            result = span("common.checksum", _fn, (blocks,), {})
            count("common.checksum", "bytes_hashed", sum(map(len, blocks)))
            return result
        _wrap_function(inst, fn, bulk)

    # disk.cache: the host buffer cache.
    def cache_pre(cache, args):
        lru = getattr(cache, "_lru", None)
        if lru is None:
            return None
        return cache.hits, len(lru), args[0] in lru

    def cache_read_post(state, cache, _args, _result):
        count("disk.cache", "reads")
        if state is not None:
            count("disk.cache", "hits", cache.hits - state[0])
            count("disk.cache", "evictions",
                  state[1] + (not state[2]) - len(cache._lru))

    def cache_write_post(state, cache, _args, _result):
        count("disk.cache", "writes")
        if state is not None:
            count("disk.cache", "evictions",
                  state[1] + (not state[2]) - len(cache._lru))

    _wrap_methods(inst, ledger, m["BlockCache"], "disk.cache",
                  ("read_block", "write_block", "restore"),
                  post={"read_block": cache_read_post,
                        "write_block": cache_write_post},
                  pre={"read_block": cache_pre, "write_block": cache_pre})

    # disk.injector: type-aware fault matching.
    def injector_post(_state, injector, _args, _result):
        count("disk.injector", "requests")
        count("disk.injector", "faults_scanned", len(injector.faults))

    _wrap_methods(inst, ledger, m["FaultInjector"], "disk.injector",
                  ("read_block", "write_block", "restore"),
                  post={"read_block": injector_post,
                        "write_block": injector_post})
    fault_consume = m["Fault"].__dict__["consume"]

    def consume(self, *args, **kwargs):
        fired = fault_consume(self, *args, **kwargs)
        if fired:
            count("disk.injector", "faults_fired")
        return fired

    consume.__wrapped__ = fault_consume
    inst.set(m["Fault"], "consume", consume)

    # disk.disk: the simulated medium (member disks of arrays too).
    def clock_pre(disk, _args):
        return disk.clock

    def disk_io_post(kind: str, nbytes: str):
        def post(before, disk, _args, _result):
            count("disk.disk", kind)
            count("disk.disk", nbytes, disk.block_size)
            count("disk.disk", "virtual_busy_ns",
                  round((disk.clock - before) * 1e9))
            if ledger.inside(ARRAY):
                count(ARRAY, "member_ios")
        return post

    def counted(name: str):
        def post(_state, _disk, _args, _result):
            count("disk.disk", name)
        return post

    _wrap_methods(inst, ledger, m["SimulatedDisk"], "disk.disk",
                  ("read_block", "write_block", "snapshot", "restore",
                   "peek", "peek_view", "poke", "dirty_items"),
                  post={"read_block": disk_io_post("reads", "bytes_read"),
                        "write_block": disk_io_post("writes", "bytes_written"),
                        "snapshot": counted("snapshots"),
                        "restore": counted("restores")},
                  pre={"read_block": clock_pre, "write_block": clock_pre})

    # disk.recorder: crash-engine write capture.
    def recorder_pre(rec, _args):
        return rec.recorded

    def recorder_post(before, rec, _args, _result):
        count("disk.recorder", "writes_recorded", rec.recorded - before)

    _wrap_methods(inst, ledger, m["WriteRecorder"], "disk.recorder",
                  ("write_block",), post={"write_block": recorder_post},
                  pre={"write_block": recorder_pre})

    # redundancy.array: logical I/O, degraded paths, scrub, rebuild.
    def array_pre(array, _args):
        return array.degraded_reads, array.read_repairs

    def array_io_post(before, array, _args, _result):
        count(ARRAY, "logical_ios")
        count(ARRAY, "degraded_reads", array.degraded_reads - before[0])
        count(ARRAY, "read_repairs", array.read_repairs - before[1])

    def scrub_post(_state, _array, _args, report):
        count(ARRAY, "scrub_blocks", report.blocks_scanned)

    def rebuild_post(_state, _array, _args, rebuilt):
        count(ARRAY, "rebuilt_blocks", rebuilt)

    _wrap_methods(inst, ledger, m["ArrayDevice"], ARRAY,
                  ("read_block", "write_block", "snapshot", "restore",
                   "peek", "poke", "dirty_items", "scrub",
                   "rebuild_member"),
                  post={"read_block": array_io_post,
                        "write_block": array_io_post,
                        "scrub": scrub_post,
                        "rebuild_member": rebuild_post},
                  pre={"read_block": array_pre, "write_block": array_pre})

    # obs.events: the shared typed-event stream.
    def emit_pre(log, _args):
        return log.dropped

    def emit_post(before, log, _args, _result):
        count("obs.events", "emitted")
        count("obs.events", "evicted", log.dropped - before)

    _wrap_methods(inst, ledger, m["EventLog"], "obs.events", ("emit",),
                  post={"emit": emit_post}, pre={"emit": emit_pre})

    # The rest of the observability stack.
    _wrap_methods(inst, ledger, m["Tracer"], "obs.trace", ("start", "end"))

    def sampled(_state, _rec, _args, _result):
        count("obs.timeseries", "samples")

    _wrap_methods(inst, ledger, m["FlightRecorder"], "obs.timeseries",
                  ("sample", "binned"), post={"sample": sampled})
    _wrap_methods(inst, ledger, m["TimeSeries"], "obs.timeseries",
                  ("observe", "observe_track", "merge"))
    _wrap_methods(inst, ledger, m["MetricsRegistry"], "obs.metrics",
                  ("counter", "gauge", "histogram", "timeseries",
                   "timeseries_from_entry", "merge", "snapshot"))
    pm = m["postmortem_mod"]

    def incident(_args, _kwargs, _result):
        count("obs.postmortem", "incidents")

    _wrap_function(inst, pm.build_incident, _function(
        ledger, "obs.postmortem", pm.build_incident, incident))
    _wrap_function(inst, pm.fold_incidents, _function(
        ledger, "obs.postmortem", pm.fold_incidents))

    # fingerprint.harness / fingerprint.inference.
    harness = m["harness_mod"].Fingerprinter

    def run_counted(_state, _fp, _args, _result):
        count("fingerprint.harness", "runs")

    def golden_pre(fp, _args):
        return len(fp.adapter.golden_cache)

    def golden_post(before, fp, _args, _result):
        count("fingerprint.harness", "golden_builds",
              len(fp.adapter.golden_cache) - before)

    _wrap_methods(inst, ledger, harness, "fingerprint.harness",
                  ("run", "_run_workload", "_observe", "_golden", "_merge",
                   "_accessed_types", "_build_fault"),
                  post={"_observe": run_counted, "_golden": golden_post},
                  pre={"_golden": golden_pre})
    inf = m["inference_mod"]
    _wrap_function(inst, inf.infer_policy, _function(
        ledger, "fingerprint.inference", inf.infer_policy))

    # crash.engine: record, per-state apply, per-state check.
    ce = m["crash_mod"]

    def recorded(_args, _kwargs, rec):
        ledger.tally_recordings()
        ledger.recordings.append(rec)
        count("crash.engine", "recordings")

    def checked(_args, _kwargs, _obs):
        count("crash.engine", "states")

    _wrap_function(inst, ce.record, _function(
        ledger, "crash.engine.record", ce.record, recorded))
    _wrap_function(inst, ce.apply_state, _function(
        ledger, "crash.engine.apply", ce.apply_state))
    _wrap_function(inst, ce.check_state, _function(
        ledger, "crash.engine.check", ce.check_state, checked))

    # fleet.sim / fleet.campaign.
    sim = m["sim_mod"]

    def trial_done(_args, _kwargs, outcome):
        count("fleet.sim", "trials")
        count("fleet.sim", "events", outcome.events)

    _wrap_function(inst, sim.run_trial, _function(
        ledger, "fleet.sim", sim.run_trial, trial_done))
    camp = m["campaign_mod"]
    _wrap_function(inst, camp.run_fleet, _function(
        ledger, "fleet.campaign", camp.run_fleet))


# -- the worker pool --------------------------------------------------------------


def _tagged(worker: Callable, *args) -> Tuple[int, Any]:
    """Run one pool task and say which process ran it."""
    return os.getpid(), worker(*args)


class PoolCounter:
    """The parent's side of every ``pool_map`` fan-out: tasks, chunks
    submitted, time blocked, and the processes that ran the tasks."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.tasks = 0
        self.chunks = 0
        self.wait_s = 0.0
        self.pids: set = set()

    def install(self) -> Installation:
        import repro.common.pool as pool_mod

        pool_map = pool_mod.pool_map
        effective_jobs = pool_mod.effective_jobs

        def counted_pool_map(worker, arg_tuples, jobs, chunksize=1):
            tasks = [(worker,) + tuple(args) for args in arg_tuples]
            self.tasks += len(tasks)
            if effective_jobs(jobs) > 1 and len(tasks) > 1:
                self.chunks += -(-len(tasks) // max(1, chunksize))
            started = self.clock()
            try:
                tagged = pool_map(_tagged, tasks, jobs, chunksize)
            finally:
                self.wait_s += self.clock() - started
            self.pids.update(pid for pid, _ in tagged)
            return [result for _, result in tagged]

        inst = Installation()
        _wrap_function(inst, pool_map, counted_pool_map)
        return inst

    @property
    def workers(self) -> int:
        """Processes that ran tasks; 1 when nothing was fanned out."""
        return len(self.pids) or 1


def pool_report(counter: PoolCounter, wall_s: float) -> Dict[str, float]:
    """``common.pool.*`` of the pass *counter* watched, *wall_s* long."""
    return {
        "common.pool.tasks": counter.tasks,
        "common.pool.chunks": counter.chunks,
        "common.pool.workers_effective": counter.workers,
        "common.pool.wait_s": counter.wait_s,
        "common.pool.wait_pct": 100.0 * counter.wait_s / wall_s if wall_s else 0.0,
    }


# -- the report -------------------------------------------------------------------


def layer_report(ledger: Ledger, wall_s: float) -> Dict[str, float]:
    """Flatten *ledger* into ``layer.metric -> value`` for display.

    ``*_s`` entries are wall seconds and ``*_pct`` their share of
    *wall_s*; everything else is a deterministic count or a ratio of
    counts.
    """
    ledger.tally_recordings()
    out: Dict[str, float] = {}
    c = ledger.counters

    def pct(seconds: float) -> float:
        return 100.0 * seconds / wall_s if wall_s else 0.0

    def times(layer: str, key: str = "self", sources=None) -> None:
        value = sum(ledger.self_s.get(s, 0.0) for s in (sources or (layer,)))
        out[f"{layer}.{key}_s"] = value
        out[f"{layer}.{key}_pct"] = pct(value)

    for name in FS_NAMES:
        layer = "fs." + name
        out[f"{layer}.calls"] = ledger.calls.get(layer, 0)
        out[f"{layer}.errors"] = ledger.errors.get(layer, 0)
        times(layer)

    b = c["common.bitmap"]
    out["common.bitmap.find_free_calls"] = b["find_free_calls"]
    out["common.bitmap.bits_scanned"] = b["bits_scanned"]
    times("common.bitmap")

    out["common.checksum.bytes_hashed"] = c["common.checksum"]["bytes_hashed"]
    times("common.checksum")

    k = c["disk.cache"]
    out["disk.cache.reads"] = k["reads"]
    out["disk.cache.hits"] = k["hits"]
    out["disk.cache.hit_ratio"] = k["hits"] / k["reads"] if k["reads"] else 0.0
    out["disk.cache.evictions"] = k["evictions"]
    times("disk.cache")

    i = c["disk.injector"]
    out["disk.injector.requests"] = i["requests"]
    out["disk.injector.faults_scanned"] = i["faults_scanned"]
    out["disk.injector.faults_fired"] = i["faults_fired"]
    times("disk.injector")

    d = c["disk.disk"]
    for key in ("reads", "writes", "bytes_read", "bytes_written",
                "snapshots", "restores"):
        out[f"disk.disk.{key}"] = d[key]
    out["disk.disk.virtual_busy"] = d["virtual_busy_ns"] / 1e9
    times("disk.disk")

    out["disk.recorder.writes_recorded"] = c["disk.recorder"]["writes_recorded"]
    times("disk.recorder")

    a = c[ARRAY]
    for key in ("logical_ios", "member_ios"):
        out[f"{ARRAY}.{key}"] = a[key]
    out[f"{ARRAY}.member_ios_per_logical"] = (
        a["member_ios"] / a["logical_ios"] if a["logical_ios"] else 0.0)
    for key in ("degraded_reads", "read_repairs", "scrub_blocks",
                "rebuilt_blocks"):
        out[f"{ARRAY}.{key}"] = a[key]
    times(ARRAY)

    e = c["obs.events"]
    out["obs.events.emitted"] = e["emitted"]
    out["obs.events.evicted"] = e["evicted"]
    times("obs.events")
    out["obs.trace.calls"] = ledger.calls.get("obs.trace", 0)
    times("obs.trace")
    out["obs.timeseries.samples"] = c["obs.timeseries"]["samples"]
    times("obs.timeseries")
    out["obs.postmortem.incidents"] = c["obs.postmortem"]["incidents"]
    times("obs.postmortem")
    out["obs.metrics.calls"] = ledger.calls.get("obs.metrics", 0)
    times("obs.metrics")

    h = c["fingerprint.harness"]
    out["fingerprint.harness.runs"] = h["runs"]
    out["fingerprint.harness.golden_builds"] = h["golden_builds"]
    times("fingerprint.harness")
    out["fingerprint.inference.calls"] = ledger.calls.get(
        "fingerprint.inference", 0)
    times("fingerprint.inference")

    ce = c["crash.engine"]
    states = ce["states"]
    out["crash.engine.recordings"] = ce["recordings"]
    out["crash.engine.states"] = states
    for key, sub in (("record", "crash.engine.record"),
                     ("apply", "crash.engine.apply")):
        out[f"crash.engine.{key}_s"] = ledger.total_s.get(sub, 0.0)
        out[f"crash.engine.{key}_pct"] = pct(out[f"crash.engine.{key}_s"])
    times("crash.engine", "check_self", ("crash.engine.check",))
    times("crash.engine", sources=CRASH_SUBLAYERS)
    for memo in ("digest", "fsck", "walk"):
        entries = ledger.memo_entries.get(f"{memo}_memo", 0)
        out[f"crash.engine.{memo}_memo_hit_ratio"] = (
            (states - entries) / states if states else 0.0)

    f = c["fleet.sim"]
    out["fleet.sim.trials"] = f["trials"]
    out["fleet.sim.events_per_trial"] = (
        f["events"] / f["trials"] if f["trials"] else 0.0)
    times("fleet.sim")
    times("fleet.campaign", "merge_self")

    accounted = sum(ledger.self_s.values())
    out["trace.unattributed_s"] = max(0.0, wall_s - accounted)
    out["trace.unattributed_pct"] = pct(out["trace.unattributed_s"])
    return out


def is_wall_time(name: str) -> bool:
    """Wall-clock entries vary run to run; everything else must not."""
    return name.endswith(("_s", "_pct"))
