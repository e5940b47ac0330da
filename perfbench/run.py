#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fingerprint --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload, both modes

``--trace 0`` measures the unmodified program for about ``--seconds``.
The workload repeats identical passes in a few fresh interpreters, each
pass timed in laps (one per unit, plus the work between units), with
host-speed probes (``calibrate.py``) between laps.  The shared host
switches between speeds, often twofold, from one second to the next and
for minutes at a time, so every time is *normalized*: multiplied by the
fixed probe time over the time of a probe taken on the host in the same
state.

* A workload that ran in one process (no pool worker was busy)
  normalizes each lap and unit latency by the probe in effect as it
  began (the faster of the last two), and counts it at the median of
  its repetitions.
* A workload whose units run in pool workers, on every CPU, is not
  followed by probes taken in this process between its laps.  Each lap
  and unit latency counts at the fastest of its repetitions (the
  host's neighbours only ever slow a repetition down), all multiplied
  by the factor of the run's fastest probe.

``units_per_s`` is units over the sum of those laps, and ``op_p50_ms``
and ``op_p95_ms`` are percentiles of those unit latencies.  (A 99th
percentile, over the 16 slowest of 1,622 crash states, swung by more
than a quarter from run to run on the 2-CPU host, however taken.)
``setup_s`` is the median of several set-ups, each in a fresh
interpreter and normalized by probes it takes just before.
The raw wall-clock figures are printed alongside.

``--trace 1`` runs one pass at the workload's own pool width with only
the pool counted, one pass untraced in-process, then the same pass
twice with every layer wrapped (see ``ledger.py``).  It prints the
per-layer ledger and the tracing overhead, and checks that every layer
counter repeats exactly.

Human-readable lines come first; the last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import time

_STARTED = time.perf_counter()  # set-up probes time imports from here

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from calibrate import host_factor  # noqa: E402

#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_PROBES = 11
#: Host-speed probes each set-up interpreter takes just before set-up.
SETUP_HOST_PROBES = 5
#: Fresh interpreters a run's passes are split across.  Each process
#: lays out its objects afresh, and that alone can make every state of
#: one crash exploration half again as slow in one process as in the
#: next, on every pass.
PASS_PROCESSES = 3
#: Traced repetitions of the fixed slice (counters must agree).
TRACED_REPS = 2

END_TO_END = {
    "units_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "io_kib_per_unit": "KiB",
}


def per_layer_units() -> dict:
    """The per-layer metrics ``--trace 1`` reports, with their units."""
    from ledger import Ledger, PoolCounter, is_wall_time, layer_report, pool_report

    units = {}
    names = list(layer_report(Ledger(), 1.0)) + list(pool_report(PoolCounter(), 1.0))
    for name in names:
        if name.endswith("_pct"):
            units[name] = "%"
        elif name.endswith(("bytes_read", "bytes_written", "bytes_hashed")):
            units[name] = "B"
        elif name.endswith(("_ratio", "_per_logical")):
            units[name] = "ratio"
        elif not is_wall_time(name):
            units[name] = "count"
    units["disk.disk.virtual_busy"] = "virtual-s"
    units["fleet.sim.events_per_trial"] = "1/trial"
    units["vfs.write_amp"] = "B/B"
    units["trace.overhead_x"] = "x"
    return units


def quantile(values, q: int) -> float:
    """The *q*-th percentile (1..99) of *values* (0.0 when empty)."""
    if len(values) <= 1:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live workers."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            status = Path(f"/proc/{child.pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                kib += int(line.split()[1])
    return kib / 1024.0


def worker_cpu() -> dict:
    """CPU clock ticks used so far by each live child process."""
    ticks = {}
    for child in multiprocessing.active_children():
        try:
            stat = Path(f"/proc/{child.pid}/stat").read_text()
        except OSError:
            continue
        fields = stat.rpartition(")")[2].split()
        ticks[child.pid] = int(fields[11]) + int(fields[12])  # utime + stime
    return ticks


def busy_workers(before: dict, after: dict) -> int:
    """Child processes that used CPU between two :func:`worker_cpu`
    readings; 1 (this process alone) when none did."""
    return sum(1 for pid, t in after.items() if t > before.get(pid, 0)) or 1


def host_line(jobs: int, effective_jobs: int) -> str:
    return (f"host: cpu_count={os.cpu_count()} "
            f"python={platform.python_version()} jobs={jobs} "
            f"effective_jobs={effective_jobs}")


def run_child(command, timeout: float) -> subprocess.CompletedProcess:
    """Run *command* in a process group of its own and wait for it.

    Whatever way this returns, no process of that group is left: on a
    timeout or an interruption the whole group (the child, its pool
    workers and helpers) is killed, and this waits until it is gone.
    """
    child = subprocess.Popen(command, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, stderr = child.communicate(timeout=timeout)
    except BaseException:
        kill_group(child)
        raise
    # A clean exit stops its own helpers; anything left is killed too.
    kill_group(child)
    return subprocess.CompletedProcess(command, child.returncode, stdout, stderr)


def kill_group(child: subprocess.Popen) -> None:
    """Kill what is left of *child*'s process group and wait until the
    group is empty (orphans are reaped by init)."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.wait()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def stop_helpers() -> None:
    """Stop the resource-tracker process multiprocessing starts beside a
    pool (or a shared-memory segment), and wait for it; left alone it
    outlives this process by a moment.  Pool workers must be gone first."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def exit_on_signal(signum, frame) -> None:
    """Turn a request to terminate into an exit, so that every
    ``finally`` runs: child process groups and pool workers are stopped
    and waited for on this path too."""
    sys.exit(128 + signum)


def check_child(done: subprocess.CompletedProcess) -> str:
    """*done*'s standard output; raises if it failed."""
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise subprocess.CalledProcessError(done.returncode, done.args,
                                            done.stdout, done.stderr)
    return done.stdout


def setup_probe(args) -> int:
    """Child mode: import, construct, generate inputs, warm the pool;
    print the seconds that took in this fresh interpreter, and the
    fastest of the host-speed probes taken just before."""
    from calibrate import probe
    from workloads import WORKLOADS

    # Not after: once a pool has forked, this process's first write to
    # each of its pages copies the page, which slows a probe but says
    # nothing of the host.  The probes' own time is not set-up time.
    probed = time.perf_counter()
    host = min(probe() for _ in range(SETUP_HOST_PROBES))
    probe_s = time.perf_counter() - probed
    workload = WORKLOADS[args.workload]()
    try:
        workload.prepare(args.seed)
        seconds = time.perf_counter() - _STARTED - probe_s
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()
        stop_helpers()
    print(json.dumps([seconds, host]))
    return 0


def measure_setup(args) -> list:
    """``(seconds, fastest host probe)`` of ``SETUP_PROBES`` set-ups,
    each in a fresh interpreter."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        stdout = check_child(run_child(command, timeout=120))
        samples.append(tuple(json.loads(stdout.strip().splitlines()[-1])))
    return samples


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def pass_rate(result) -> float:
    return result.units / result.wall_s if result.wall_s else 0.0


def across_passes(passes, agg, normalized: bool = False):
    """``(units_per_s, unit latencies in ms)`` of a run, each lap and unit
    at *agg* (``min`` or a median) of its repetitions; with *normalized*,
    of its laps and latencies each normalized by its own host probe.
    Passes that did not repeat the same laps (a unit raised) are pooled
    instead."""
    def laps(r):
        return r.host_laps if normalized else r.laps

    def latencies(r):
        return r.host_latencies_ms if normalized else r.latencies_ms

    first = passes[0]
    shape = (len(laps(first)), len(latencies(first)))
    if any((len(laps(r)), len(latencies(r))) != shape for r in passes):
        wall = sum(sum(laps(r)) for r in passes)
        return (sum(r.units for r in passes) / wall if wall else 0.0,
                [x for r in passes for x in latencies(r)])
    wall = sum(map(agg, zip(*map(laps, passes))))
    return (first.units / wall if wall else 0.0,
            list(map(agg, zip(*map(latencies, passes)))))


def report_problems(passes) -> bool:
    problems = [p for r in passes for p in r.problems]
    if any(r.observed != passes[0].observed for r in passes):
        problems.append("outputs differ between repetitions of the same pass")
    for problem in problems[:10]:
        print(f"  problem: {problem}")
    return not problems


def run_passes(workload, args) -> int:
    """Child mode: set up, then run ``--passes`` passes; print them, with
    this process's peak memory and pool width, as one JSON line."""
    workload.prepare(args.seed)
    warm = getattr(workload, "warm", None)
    if warm is not None:
        warm()
    cpu = worker_cpu()
    passes = []
    started = time.perf_counter()
    for index in range(args.passes):
        passes.append(workload.run_pass(index))
        # Free the pass's volumes now, so peak memory is one pass's.
        gc.collect()
    print(json.dumps({
        "passes": [dataclasses.asdict(r) for r in passes],
        "elapsed_s": time.perf_counter() - started,
        "effective_jobs": busy_workers(cpu, worker_cpu()),
        "peak_rss_mb": peak_rss_mb(),
    }))
    return 0


def measure_passes(workload, args) -> list:
    """The output of ``PASS_PROCESSES`` :func:`run_passes` children that
    together take about ``--seconds`` on the reference host.  A run's
    pass count depends on ``--seconds`` alone: the fastest of N
    repetitions reads lower the larger N is."""
    passes = max(1, round(args.seconds / PASS_PROCESSES / workload.pass_s))
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--passes", str(passes)]
    runs = []
    for _ in range(PASS_PROCESSES):
        stdout = check_child(run_child(command, timeout=170))
        runs.append(json.loads(stdout.strip().splitlines()[-1]))
    return runs


def run_untraced(workload, args) -> int:
    return report_untraced(workload, measure_setup(args),
                           measure_passes(workload, args))


def report_untraced(workload, setup: list, runs: list) -> int:
    passes = [SimpleNamespace(wall_s=sum(r["laps"]), **r)
              for run in runs for r in run["passes"]]
    attempted = sum(r.units for r in passes)
    failed = min(attempted, sum(r.failed for r in passes))
    correct = report_problems(passes) and failed == 0
    raw_rate, raw_latencies = across_passes(passes, min)
    factor = host_factor(p for r in passes for p in r.probes)
    width = max(run["effective_jobs"] for run in runs)
    if width == 1:
        # The laps ran in this process, between its probes.
        rate, latencies = across_passes(passes, statistics.median, normalized=True)
        how = "each lap by its own probe, median of repetitions"
    else:
        # The laps ran in pool workers, on every CPU, which probes taken
        # between laps in this process do not follow.
        rate, latencies = raw_rate / factor, [x * factor for x in raw_latencies]
        how = f"fastest repetitions, by the run's fastest probe: {factor:.3f}x"
    values = {
        "units_per_s": rate,
        "op_p50_ms": quantile(latencies, 50),
        "op_p95_ms": quantile(latencies, 95),
        "setup_s": statistics.median(s * host_factor([p]) for s, p in setup),
        "peak_rss_mb": max(run["peak_rss_mb"] for run in runs),
        "io_kib_per_unit": sum(r.io_bytes for r in passes) / max(1, attempted) / 1024.0,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    print(host_line(workload.jobs, width))
    print(f"passes: {[len(run['passes']) for run in runs]} in "
          f"{[round(run['elapsed_s'], 2) for run in runs]} s, "
          f"{[round(pass_rate(r), 3) for r in passes]} units/s each; "
          f"normalized {how}")
    print(f"raw wall-clock: {raw_rate:.4f} units/s, op_p50 "
          f"{quantile(raw_latencies, 50):.4f} ms, op_p95 "
          f"{quantile(raw_latencies, 95):.4f} ms, set-up samples "
          f"{[round(s, 4) for s, _ in setup]} s")
    for name, (value, unit) in metrics.items():
        note = ""
        if name.startswith("op_"):
            note = f"  (n={len(latencies)}, {workload.latency})"
        print(f"  {name:16} {value:12.4f} {unit}{note}")
    print(f"  {'failed_ratio':16} {failed / max(1, attempted):12.4f}"
          f"  ({failed}/{attempted})")
    written = sum(r.medium_written for r in passes)
    if written:
        user = sum(r.user_written for r in passes)
        print(f"  {'write_amp':16} {written / user:12.4f} B/B"
              f"  (medium bytes written per client byte written)")
    emit(correct, attempted, failed, metrics)
    return 0


def run_traced(workload, args) -> int:
    from ledger import (Ledger, PoolCounter, install, is_wall_time,
                        layer_report, pool_report)

    traced = getattr(workload, "traced", None)
    if traced is not None:
        traced()
    workload.prepare(args.seed)
    warm = getattr(workload, "warm", None)
    if warm is not None:
        warm()
    jobs = workload.jobs
    counter = PoolCounter()
    installation = counter.install()
    try:
        pooled = workload.run_pass(0)
    finally:
        installation.remove()
    # Spans see only this process: every traced pass runs in-process,
    # against an untraced in-process pass for the overhead.
    workload.jobs = 1
    base = pooled if jobs == 1 else workload.run_pass(0)
    reps = []
    for _ in range(TRACED_REPS):
        ledger = Ledger()
        installation = install(ledger)
        started = time.perf_counter()
        try:
            result = workload.run_pass(0)
        finally:
            installation.remove()
        # Shares are of the whole slice, output checks included.
        wall = time.perf_counter() - started - result.probe_s
        reps.append((result, layer_report(ledger, wall)))

    passes = [pooled] + ([] if base is pooled else [base]) + [r for r, _ in reps]
    attempted = sum(r.units for r in passes)
    failed = min(attempted, sum(r.failed for r in passes))
    correct = report_problems(passes) and failed == 0
    first = reps[0][1]
    drift = [name for name in first if not is_wall_time(name)
             and any(rep[name] != first[name] for _, rep in reps[1:])]
    for name in drift:
        print(f"  problem: counter {name} differs across traced runs: "
              f"{[rep[name] for _, rep in reps]}")
    correct = correct and not drift

    overhead = pass_rate(base) / statistics.median(pass_rate(r) for r, _ in reps)
    print(host_line(jobs, counter.workers))
    print(f"slice: {base.units} units; at jobs={jobs} {pooled.wall_s:.3f} s; "
          f"in-process untraced {base.wall_s:.3f} s, traced "
          f"{[round(r.wall_s, 3) for r, _ in reps]} s; "
          f"tracing overhead {overhead:.2f}x")
    print("per-layer ledger (self time, share of traced wall, counters; "
          f"common.pool from the jobs={jobs} pass):")
    layers = dict(first)
    for name in first:
        if is_wall_time(name):
            layers[name] = statistics.median(rep[name] for _, rep in reps)
    layers.update(pool_report(counter, pooled.wall_s))
    units = per_layer_units()
    metrics = {}
    for name, value in layers.items():
        if name in units:
            metrics[name] = (value, units[name])
        if value:
            print(f"  {name:44} {value:14.6g}")
    written = reps[0][0].medium_written
    metrics["vfs.write_amp"] = (
        written / reps[0][0].user_written if written else 0.0, "B/B")
    metrics["trace.overhead_x"] = (overhead, "x")
    emit(correct, attempted, failed, metrics)
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            print(f"== {name} --trace {trace}", flush=True)
            done = run_child(command, timeout=900)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if done.returncode != 0 or not lines:
                print(done.stderr, file=sys.stderr)
                return done.returncode or 1
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--passes", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, exit_on_signal)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; pick from "
              f"{sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    print(f"perfbench {workload.name}: seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}; unit = {workload.unit}")
    try:
        if args.passes is not None:
            status = run_passes(workload, args)
        elif args.trace:
            status = run_traced(workload, args)
        else:
            status = run_untraced(workload, args)
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()
        stop_helpers()
    return status


if __name__ == "__main__":
    sys.exit(main())
