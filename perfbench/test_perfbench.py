"""Self-tests of the benchmark.  Run from the repository root::

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import ledger as ledger_mod  # noqa: E402
import run as run_mod  # noqa: E402
import workloads as wl  # noqa: E402
from ledger import Ledger, PoolCounter, install, layer_report  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_subtracts_children_and_counts_same_layer_once():
    clock = FakeClock()
    ledger = Ledger(clock=clock, keep_spans=True)

    def disk_inner():
        clock.advance(1.0)

    def disk():
        clock.advance(2.0)
        # A nested call into the layer already open is part of its span.
        ledger.span("disk.disk", disk_inner, (), {})

    def injector():
        clock.advance(3.0)
        ledger.span("disk.disk", disk, (), {})

    def array():
        clock.advance(4.0)
        ledger.span("disk.injector", injector, (), {})
        clock.advance(0.5)

    ledger.span("redundancy.array", array, (), {})

    assert ledger.self_s["redundancy.array"] == pytest.approx(4.5)
    assert ledger.self_s["disk.injector"] == pytest.approx(3.0)
    assert ledger.self_s["disk.disk"] == pytest.approx(3.0)
    assert sum(ledger.self_s.values()) == pytest.approx(clock.now)
    assert ledger.calls["disk.disk"] == 1
    assert [s[0] for s in ledger.spans] == [
        "redundancy.array", "disk.injector", "disk.disk"]
    # parents: the array is the root, the disk's parent is the injector
    assert [s[3] for s in ledger.spans] == [-1, 0, 1]
    report = layer_report(ledger, clock.now)
    assert report["trace.unattributed_s"] == pytest.approx(0.0)
    assert report["redundancy.array.self_pct"] == pytest.approx(100 * 4.5 / 10.5)


def test_a_raising_span_is_closed_and_counted_as_an_error():
    clock = FakeClock()
    ledger = Ledger(clock=clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("injected")

    with pytest.raises(ValueError):
        ledger.span("fs.ext3", boom, (), {})
    assert ledger.stack == []
    assert ledger.errors["fs.ext3"] == 1
    assert ledger.self_s["fs.ext3"] == pytest.approx(1.0)


def test_wrappers_exist_only_while_installed():
    from repro.common import checksum
    from repro.disk.disk import SimulatedDisk
    from repro.fs.ixt3 import features

    originals = {
        "read_block": SimulatedDisk.__dict__["read_block"],
        "sha1": checksum.sha1,
    }
    installation = install(Ledger())
    try:
        assert SimulatedDisk.__dict__["read_block"] is not originals["read_block"]
        assert features.sha1 is not originals["sha1"]
        patched = list(installation.patches)
        assert len(patched) > 50
    finally:
        installation.remove()
    assert SimulatedDisk.__dict__["read_block"] is originals["read_block"]
    assert features.sha1 is originals["sha1"]
    assert checksum.sha1 is originals["sha1"]
    for owner, name, original in patched:
        assert owner.__dict__[name] is original


def test_nested_checksum_calls_hash_their_bytes_once():
    from repro.common import checksum

    ledger = Ledger()
    installation = install(ledger)
    try:
        checksum.crc32_bytes(b"x" * 100)   # calls crc32 inside
        checksum.verify_sha1(b"y" * 50, b"")  # calls sha1 inside
    finally:
        installation.remove()
    assert ledger.counters["common.checksum"]["bytes_hashed"] == 150
    assert ledger.calls["common.checksum"] == 2


def test_layer_counters_at_the_cache_and_disk():
    from repro.disk.stack import DeviceStack

    ledger = Ledger()
    installation = install(ledger)
    try:
        stack = DeviceStack.build(16, 512, cache_blocks=2)
        for block in (0, 1, 0, 2, 3, 0):
            stack.read_block(block)
        stack.write_block(5, b"\x01" * 512)
    finally:
        installation.remove()
    report = layer_report(ledger, 1.0)
    assert report["disk.cache.reads"] == 6
    assert report["disk.cache.hits"] == 1
    # misses insert 0,1,2,3,0 and the write inserts 5 into two slots
    assert report["disk.cache.evictions"] == 4
    assert report["disk.disk.reads"] == 5
    assert report["disk.disk.writes"] == 1
    assert report["disk.disk.bytes_written"] == 512


def test_a_raising_unit_fails_alone_and_the_pass_goes_on():
    workload = wl.CrashWorkload()
    workload.prepare(0)
    workload.profiles = ["jfs"]
    workload.workloads = {"rename": workload.workloads["rename"]}
    engine = workload.engine
    calls = []

    class Engine:
        def __getattr__(self, name):
            return getattr(engine, name)

        def check_state(self, rec, state):
            calls.append(state.key)
            if len(calls) == 2:
                raise RuntimeError("injected unit failure")
            return engine.check_state(rec, state)

    workload.engine = Engine()
    result = workload.run_pass()
    expected = workload.reference["jfs/rename"]["states"]
    assert len(calls) == result.units == expected
    assert result.failed >= 1
    assert len(result.latencies_ms) == expected - 1
    assert any("injected unit failure" in p for p in result.problems)


def test_failed_units_reach_the_result_line(capsys):
    class Flaky:
        name = "flaky"
        latency = "per unit"
        jobs = 1

    result = wl.PassResult(io_bytes=1024)
    for _ in range(9):
        result.unit(result.lap())
    result.lap()
    result.units += 1
    result.fail("one unit raised", 1)
    run = {"passes": [dataclasses.asdict(result)], "elapsed_s": 0.01,
           "effective_jobs": 1, "peak_rss_mb": 10.0}
    run_mod.report_untraced(Flaky(), [(0.1, 0.004)], [run])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] is False
    assert (line["attempted"], line["failed"]) == (10, 1)
    assert line["metrics"]["peak_rss_mb"]["value"] == 10.0


def test_fingerprint_runs_split_by_device_builds():
    workload = wl.FingerprintWorkload()
    workload.prepare(0)
    result = wl.PassResult()
    workload._run_fs("ext3", result)
    observed = result.observed["ext3"]
    assert result.problems == []
    assert observed["runs"] == observed["tests_run"] + 20  # one baseline each
    assert len(result.latencies_ms) == observed["runs"]


def test_vfs_ops_are_a_function_of_the_seed():
    a = wl.make_vfs_ops(3, 1024)
    b = wl.make_vfs_ops(3, 1024)
    c = wl.make_vfs_ops(4, 1024)
    assert a == b
    assert a[0] != c[0]
    ops, dirs, expected, user = a
    assert user > 3 * 2 ** 20
    live = sum(len(v) for k, v in expected.items() if k.startswith("/pm"))
    assert live > wl.VFS_CACHE_BLOCKS * 1024  # the live set outgrows the cache


def test_vfs_pass_checks_durability(monkeypatch):
    monkeypatch.setattr(wl, "PM_FILES", 12)
    monkeypatch.setattr(wl, "PM_ROUNDS", 10)
    workload = wl.VFSMixWorkload()
    workload.prepare(1)
    result = workload.run_pass()
    assert (result.failed, result.problems) == (0, [])
    assert result.medium_written > result.user_written > 0
    # A wrong expectation is caught by the remount check.
    path = next(p for p in workload.expected if p.startswith("/pm"))
    workload.expected[path] += b"!"
    result = workload.run_pass()
    assert result.failed == result.units
    assert any("content differs" in p for p in result.problems)


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run_mod.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run_mod.per_layer_units()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(wl.WORKLOADS)


def test_wall_time_names():
    assert ledger_mod.is_wall_time("disk.disk.self_s")
    assert ledger_mod.is_wall_time("disk.disk.self_pct")
    assert not ledger_mod.is_wall_time("disk.disk.reads")


def test_pool_counter_sees_tasks_chunks_and_the_processes_that_ran_them():
    from repro.common import pool

    original = pool.pool_map
    counter = PoolCounter()
    installation = counter.install()
    try:
        assert pool.pool_map is not original
        tasks = [(x, 2) for x in range(10)]
        assert pool.pool_map(pow, tasks, 1) == [x * x for x in range(10)]
        assert (counter.tasks, counter.chunks, counter.workers) == (10, 0, 1)
        assert counter.pids == {os.getpid()}
        if pool.effective_jobs(2) > 1:
            assert pool.pool_map(pow, tasks, 2, chunksize=3) == [
                x * x for x in range(10)]
            assert (counter.tasks, counter.chunks) == (20, 4)
            assert 2 <= len(counter.pids) <= 3  # this process, 1-2 workers
    finally:
        installation.remove()
        pool.shutdown_pool()
    assert pool.pool_map is original
    report = ledger_mod.pool_report(counter, 2.0)
    assert report["common.pool.tasks"] == counter.tasks
    assert report["common.pool.wait_pct"] == pytest.approx(50.0 * counter.wait_s)


def fake_pass(laps, latencies_ms, host_laps=(), host_latencies_ms=()):
    result = wl.PassResult(units=len(latencies_ms), laps=laps,
                           host_laps=list(host_laps))
    result.latencies_ms = latencies_ms
    result.host_latencies_ms = list(host_latencies_ms)
    return result


def test_each_lap_and_unit_counts_at_its_fastest_repetition():
    passes = [fake_pass([1.0, 3.0], [10.0, 30.0]),
              fake_pass([2.0, 1.0], [20.0, 20.0]),
              fake_pass([1.5, 2.0], [15.0, 25.0])]
    rate, latencies = run_mod.across_passes(passes, min)
    assert rate == pytest.approx(2 / (1.0 + 1.0))
    assert latencies == [10.0, 20.0]
    # A pass with other laps (a unit raised) pools the run instead.
    passes.append(fake_pass([4.0], [40.0]))
    rate, latencies = run_mod.across_passes(passes, min)
    assert rate == pytest.approx(7 / 14.5)
    assert sorted(latencies) == [10.0, 15.0, 20.0, 20.0, 25.0, 30.0, 40.0]


def test_normalized_laps_count_at_their_median_repetition():
    passes = [fake_pass([9.0, 9.0], [90.0, 90.0], [1.0, 3.0], [10.0, 30.0]),
              fake_pass([9.0, 9.0], [90.0, 90.0], [2.0, 1.0], [20.0, 20.0]),
              fake_pass([9.0, 9.0], [90.0, 90.0], [1.5, 2.0], [15.0, 25.0])]
    rate, latencies = run_mod.across_passes(
        passes, run_mod.statistics.median, normalized=True)
    assert rate == pytest.approx(2 / (1.5 + 2.0))
    assert latencies == [15.0, 25.0]


def test_laps_are_normalized_by_the_probe_in_effect(monkeypatch):
    from calibrate import PROBE_FLOOR_S

    clock = FakeClock()
    monkeypatch.setattr(wl, "clock", clock)
    speeds = iter([2.0] * wl.PASS_PROBES + [1.0] * 10)
    monkeypatch.setattr(wl, "probe", lambda: PROBE_FLOOR_S * next(speeds))
    result = wl.PassResult()
    clock.advance(0.3)  # host at half speed: the lap counts half
    result.unit(result.lap())
    assert result.host_laps == pytest.approx([0.15])
    assert result.host_latencies_ms == pytest.approx([150.0])
    # A probe followed that lap; the faster of the last two now holds.
    clock.advance(0.1)
    result.lap()
    assert result.host_laps[-1] == pytest.approx(0.1)


def test_host_factor_follows_the_fastest_probe():
    from calibrate import PROBE_FLOOR_S, host_factor

    assert host_factor([PROBE_FLOOR_S * 2, PROBE_FLOOR_S * 9]) == pytest.approx(0.5)
    assert host_factor([PROBE_FLOOR_S]) == pytest.approx(1.0)


def test_passes_probe_between_laps_outside_them(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(wl, "clock", clock)

    def probe():
        clock.advance(0.01)
        return 0.01

    monkeypatch.setattr(wl, "probe", probe)
    result = wl.PassResult()
    assert len(result.probes) == wl.PASS_PROBES
    for _ in range(3):
        clock.advance(0.15)
        result.lap()
    assert result.laps == pytest.approx([0.15] * 3)
    # one more probe, after the second lap crossed PROBE_EVERY_S
    assert len(result.probes) == wl.PASS_PROBES + 1
    assert result.probe_s == pytest.approx(0.01 * len(result.probes))


def test_busy_workers_counts_children_that_used_cpu():
    assert run_mod.busy_workers({}, {}) == 1
    assert run_mod.busy_workers({10: 5, 11: 7}, {10: 9, 11: 7}) == 1
    assert run_mod.busy_workers({10: 5, 11: 7}, {10: 9, 11: 8, 12: 3}) == 3


def test_a_child_leaves_no_process_behind():
    # The child exits at once and leaves a grandchild running, as a
    # pool's helper process would.
    done = run_mod.run_child(
        ["sh", "-c", "sleep 30 >/dev/null 2>&1 & echo $!"], timeout=10)
    assert done.returncode == 0
    grandchild = int(done.stdout.split()[-1])
    with pytest.raises(ProcessLookupError):
        os.kill(grandchild, 0)


def test_a_child_that_times_out_is_killed_with_its_group():
    with pytest.raises(run_mod.subprocess.TimeoutExpired):
        run_mod.run_child(["sh", "-c", "sleep 37 & sleep 38"], timeout=0.5)
    leftovers = [line for line in os.popen("ps -eo args").read().splitlines()
                 if line in ("sleep 37", "sleep 38")]
    assert not leftovers


def test_stopping_helpers_ends_the_resource_tracker():
    done = run_mod.run_child([sys.executable, "-c", (
        "import sys; sys.path.insert(0, %r)\n"
        "from multiprocessing import resource_tracker as r\n"
        "import run\n"
        "r.ensure_running(); pid = r._resource_tracker._pid\n"
        "run.stop_helpers(); print(pid)\n"
        "import os\n"
        "try:\n"
        "    os.kill(pid, 0)\n"
        "except ProcessLookupError:\n"
        "    print('gone')\n") % str(HERE)], timeout=30)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-1] == "gone"


def test_a_terminated_run_stops_its_children(tmp_path):
    leader = tmp_path / "leader"
    script = (
        "import signal, sys\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "import run\n"
        "signal.signal(signal.SIGTERM, run.exit_on_signal)\n"
        f"run.run_child(['sh', '-c', 'echo $$ > {leader}; sleep 39'], timeout=60)\n")
    parent = run_mod.subprocess.Popen([sys.executable, "-c", script])
    for _ in range(500):
        if leader.is_file() and leader.read_text().strip():
            break
        run_mod.time.sleep(0.01)
    group = int(leader.read_text())
    parent.terminate()
    assert parent.wait(timeout=30) == 128 + run_mod.signal.SIGTERM
    with pytest.raises(ProcessLookupError):
        os.killpg(group, 0)
