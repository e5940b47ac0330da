"""The four benchmark workloads, driven through the package's public
entry points.

Each workload builds its inputs in :meth:`prepare` (the set-up the
benchmark times separately), then runs *passes*: one pass is a fixed
batch of units whose every output the pass checks.  Every pass of a
run repeats the same units in the same order, timed in the same laps,
with host-speed probes (``calibrate.py``) between laps.  A unit that
raises or whose check fails counts as failed; the pass goes on.

* ``fingerprint`` — the §4 type-aware fault-injection matrix for the
  five file systems on single disks.  Unit: one observed run (a matrix
  cell or its fault-free baseline).
* ``crash`` — every crash profile × crash workload.  Unit: one crash
  state checked.
* ``fleet`` — one fleet campaign over all 21 cells through the
  persistent pool.  Unit: one trial.  Its per-unit latency is the
  campaign's wall time per trial: trials run inside pool workers.
* ``vfs_mix`` — PostMark-style small files plus TPC-B-style
  transactions through the VFS on ixt3 with every IRON feature, over a
  buffer cache smaller than the live set.  Unit: one client operation.

Functions of the program are always looked up through their module at
call time (``engine.check_state``), so the traced run's wrappers see
the benchmark's own calls too.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from calibrate import PROBE_FLOOR_S, probe

REFERENCE = Path(__file__).with_name("reference.json")

#: The seed the reference outputs were captured at.
DEFAULT_SEED = 0

#: Host-speed probes as a pass starts, and the least time between two
#: probes inside a pass.  Probes run between laps, outside them.
PASS_PROBES = 5
PROBE_EVERY_S = 0.2

FINGERPRINT_FS = ("ext3", "ixt3", "reiserfs", "jfs", "ntfs")

#: One fleet pass: one campaign of this many trials per cell (672
#: trials).  ``run_fleet`` hands the pool chunks of ``trials // 8``
#: trials (at most 16), so 32 trials per cell run the chunked path with
#: 4-trial chunks.  The committed campaign (``FleetSpec()``, 200 trials
#: per cell, 16-trial chunks) is too long to repeat within a run: at
#: two workers on a 2-CPU host, 128 trials per cell already take 28 s.
FLEET_TRIALS = 32
#: The repository's canonical fleet seed; a run with workload seed
#: ``s`` uses ``FLEET_BASE_SEED + s``.
FLEET_BASE_SEED = 20260807
FLEET_JOBS = 2

clock = time.perf_counter


def load_reference(section: str) -> Dict:
    """Outputs captured at the commit that defined the benchmark."""
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text()).get(section, {})


@dataclass
class PassResult:
    """What one pass did and how it went."""

    units: int = 0
    failed: int = 0
    #: One entry per unit, in the same order on every pass.
    latencies_ms: List[float] = field(default_factory=list)
    #: The same latencies, each normalized by the host probe in effect.
    host_latencies_ms: List[float] = field(default_factory=list)
    #: Wall seconds of the consecutive laps the pass is timed in: one
    #: per unit, plus the work between units.  Every pass of a run has
    #: the same laps unless a unit raised.
    laps: List[float] = field(default_factory=list)
    #: The same laps, each normalized by the host probe in effect: the
    #: faster of the last two probes before the lap began.
    host_laps: List[float] = field(default_factory=list)
    #: Host-speed probes taken during the pass, and their total time.
    probes: List[float] = field(default_factory=list)
    probe_s: float = 0.0
    #: Bytes read plus written at the medium (member disks for arrays).
    io_bytes: int = 0
    problems: List[str] = field(default_factory=list)
    #: Outputs the reference file is captured from.
    observed: Dict = field(default_factory=dict)
    #: vfs_mix: medium bytes written and client payload bytes written.
    medium_written: int = 0
    user_written: int = 0

    def __post_init__(self) -> None:
        for _ in range(PASS_PROBES):
            self._probe()
        self._lap_started = clock()

    def _probe(self) -> None:
        started = clock()
        self.probes.append(probe())
        self._host = min(self.probes[-2:])
        self._probed = clock()
        self.probe_s += self._probed - started

    @property
    def wall_s(self) -> float:
        return sum(self.laps)

    def lap(self) -> float:
        """Close the lap running since the last one; its seconds."""
        now = clock()
        seconds = now - self._lap_started
        self.laps.append(seconds)
        self.lap_host = self._host
        self.host_laps.append(seconds * PROBE_FLOOR_S / self._host)
        if now - self._probed >= PROBE_EVERY_S:
            self._probe()
            now = clock()
        self._lap_started = now
        return seconds

    def unit(self, latency_s: float, host_latency_s: float = None) -> None:
        """Count a unit of *latency_s* wall seconds; *host_latency_s* is
        it normalized, by default with the last lap's host probe."""
        if host_latency_s is None:
            host_latency_s = latency_s * PROBE_FLOOR_S / self.lap_host
        self.latencies_ms.append(latency_s * 1000.0)
        self.host_latencies_ms.append(host_latency_s * 1000.0)
        self.units += 1

    def fail(self, message: str, units: int = 0) -> None:
        self.problems.append(message)
        self.failed += units


def medium_stats(device):
    """Raw-medium traffic below *device*: member disks of an array,
    else the device's own stats."""
    merged = getattr(device, "merged_member_stats", None)
    return merged() if merged is not None else device.stats


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- fingerprint ------------------------------------------------------------------


class FingerprintWorkload:
    name = "fingerprint"
    unit = "fault-injection run (matrix cell or its fault-free baseline)"
    latency = "per run"
    #: Seconds one pass takes on the 2-CPU reference host.
    pass_s = 2.4
    jobs = 1

    def prepare(self, seed: int) -> None:
        from repro.fingerprint import adapters, harness
        from repro.taxonomy import render

        self.adapters = adapters
        self.harness = harness
        self.render = render
        self.reference = load_reference("fingerprint")

    def run_pass(self, index: int = 0) -> PassResult:
        result = PassResult()
        for fs in FINGERPRINT_FS:
            self._run_fs(fs, result)
        return result

    def _run_fs(self, fs: str, result: PassResult) -> None:
        adapter = self.adapters.ADAPTERS[fs]()
        build_device = adapter.build_device
        golden = adapter.golden_cache
        # Every observed run, and every golden-image build, starts by
        # building its device; a lap there splits the matrix into runs
        # without touching the harness.
        # (seconds since the previous build, normalized, golden images)
        laps = []

        def stamped_build_device():
            laps.append((result.lap(), result.host_laps[-1], len(golden)))
            return build_device()

        adapter.build_device = stamped_build_device
        expected = self.reference.get(fs, {})
        fp = self.harness.Fingerprinter(adapter, jobs=self.jobs)
        try:
            matrix = fp.run()
        except Exception as exc:  # a broken matrix fails all of its runs
            runs = expected.get("runs", 1)
            result.units += runs
            result.fail(f"{fs}: {type(exc).__name__}: {exc}", runs)
            result.lap()
            return
        laps.append((result.lap(), result.host_laps[-1], len(golden)))
        carried = host_carried = 0.0
        runs = 0
        for (_, _, cached0), (seconds, host_s, cached1) in zip(laps, laps[1:]):
            if cached1 > cached0:  # a golden build: charge it to the next run
                carried += seconds
                host_carried += host_s
                continue
            result.unit(seconds + carried, host_s + host_carried)
            carried = host_carried = 0.0
            runs += 1
        observed = {
            "runs": runs,
            "tests_run": fp.tests_run,
            "matrix_sha256": _sha256(self.render.render_full_figure(matrix)),
            "event_digests": dict(sorted(fp.workload_digest.items())),
        }
        result.observed[fs] = observed
        result.io_bytes += sum(s.bytes_read + s.bytes_written
                               for s in fp.workload_io.values())
        if observed != expected:
            bad = sorted(k for k in observed if observed[k] != expected.get(k))
            result.fail(f"{fs}: differs from reference in {bad}", runs)


# -- crash ----------------------------------------------------------------------------


class CrashWorkload:
    name = "crash"
    unit = "crash state checked"
    latency = "per state"
    pass_s = 3.3
    jobs = 1

    def prepare(self, seed: int) -> None:
        import repro.crash.engine as engine
        from repro.crash import CRASH_WORKLOADS

        self.engine = engine
        self.profiles = list(engine.CRASH_PROFILES)
        self.workloads = CRASH_WORKLOADS
        self.reference = load_reference("crash")

    def run_pass(self, index: int = 0) -> PassResult:
        result = PassResult()
        for profile in self.profiles:
            for workload in self.workloads:
                self._explore(profile, workload, result)
        return result

    def _explore(self, profile: str, workload: str, result: PassResult) -> None:
        engine = self.engine
        key = f"{profile}/{workload}"
        expected = self.reference.get(key, {})
        try:
            rec = engine.record(engine.CRASH_PROFILES[profile],
                                self.workloads[workload])
            states = engine.enumerate_states(rec)
        except Exception as exc:
            lost = expected.get("states", 1)
            result.units += lost
            result.fail(f"{key}: {type(exc).__name__}: {exc}", lost)
            result.lap()
            return
        result.lap()  # recording and enumeration
        observations = []
        for state in states:
            try:
                obs = engine.check_state(rec, state)
            except Exception as exc:
                result.lap()
                result.units += 1
                result.fail(f"{key} {state.key}: {type(exc).__name__}: {exc}", 1)
                continue
            result.unit(result.lap())
            stats = medium_stats(rec.disk)
            result.io_bytes += stats.bytes_read + stats.bytes_written
            observations.append(obs)
        report = engine.CrashReport(
            profile=profile, workload=workload, jobs=self.jobs,
            writes=len(rec.writes), epochs=len(rec.boundaries),
            observations=observations)
        observed = {
            "states": report.states_explored,
            "violations": len(report.violations),
            "violation_digest": report.violation_digest(),
        }
        result.observed[key] = observed
        if report.states_explored != len(states):
            result.fail(f"{key}: explored {report.states_explored} of "
                        f"{len(states)} enumerated states",
                        report.states_explored)
        elif observed != expected:
            result.fail(f"{key}: differs from reference", len(states))


# -- fleet -------------------------------------------------------------------------------


class FleetWorkload:
    name = "fleet"
    unit = "fleet trial"
    latency = "campaign wall time per trial, one sample per pass"
    pass_s = 5.5

    def __init__(self, jobs: int = FLEET_JOBS):
        self.jobs = jobs
        self.trials = FLEET_TRIALS

    def traced(self) -> None:
        """Halve the campaign for the traced run, which runs the pass
        four times, three of them in this process alone (two with every
        layer wrapped), within the run's time limit."""
        self.trials = FLEET_TRIALS // 2

    def prepare(self, seed: int) -> None:
        import repro.fleet.campaign as campaign
        from repro.common import pool
        from repro.fleet.spec import FleetSpec
        from repro.obs.trace import resolve_ref

        self.campaign = campaign
        self.pool = pool
        self.resolve_ref = resolve_ref
        self.spec = FleetSpec(trials=self.trials, seed=FLEET_BASE_SEED + seed)
        self.reference = load_reference("fleet")
        self.pooled = pool.effective_jobs(self.jobs) > 1
        if self.pooled:
            pool.warm_pool(self.jobs)

    def warm(self) -> None:
        """One small campaign so the pool workers import the simulator
        before the clock starts."""
        from repro.fleet.spec import FleetSpec

        self.campaign.run_fleet(FleetSpec(trials=1, seed=FLEET_BASE_SEED - 1),
                                jobs=self.jobs)

    def close(self) -> None:
        """Stop the pool workers, if any started, and wait for them."""
        if getattr(self, "pooled", False):
            self.pool.get_pool(self.jobs).shutdown(wait=True)
            self.pool.shutdown_pool()

    def run_pass(self, index: int = 0) -> PassResult:
        result = PassResult()
        self._campaign(self.spec, result)
        return result

    def _campaign(self, spec, result: PassResult) -> None:
        expected_trials = spec.trials * len(spec.cells())
        try:
            report = self.campaign.run_fleet(spec, jobs=self.jobs)
        except Exception as exc:
            result.lap()
            result.units += expected_trials
            result.fail(f"campaign {spec.seed}: {type(exc).__name__}: {exc}",
                        expected_trials)
            return
        # One latency sample, standing for the campaign's trials.
        result.unit(result.lap() / max(1, report.trials))
        result.units += report.trials - 1
        for cell in report.cells.values():
            result.io_bytes += cell.io.bytes_read + cell.io.bytes_written
        observed = {
            "trials": report.trials,
            "digest": report.digest,
            "incident_digest": report.incident_digest,
            "incidents": len(report.incidents),
        }
        key = f"{spec.seed}/{spec.trials}"
        result.observed[key] = observed
        self._check(report, expected_trials, result)
        expected = self.reference.get(key)
        if expected is not None and observed != expected:
            result.fail(f"campaign {spec.seed}: differs from reference",
                        report.trials)

    def _check(self, report, expected_trials: int, result: PassResult) -> None:
        """One incident per terminal trial, every cause resolvable."""
        problems = []
        if report.trials != expected_trials:
            problems.append(f"{report.trials} of {expected_trials} trials")
        terminal = sum(cell.trials - cell.outcomes["survived"]
                       for cell in report.cells.values())
        if len(report.incidents) != terminal:
            problems.append(f"{len(report.incidents)} incidents for "
                            f"{terminal} terminal trials")
        for incident in report.incidents:
            for cause in incident.causes:
                try:
                    self.resolve_ref(cause.ref, report.streams)
                except (KeyError, ValueError) as exc:
                    problems.append(f"unresolved cause {cause.ref}: {exc}")
        if problems:
            result.fail("; ".join(problems[:3]), report.trials)


# -- vfs_mix -----------------------------------------------------------------------------

# Op codes of the vfs_mix client stream.
MKDIR, CREATE, APPEND, READ, UNLINK, OPEN_TABLES, ACCT, COMMIT = range(8)

#: Buffer cache: 1,024 blocks of 1 KiB — smaller than the PostMark live
#: set (≈3.4 MiB), larger than the TPC-B table (64 blocks).
VFS_CACHE_BLOCKS = 1024
PM_DIRS = 10
PM_FILES = 680
PM_SIZE = (1024, 9216)
PM_APPEND = 512
PM_ROUNDS = 800
TPCB_BLOCKS = 64
TPCB_RECORD = 64


class VFSMixWorkload:
    name = "vfs_mix"
    unit = "client VFS operation"
    latency = "per operation"
    pass_s = 5.0
    jobs = 1

    def prepare(self, seed: int) -> None:
        from repro.bench.harness import BENCH_BASE_CONFIG, FEATURE_BITS
        from repro.disk.stack import DeviceStack
        from repro.fs.ext3.fsck import fsck_ext3
        from repro.fs.ixt3 import Ixt3, ixt3_config, mkfs_ixt3
        from repro.vfs.fdtable import O_RDWR, O_WRONLY

        self.base = BENCH_BASE_CONFIG
        self.config = ixt3_config(BENCH_BASE_CONFIG, dynamic_replica_slots=512)
        self.features = 0
        for bit in FEATURE_BITS.values():
            self.features |= bit
        self.DeviceStack = DeviceStack
        self.Ixt3 = Ixt3
        self.mkfs = mkfs_ixt3
        self.fsck = fsck_ext3
        self.flags = (O_RDWR, O_WRONLY)
        self.ops, self.dirs, self.expected, self.user_bytes = make_vfs_ops(
            seed, self.config.block_size)

    def run_pass(self, index: int = 0) -> PassResult:
        result = PassResult()
        stack = self.DeviceStack.build(
            self.config.total_blocks, self.config.block_size,
            cache_blocks=VFS_CACHE_BLOCKS)
        disk = stack.disk
        # mkfs writes straight to the medium: the mount starts cache-cold.
        self.mkfs(disk, self.base, features=self.features, config=self.config)
        fs = self.Ixt3(stack, sync_mode=False, commit_every=256)
        fs.mount()
        result.lap()
        written0 = disk.stats.bytes_written
        io0 = disk.stats.bytes_read + written0
        fds: Dict[str, int] = {}
        for op in self.ops:
            try:
                ok = self._do(fs, op, fds)
            except Exception as exc:
                ok = False
                if len(result.problems) < 5:
                    result.problems.append(f"op {op[0]} {op[1]}: "
                                           f"{type(exc).__name__}: {exc}")
            result.unit(result.lap())
            if not ok:
                result.failed += 1
        fs.sync()
        result.lap()
        result.medium_written = disk.stats.bytes_written - written0
        result.user_written = self.user_bytes
        result.io_bytes = disk.stats.bytes_read + disk.stats.bytes_written - io0
        self._check(fs, disk, result)
        return result

    def _do(self, fs, op, fds) -> bool:
        kind = op[0]
        if kind == READ:
            return fs.read_file(op[1]) == op[2]
        if kind == ACCT:
            fd = fds["acct"]
            if fs.read(fd, TPCB_RECORD, offset=op[1]) != op[2]:
                return False
            fs.write(fd, op[3], offset=op[1])
        elif kind == COMMIT:
            fd = fds["hist"]
            fs.write(fd, op[2], offset=op[1])
            fs.fsync(fd)
        elif kind == CREATE:
            fs.write_file(op[1], op[2])
        elif kind == APPEND:
            fd = fs.open(op[1], self.flags[1])
            try:
                fs.write(fd, op[3], offset=op[2])
            finally:
                fs.close(fd)
        elif kind == UNLINK:
            fs.unlink(op[1])
        elif kind == MKDIR:
            fs.mkdir(op[1])
        elif kind == OPEN_TABLES:
            fds["acct"] = fs.open(op[1], self.flags[0])
            fds["hist"] = fs.open(op[2], self.flags[1])
        return True

    def _check(self, fs, disk, result: PassResult) -> None:
        """Every acknowledged file must read back byte-identical after a
        remount from the medium alone, and fsck must find it clean."""
        fs.crash()
        problems = []
        try:
            fresh = self.Ixt3(disk)
            fresh.mount()
            tree: Dict[str, set] = {"/": {d[1:] for d in self.dirs}}
            for directory in self.dirs:
                tree[directory] = set()
            for path in self.expected:
                parent, _, name = path.rpartition("/")
                tree[parent or "/"].add(name)
            for directory, names in sorted(tree.items()):
                found = {n for n in fresh.getdirentries(directory)
                         if n not in (".", "..")}
                if found != names:
                    problems.append(f"{directory}: namespace differs")
            for path, payload in self.expected.items():
                if fresh.read_file(path) != payload:
                    problems.append(f"{path}: content differs")
            fresh.unmount()
            report = self.fsck(disk)
            if not report.clean:
                problems.append("fsck: " + "; ".join(report.messages[:3]))
        except Exception as exc:
            problems.append(f"remount: {type(exc).__name__}: {exc}")
        result.observed = {"files": len(self.expected),
                           "write_amp": result.medium_written / result.user_written}
        if problems:
            result.fail("; ".join(problems[:3]), result.units - result.failed)


def make_vfs_ops(seed: int, block_size: int):
    """The vfs_mix client stream for *seed*: ``(ops, directories,
    expected final contents by path, client payload bytes)``.

    PostMark part: populate ``PM_FILES`` files, then rounds of one
    create / append / read / unlink, a quarter of the rounds each (so
    the live set stays near its initial size).  TPC-B part, after each
    PostMark op: three read-modify-writes of a 64-byte record in a
    64-block table, then a history append with an fsync.  The seed
    picks the order, the files, the offsets and the payload bytes; the
    op mix and the multiset of file sizes are the same for every seed,
    so seeds vary the inputs without varying the amount of work.
    Payloads are drawn here, in set-up, so the timed phase only issues
    operations.
    """
    rng = random.Random(seed)
    low, high = PM_SIZE

    def sizes(n: int) -> List[int]:
        grid = [low + (high - low) * i // max(1, n - 1) for i in range(n)]
        rng.shuffle(grid)
        return grid

    population = sizes(PM_FILES)
    choices = [0, 1, 2, 3] * (PM_ROUNDS // 4)
    rng.shuffle(choices)
    round_sizes = sizes(choices.count(0))
    ops: List[tuple] = []
    user = 0
    live: Dict[str, bytes] = {}
    names: List[str] = []
    where: Dict[str, int] = {}
    serial = 0

    def add(path: str, data: bytes) -> None:
        live[path] = data
        where[path] = len(names)
        names.append(path)

    def remove(path: str) -> None:
        index = where.pop(path)
        last = names.pop()
        if last != path:
            names[index] = last
            where[last] = index
        del live[path]

    def create(size: int) -> None:
        nonlocal serial, user
        path = f"/pm{rng.randrange(PM_DIRS)}/f{serial}"
        serial += 1
        data = rng.randbytes(size)
        ops.append((CREATE, path, data))
        user += len(data)
        add(path, data)

    dirs = [f"/pm{d}" for d in range(PM_DIRS)]
    ops.extend((MKDIR, d) for d in dirs)
    table = bytearray(TPCB_BLOCKS * block_size)
    ops.append((CREATE, "/accounts.db", bytes(table)))
    ops.append((CREATE, "/history.log", b""))
    user += len(table)
    ops.append((OPEN_TABLES, "/accounts.db", "/history.log"))
    history = bytearray()
    for size in population:
        create(size)
    for txn, choice in enumerate(choices):
        if choice == 0:
            create(round_sizes.pop())
        elif choice == 1:
            path = names[rng.randrange(len(names))]
            ops.append((UNLINK, path))
            remove(path)
        elif choice == 2:
            path = names[rng.randrange(len(names))]
            ops.append((READ, path, live[path]))
        else:
            path = names[rng.randrange(len(names))]
            data = rng.randbytes(PM_APPEND)
            ops.append((APPEND, path, len(live[path]), data))
            live[path] = live[path] + data
            user += len(data)
        for _ in range(3):
            offset = rng.randrange(TPCB_BLOCKS) * block_size
            old = bytes(table[offset:offset + TPCB_RECORD])
            new = bytes((b + 1) & 0xFF for b in old)
            table[offset:offset + TPCB_RECORD] = new
            ops.append((ACCT, offset, old, new))
            user += TPCB_RECORD
        entry = f"txn {txn:08d} commit\n".encode()
        ops.append((COMMIT, len(history), entry))
        history += entry
        user += len(entry)
    expected = dict(live)
    expected["/accounts.db"] = bytes(table)
    expected["/history.log"] = bytes(history)
    return ops, dirs, expected, user


WORKLOADS = {
    "fingerprint": FingerprintWorkload,
    "crash": CrashWorkload,
    "fleet": FleetWorkload,
    "vfs_mix": VFSMixWorkload,
}
