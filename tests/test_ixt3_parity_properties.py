"""Property: ixt3's per-file parity (Dp, §6.1) tracks every data change.

Hypothesis drives random histories of whole-file writes, appends,
in-place overwrites, truncates and unlinks.  After ``sync`` each live
regular file's parity block, read from the medium, must equal the XOR
of the file's data blocks on the medium, and a sticky read fault on
any one of those data blocks must read back reconstructed after a
remount.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.disk import Fault, FaultInjector, FaultKind, FaultOp, make_disk
from repro.fs.ixt3 import ALL_FEATURES, Ixt3, mkfs_ixt3
from repro.obs.events import EventLog
from repro.vfs.fdtable import O_APPEND, O_WRONLY

from conftest import IXT3_BASE, IXT3_CFG

BS = IXT3_CFG.block_size
PATHS = ["/f0", "/f1", "/f2"]
# Past the 12 direct pointers, so the indirect path is exercised too.
MAX_SIZE = 14 * BS

sizes = st.integers(min_value=0, max_value=MAX_SIZE)
payloads = st.binary(min_size=0, max_size=3 * BS)

ops = st.one_of(
    st.tuples(st.just("write_file"), st.sampled_from(PATHS), sizes, st.integers(0, 255)),
    st.tuples(st.just("append"), st.sampled_from(PATHS), payloads),
    st.tuples(st.just("overwrite"), st.sampled_from(PATHS), sizes, payloads),
    st.tuples(st.just("truncate"), st.sampled_from(PATHS), sizes),
    st.tuples(st.just("unlink"), st.sampled_from(PATHS)),
)


def _apply(fs, model, op):
    kind, path = op[0], op[1]
    if kind == "write_file":
        size, seed = op[2], op[3]
        data = bytes((seed + i * 31) % 256 for i in range(size))
        fs.write_file(path, data)
        model[path] = data
        return
    if path not in model:
        return
    old = model[path]
    if kind == "append":
        data = op[2][:max(0, MAX_SIZE - len(old))]
        fd = fs.open(path, O_WRONLY | O_APPEND)
        fs.write(fd, data)
        fs.close(fd)
        model[path] = old + data
    elif kind == "overwrite":
        offset = min(op[2], len(old))
        data = op[3][:MAX_SIZE - offset]
        fd = fs.open(path, O_WRONLY)
        fs.write(fd, data, offset=offset)
        fs.close(fd)
        model[path] = old[:offset] + data + old[offset + len(data):]
    elif kind == "truncate":
        size = op[2]
        fs.truncate(path, size)
        model[path] = old[:size] + bytes(max(0, size - len(old)))
    else:
        fs.unlink(path)
        del model[path]


def _data_blocks(fs, path):
    inode = fs._iget(fs._lookup(path))
    nblocks = (inode.size + BS - 1) // BS
    blocks = [fs._bmap(inode, fb, allocate=False)[0] for fb in range(nblocks)]
    return inode.parity_block, [b for b in blocks if b]


def _xor_all(blocks):
    acc = bytearray(BS)
    for block in blocks:
        for i, byte in enumerate(block):
            acc[i] ^= byte
    return bytes(acc)


@settings(max_examples=40, deadline=None)
@given(history=st.lists(ops, min_size=1, max_size=12), pick=st.integers(0, 10 ** 6))
def test_parity_matches_data_and_reconstructs(history, pick):
    disk = make_disk(IXT3_CFG.total_blocks, IXT3_CFG.block_size)
    mkfs_ixt3(disk, IXT3_BASE, features=ALL_FEATURES, config=IXT3_CFG)
    injector = FaultInjector(disk, events=EventLog())
    fs = Ixt3(injector)
    fs.mount()
    model = {}
    for op in history:
        _apply(fs, model, op)
    fs.sync()

    covered = []
    for path, contents in sorted(model.items()):
        assert fs.read_file(path) == contents
        parity_block, blocks = _data_blocks(fs, path)
        assert parity_block
        assert disk.peek(parity_block) == _xor_all(disk.peek(b) for b in blocks)
        covered.extend((path, b) for b in blocks)
    fs.unmount()
    if not covered:
        return

    # Remount so nothing cached above the injector hides the fault.
    path, victim = covered[pick % len(covered)]
    fs = Ixt3(injector)
    fs.mount()
    injector.set_type_oracle(fs.block_type)
    injector.arm(Fault(op=FaultOp.READ, kind=FaultKind.FAIL, block=victim))
    assert fs.read_file(path) == model[path]
    io = [(e.op, e.block, e.outcome) for e in injector.events.io_events()]
    assert ("read", victim, "error") in io
    assert fs.syslog.has_event("redundancy-used")
