"""The fault-injection layer (§4.2).

A pseudo-device sitting directly beneath the file system.  It implements
the same :class:`~repro.disk.disk.BlockDevice` protocol as the disk, so
the file system cannot tell it is there.  On each request it consults the
armed :class:`~repro.disk.faults.Fault` set:

* block failure — return the appropriate error code and *do not* issue
  the operation to the underlying disk;
* corruption — read the real data, alter it (random noise or a
  corrupted-field block similar to the expected one), and return it.

Type-aware injection needs to know what each block currently *is* to the
file system; the injector gets this from a *type oracle*, a callable
``block -> type-name`` registered by the harness using gray-box
knowledge of the mounted file system's layout.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.common.errors import ReadError, WriteError
from repro.disk.disk import BlockDevice
from repro.disk.faults import Fault, FaultKind
from repro.obs.events import EventLog, FaultArmedEvent, IOEvent

TypeOracle = Callable[[int], Optional[str]]


class FaultInjector:
    """Stackable fault-injecting block device.

    Also records the low-level I/O trace — the third observable of the
    fingerprinting methodology.  Every request becomes a typed
    :class:`~repro.obs.events.IOEvent` in the stream the injector is
    given (``events``), else in the lower device's stream, else nowhere
    (an array member's injector has no stream).
    """

    def __init__(
        self,
        lower: BlockDevice,
        type_oracle: Optional[TypeOracle] = None,
        events: Optional[EventLog] = None,
    ):
        self.lower = lower
        self.type_oracle = type_oracle
        self.faults: List[Fault] = []
        if events is None:
            events = getattr(lower, "events", None)
        self.events: Optional[EventLog] = events

    # -- configuration ------------------------------------------------------

    def arm(self, fault: Fault) -> Fault:
        """Arm a fault; returns it for later inspection."""
        self.faults.append(fault)
        if self.events is not None:
            self.events.emit(FaultArmedEvent(
                op=fault.op.value,
                fault_kind=fault.kind.value,
                block=fault.block,
                block_type=fault.block_type,
            ))
        return fault

    def disarm(self, fault: Fault) -> None:
        self.faults.remove(fault)

    def clear_faults(self) -> None:
        self.faults.clear()

    def set_type_oracle(self, oracle: Optional[TypeOracle]) -> None:
        self.type_oracle = oracle

    def block_type_of(self, block: int) -> Optional[str]:
        if self.type_oracle is None:
            return None
        return self.type_oracle(block)

    # -- BlockDevice protocol -------------------------------------------------

    @property
    def num_blocks(self) -> int:
        return self.lower.num_blocks

    @property
    def block_size(self) -> int:
        return self.lower.block_size

    def read_block(self, block: int) -> bytes:
        btype = self.block_type_of(block)
        events = self.events
        fault = self._match("read", block, btype)
        if fault is not None and fault.consume(block):
            if fault.kind is FaultKind.FAIL:
                if events is not None:
                    events.emit(IOEvent("read", block, "error", btype))
                raise ReadError(block, f"injected: {fault.describe()}")
            data = self.lower.read_block(block)
            bad = fault.corrupt(data, btype)
            if events is not None:
                events.emit(IOEvent("read", block, "corrupted", btype))
            return bad
        data = self.lower.read_block(block)
        if events is not None:
            events.emit(IOEvent("read", block, "ok", btype))
        return data

    def write_block(self, block: int, data: bytes) -> None:
        btype = self.block_type_of(block)
        events = self.events
        fault = self._match("write", block, btype)
        if fault is not None and fault.consume(block):
            if fault.kind is FaultKind.FAIL:
                # The operation never reaches the medium.
                if events is not None:
                    events.emit(IOEvent("write", block, "error", btype))
                raise WriteError(block, f"injected: {fault.describe()}")
            # Corrupt-on-write: store altered data but report success
            # (a misdirected/phantom-style firmware fault).
            if events is not None:
                events.emit(IOEvent("write", block, "corrupted", btype))
            self.lower.write_block(block, fault.corrupt(data, btype))
            return
        self.lower.write_block(block, data)
        if events is not None:
            events.emit(IOEvent("write", block, "ok", btype))

    # -- uniform stack lifecycle ------------------------------------------------

    def flush(self) -> None:
        self.lower.flush()

    def snapshot(self):
        return self.lower.snapshot()

    def restore(self, snapshot) -> None:
        """Rewind the device.  Armed faults are configuration, not device
        state — they stay armed.  The I/O history lives in the stream,
        which its owner (:meth:`DeviceStack.restore`) clears."""
        self.lower.restore(snapshot)

    # -- passthroughs to the raw disk (when present) ---------------------------

    def stall(self, seconds: float) -> None:
        stall = getattr(self.lower, "stall", None)
        if stall is not None:
            stall(seconds)

    @property
    def clock(self) -> float:
        return getattr(self.lower, "clock", 0.0)

    @property
    def stats(self):
        """The underlying device's :class:`DiskStats`, when it has one —
        lets the timing layer read raw traffic through the stack."""
        return getattr(self.lower, "stats", None)

    # -- internals ----------------------------------------------------------------

    def _match(self, op: str, block: int, btype: Optional[str]) -> Optional[Fault]:
        for fault in self.faults:
            if fault.matches(op, block, btype):
                return fault
        return None

    def __repr__(self) -> str:
        return f"FaultInjector(faults={len(self.faults)})"
