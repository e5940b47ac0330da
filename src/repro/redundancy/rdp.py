"""Row-Diagonal Parity (RDP) — double-erasure-correcting redundancy.

§3.3 notes that beyond replication and single parity, "more complex
encodings ... could also be used, a subject worthy of future
exploration", citing Corbett et al.'s Row-Diagonal Parity (FAST '04),
which high-end arrays adopted precisely to survive a second latent
sector error during reconstruction.  This module implements RDP as a
pure library over byte-string "blocks", usable by a future ixt3
variant that wants two-failure tolerance per file.

Layout (p prime):

* ``p - 1`` data columns (0 .. p-2),
* one **row-parity** column (index p-1): XOR across each row,
* one **diagonal-parity** column (index p): XOR across each diagonal
  ``d = (row + col) mod p`` for d in 0..p-2; diagonal p-1 is the
  "missing" diagonal and is not stored.

Each column holds ``p - 1`` blocks.  Any two erased columns can be
reconstructed; the classic proof shows the iterative chain below always
terminates when p is prime.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.common.xor import xor_bytes


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class RDPStripe:
    """One RDP stripe: ``p - 1`` rows by ``p + 1`` columns of blocks."""

    def __init__(self, p: int, block_size: int):
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if p < 3:
            raise ValueError("p must be at least 3")
        if block_size <= 0:
            raise ValueError("block size must be positive")
        self.p = p
        self.block_size = block_size

    # -- geometry -----------------------------------------------------------

    @property
    def data_columns(self) -> int:
        return self.p - 1

    @property
    def rows(self) -> int:
        return self.p - 1

    @property
    def row_parity_column(self) -> int:
        return self.p - 1

    @property
    def diag_parity_column(self) -> int:
        return self.p

    def diagonal_of(self, row: int, col: int) -> int:
        """Diagonal number of a cell in columns 0..p-1."""
        return (row + col) % self.p

    # -- encode -------------------------------------------------------------------

    def encode(self, data: Sequence[Sequence[bytes]]) -> List[List[bytes]]:
        """Compute the full stripe from data columns.

        *data* is ``p - 1`` columns of ``p - 1`` blocks each; returns
        ``p + 1`` columns with row and diagonal parity appended.
        """
        p, bs = self.p, self.block_size
        if len(data) != self.data_columns:
            raise ValueError(f"expected {self.data_columns} data columns")
        for col in data:
            if len(col) != self.rows:
                raise ValueError(f"each column must hold {self.rows} blocks")
            for block in col:
                if len(block) != bs:
                    raise ValueError("block size mismatch")

        columns: List[List[bytes]] = [list(col) for col in data]
        # Row parity across data columns.
        row_parity = []
        for r in range(self.rows):
            acc = bytes(bs)
            for c in range(self.data_columns):
                acc = xor_bytes(acc, columns[c][r])
            row_parity.append(acc)
        columns.append(row_parity)
        # Diagonal parity across columns 0..p-1 (data + row parity).
        diag = [bytes(bs) for _ in range(self.rows)]
        for c in range(p):
            for r in range(self.rows):
                d = self.diagonal_of(r, c)
                if d == p - 1:
                    continue  # the missing diagonal
                diag[d] = xor_bytes(diag[d], columns[c][r])
        columns.append(diag)
        return columns

    # -- verify ---------------------------------------------------------------------

    def verify(self, columns: Sequence[Sequence[bytes]]) -> bool:
        """True when both parity columns are consistent with the data."""
        recomputed = self.encode([columns[c] for c in range(self.data_columns)])
        return (list(map(bytes, columns[self.row_parity_column]))
                == recomputed[self.row_parity_column]
                and list(map(bytes, columns[self.diag_parity_column]))
                == recomputed[self.diag_parity_column])

    # -- reconstruct ---------------------------------------------------------------------

    def reconstruct(
        self,
        columns: Sequence[Optional[Sequence[bytes]]],
    ) -> List[List[bytes]]:
        """Rebuild up to two erased columns (``None`` entries).

        Raises :class:`ValueError` when more than two columns are gone.
        """
        p, bs = self.p, self.block_size
        if len(columns) != p + 1:
            raise ValueError(f"expected {p + 1} columns")
        missing = [c for c, col in enumerate(columns) if col is None]
        if len(missing) > 2:
            raise ValueError("RDP tolerates at most two erased columns")
        if not missing:
            return [list(map(bytes, col)) for col in columns]  # type: ignore[arg-type]

        grid: Dict[Tuple[int, int], Optional[bytes]] = {}
        for c in range(p + 1):
            for r in range(self.rows):
                grid[(r, c)] = None if columns[c] is None else bytes(columns[c][r])

        if self.diag_parity_column in missing:
            others = [c for c in missing if c != self.diag_parity_column]
            if others:
                # Rebuild the other column from row parity alone...
                (other,) = others
                for r in range(self.rows):
                    acc = bytes(bs)
                    for c in range(p):
                        if c == other:
                            continue
                        acc = xor_bytes(acc, grid[(r, c)])  # type: ignore[arg-type]
                    grid[(r, other)] = acc
            # ...then recompute diagonal parity from scratch.
            rebuilt = [[grid[(r, c)] for r in range(self.rows)] for c in range(self.data_columns)]
            return self.encode(rebuilt)  # type: ignore[arg-type]

        # Two (or one) missing among columns 0..p-1: iterate rows and
        # diagonals, solving every constraint with a single unknown.
        unknown: Set[Tuple[int, int]] = {
            (r, c) for (r, c), v in grid.items() if v is None
        }
        progress = True
        while unknown and progress:
            progress = False
            # Row constraints: columns 0..p-1 XOR to zero per row
            # (row parity is included in the XOR as its own column).
            for r in range(self.rows):
                holes = [(r, c) for c in range(p) if (r, c) in unknown]
                if len(holes) == 1:
                    acc = bytes(bs)
                    for c in range(p):
                        if (r, c) == holes[0]:
                            continue
                        acc = xor_bytes(acc, grid[(r, c)])  # type: ignore[arg-type]
                    grid[holes[0]] = acc
                    unknown.remove(holes[0])
                    progress = True
            # Diagonal constraints for d in 0..p-2.
            for d in range(p - 1):
                cells = [(r, c) for c in range(p) for r in range(self.rows)
                         if self.diagonal_of(r, c) == d]
                holes = [cell for cell in cells if cell in unknown]
                if len(holes) == 1:
                    acc = bytes(grid[(d, self.diag_parity_column)])  # type: ignore[arg-type]
                    for cell in cells:
                        if cell == holes[0]:
                            continue
                        acc = xor_bytes(acc, grid[cell])  # type: ignore[arg-type]
                    grid[holes[0]] = acc
                    unknown.remove(holes[0])
                    progress = True
        if unknown:
            raise ValueError("reconstruction did not converge (corrupt stripe?)")
        return [[grid[(r, c)] for r in range(self.rows)]  # type: ignore[misc]
                for c in range(p + 1)]


def encode_blocks(blocks: Sequence[bytes], p: int) -> Tuple[List[List[bytes]], int]:
    """Convenience: pack a flat block list into RDP stripes.

    Returns (list of encoded stripes, blocks of padding added).
    """
    if not blocks:
        raise ValueError("nothing to encode")
    bs = len(blocks[0])
    stripe = RDPStripe(p, bs)
    per_stripe = stripe.data_columns * stripe.rows
    padded = list(blocks)
    padding = (-len(padded)) % per_stripe
    padded.extend([bytes(bs)] * padding)
    out = []
    for base in range(0, len(padded), per_stripe):
        chunk = padded[base:base + per_stripe]
        data = [chunk[c * stripe.rows:(c + 1) * stripe.rows]
                for c in range(stripe.data_columns)]
        out.append(stripe.encode(data))
    return out, padding
