"""Tile geometry for Jigsaw's multi-granularity design.

* ``BLOCK_TILE`` — the row-slab height one thread block owns; the paper
  tunes it over {16, 32, 64}.  Zero-column extraction happens per slab.
* ``MMA_TILE`` — the 16x16 unit the column reorder operates on; one
  ``mma.sp.m16n8k32`` consumes two adjacent MMA_TILE column groups.
* ``BLOCK_TILE_N`` — the C-tile width a block computes (64 columns).

Shared-memory footprints per BLOCK_TILE follow the paper's Section 4.1
measurements (21.25 / 24.83 / 27.65 KB for 16 / 32 / 64).
"""

from __future__ import annotations

from dataclasses import dataclass

#: The MMA_TILE edge the implementation uses (paper Section 3.2).
MMA_TILE: int = 16

#: BLOCK_TILE sizes the paper tunes over.
BLOCK_TILE_SIZES: tuple[int, ...] = (16, 32, 64)

#: C-tile width per thread block.
BLOCK_TILE_N: int = 64

#: mma.sp n dimension (m16n8k32).
MMA_N: int = 8

#: mma.sp k dimension: two MMA_TILE column groups per instruction.
MMA_K: int = 32

#: Shared memory per thread block, bytes, per BLOCK_TILE (paper Section 4.1).
SMEM_BYTES_PER_BLOCK: dict[int, int] = {
    16: int(21.25 * 1024),
    32: int(24.83 * 1024),
    64: int(27.65 * 1024),
}


@dataclass(frozen=True)
class TileConfig:
    """Geometry of one Jigsaw kernel configuration."""

    block_tile: int = 64          # slab height (BLOCK_TILE_M)
    block_tile_n: int = BLOCK_TILE_N
    mma_tile: int = MMA_TILE

    def __post_init__(self) -> None:
        if self.block_tile not in BLOCK_TILE_SIZES:
            raise ValueError(
                f"BLOCK_TILE={self.block_tile} unsupported; choose from {BLOCK_TILE_SIZES}"
            )
        if self.block_tile % self.mma_tile:
            raise ValueError("BLOCK_TILE must be a multiple of MMA_TILE")

    @property
    def strips_per_block(self) -> int:
        """16-row MMA strips per slab."""
        return self.block_tile // self.mma_tile

    @property
    def warps_per_block(self) -> int:
        """One warp per 16-row strip per 32 N-columns."""
        return self.strips_per_block * (self.block_tile_n // 32)

    @property
    def threads_per_block(self) -> int:
        return self.warps_per_block * 32

    @property
    def smem_bytes(self) -> int:
        return SMEM_BYTES_PER_BLOCK[self.block_tile]

    def grid(self, m: int, n: int) -> tuple[int, int]:
        """(slab blocks, n blocks) covering an (m, n) output."""
        rows = -(-m // self.block_tile)
        cols = -(-n // self.block_tile_n)
        return rows, cols

