"""Warp-level fragment and metadata ownership maps.

Tensor-core instructions distribute their operands across the 32 lanes of
a warp in fixed patterns.  The maps here reproduce the parts of that
layout Jigsaw's design depends on:

* which lanes supply sparse metadata for ``mma.sp`` with selector F
  (paper Figure 9: with F=0 only lanes 0,1,4,5,...,28,29 provide metadata,
  which naively causes warp divergence or wasted loads);
* the per-lane ownership of m16n8 accumulator fragment elements.
"""

from __future__ import annotations

import numpy as np

WARP_SIZE = 32


def metadata_provider_lanes(f_selector: int) -> np.ndarray:
    """Lanes that supply ``mma.sp`` metadata for thread-selector ``F``.

    For the m16n8k32 fp16 shape, each quad of lanes contributes metadata
    from two of its four threads; ``F`` picks which pair.  F=0 selects
    lanes {0,1} of every quad, F=1 selects lanes {2,3}.
    """
    if f_selector not in (0, 1):
        raise ValueError("mma.sp thread selector F must be 0 or 1")
    base = np.arange(0, WARP_SIZE, 4)
    pair = np.array([0, 1]) if f_selector == 0 else np.array([2, 3])
    return np.sort(np.concatenate([base + p for p in pair]))


def accumulator_owner_lane(row: int, col: int, m: int = 16, n: int = 8) -> int:
    """Lane owning accumulator element (row, col) of an m16n8 fragment.

    The fp32 accumulator of m16n8k* MMAs maps element (r, c) to lane
    ``(r % 8) * 4 + (c % 8) // 2``; each lane holds 4 elements.
    """
    if not (0 <= row < m and 0 <= col < n):
        raise ValueError(f"({row}, {col}) outside m{m}n{n} fragment")
    return (row % 8) * 4 + (col % 8) // 2

