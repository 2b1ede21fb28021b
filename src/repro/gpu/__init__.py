"""Simulated Ampere-class GPU substrate.

Functional + timing models of the hardware features Jigsaw's kernels use:
shared-memory banks, global-memory sector coalescing, dense and sparse
tensor cores, ``ldmatrix``, ``cp.async`` pipelines, occupancy-limited
scheduling, and Nsight-style profiling.
"""

from .asynccopy import PipelineConfig, StallEstimate, estimate_block_stalls
from .device import A100, V100, DeviceSpec
from .instructions import COSTS, InstructionMix, Op, OpCost
from .ldmatrix import ldmatrix
from .memory import GlobalMemoryModel, GmemAccessStats
from .profiler import KernelProfile
from .registers import RegisterBudget, fragment_registers
from .scheduler import BlockWork, KernelTrace, occupancy_blocks_per_sm, simulate_launch
from .shared import SharedMemoryModel, SmemAccessStats, SmemLayout
from .timeline import compare_timelines, pipe_utilization, render_timeline
from .tensorcore import (
    JIGSAW_SPTC_SHAPE,
    SUPPORTED_SPTC_SHAPES,
    MmaShape,
    compress_2to4,
    expand_2to4,
    mma_dense,
    mma_sp,
    satisfies_2to4,
)
from .warp import (
    WARP_SIZE,
    accumulator_owner_lane,
    metadata_provider_lanes,
)

__all__ = [
    "A100",
    "V100",
    "DeviceSpec",
    "COSTS",
    "InstructionMix",
    "Op",
    "OpCost",
    "PipelineConfig",
    "StallEstimate",
    "estimate_block_stalls",
    "ldmatrix",
    "GlobalMemoryModel",
    "GmemAccessStats",
    "KernelProfile",
    "RegisterBudget",
    "fragment_registers",
    "BlockWork",
    "KernelTrace",
    "occupancy_blocks_per_sm",
    "simulate_launch",
    "SharedMemoryModel",
    "SmemAccessStats",
    "SmemLayout",
    "compare_timelines",
    "pipe_utilization",
    "render_timeline",
    "JIGSAW_SPTC_SHAPE",
    "SUPPORTED_SPTC_SHAPES",
    "MmaShape",
    "compress_2to4",
    "expand_2to4",
    "mma_dense",
    "mma_sp",
    "satisfies_2to4",
    "WARP_SIZE",
    "accumulator_owner_lane",
    "metadata_provider_lanes",
]
