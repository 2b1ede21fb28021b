"""Jigsaw core: multi-granularity reorder, reorder-aware format, kernels."""

from .api import JigsawPlan, jigsaw_spmm
from .compiled import (
    CompiledPlan,
    compile_plan,
    compiled_output,
    expand_tile,
    repair_compiled,
    run_compiled_kernel,
)
from .compatibility import (
    CoverCacheStats,
    CoverSolution,
    clear_cover_cache,
    cover_cache_stats,
    find_compatible_quads,
    find_cover,
    least_compatible_column,
    quads_to_masks,
)
from .engine import PlanStats, PreprocessStats, plan_cache_key, preprocess
from .format import JigsawMatrix, JigsawSlab
from .formatspec import FORMAT_KIND_24, FORMAT_KIND_VNM, FormatSpec, base_route
from .kernels import (
    ABLATION_VERSIONS,
    ALL_VERSIONS,
    JigsawKernelSpec,
    JigsawRunResult,
    run_jigsaw_kernel,
)
from .model import LayerRun, SparseLinear, SparseModel
from .serialization import (
    ArtifactError,
    ArtifactIntegrityError,
    load_jigsaw,
    load_vnm,
    roundtrip_equal,
    save_jigsaw,
    save_vnm,
)
from .vnm import VnmPlan, detect_vnm_spec, run_vnm_kernel, vnm_output, vnm_profile
from .tuning import TuningTable, estimate_vector_width, matrix_features
from .metadata import (
    deinterleave_metadata,
    interleave_metadata,
    naive_layout,
    tile_metadata_words,
)
from .reorder import (
    PARALLEL_MIN_ELEMS,
    ReorderResult,
    SlabReorder,
    reorder_matrix,
    reorder_slab,
    resolve_workers,
    validate_reorder,
)
from .swizzle import swizzle_block, unswizzle_block, z_swizzle_order
from .tiles import (
    BLOCK_TILE_N,
    BLOCK_TILE_SIZES,
    MMA_TILE,
    SMEM_BYTES_PER_BLOCK,
    TileConfig,
)

__all__ = [
    "JigsawPlan",
    "jigsaw_spmm",
    "CompiledPlan",
    "compile_plan",
    "compiled_output",
    "expand_tile",
    "repair_compiled",
    "run_compiled_kernel",
    "CoverCacheStats",
    "CoverSolution",
    "clear_cover_cache",
    "cover_cache_stats",
    "find_compatible_quads",
    "find_cover",
    "least_compatible_column",
    "quads_to_masks",
    "PlanStats",
    "PreprocessStats",
    "plan_cache_key",
    "preprocess",
    "JigsawMatrix",
    "JigsawSlab",
    "FORMAT_KIND_24",
    "FORMAT_KIND_VNM",
    "FormatSpec",
    "base_route",
    "VnmPlan",
    "detect_vnm_spec",
    "run_vnm_kernel",
    "vnm_output",
    "vnm_profile",
    "ABLATION_VERSIONS",
    "ALL_VERSIONS",
    "JigsawKernelSpec",
    "JigsawRunResult",
    "run_jigsaw_kernel",
    "LayerRun",
    "SparseLinear",
    "SparseModel",
    "ArtifactError",
    "ArtifactIntegrityError",
    "load_jigsaw",
    "load_vnm",
    "roundtrip_equal",
    "save_jigsaw",
    "save_vnm",
    "TuningTable",
    "estimate_vector_width",
    "matrix_features",
    "deinterleave_metadata",
    "interleave_metadata",
    "naive_layout",
    "tile_metadata_words",
    "PARALLEL_MIN_ELEMS",
    "ReorderResult",
    "SlabReorder",
    "reorder_matrix",
    "reorder_slab",
    "resolve_workers",
    "validate_reorder",
    "swizzle_block",
    "unswizzle_block",
    "z_swizzle_order",
    "BLOCK_TILE_N",
    "BLOCK_TILE_SIZES",
    "MMA_TILE",
    "SMEM_BYTES_PER_BLOCK",
    "TileConfig",
]
