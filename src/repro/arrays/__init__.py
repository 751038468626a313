"""Memory-array modeling: layout, data patterns, inter-cell coupling.

Named ``arrays`` (plural) to avoid shadowing the stdlib ``array`` module.

* :mod:`repro.arrays.layout` — cell placement on a square-pitch grid and
  the paper's 3x3 victim/aggressor neighborhood (Fig. 1b),
* :mod:`repro.arrays.pattern` — NP8 neighborhood patterns and whole-array
  data patterns,
* :mod:`repro.arrays.coupling` — the inter-cell stray-field model
  (Section IV-B) built on symmetry-reduced kernels,
* :mod:`repro.arrays.kernel_store` — process-wide memoized store of the
  stray-field kernels shared by every coupling-model consumer (scalar
  and batched lookups),
* :mod:`repro.arrays.kernel_disk` — the store's persistent on-disk
  backend (versioned, checksummed, memory-mapped),
* :mod:`repro.arrays.victim` — combined intra+inter analysis of a victim
  cell,
* :mod:`repro.arrays.density` — areal-density bookkeeping.
"""

# ``retention_map`` is also the name of its submodule, so it is bound eagerly:
# importing the submodule later would rebind the package attribute.
from .retention_map import retention_map
from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "coupling": ["CouplingKernels", "InterCellCoupling"],
    "density": ["areal_density_gbit_per_mm2", "cell_area", "density_table"],
    "extended": ["ExtendedNeighborhood", "fast_array_field_map"],
    "kernel_disk": ["KERNEL_CACHE_ENV", "DiskKernelCache", "KernelCacheError"],
    "kernel_store": ["KernelStore", "get_kernel_store", "stack_fingerprint"],
    "retention_map": ["RetentionMap"],
    "statistics": [
        "FieldDistribution", "expected_retention_failure_rate",
        "pattern_field_distribution"],
    "layout": ["ArrayLayout", "Neighborhood3x3"],
    "pattern": [
        "DataPattern", "NeighborhoodPattern", "all_patterns", "checkerboard",
        "pattern_classes", "solid"],
    "victim": ["VictimAnalysis"],
})

__all__ += ["retention_map"]
