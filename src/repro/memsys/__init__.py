"""System-level memory reliability: controller, ECC, traffic, UBER.

The device and array layers answer *how much worse does one cell get*;
this package answers the question a memory designer actually asks:
*what uncorrectable bit-error rate does a coupled, dense array deliver
under real read/write traffic?* It composes the library's three failure
mechanisms — write error, read disturb, retention — into one number.

* :mod:`repro.memsys.traffic` — seeded workload generators (uniform,
  sequential, hot-row/col, read/write-heavy, data-pattern stress),
* :mod:`repro.memsys.controller` — behavioral array controller that
  prices every access from the coupling-class probability tables,
* :mod:`repro.memsys.ecc` — vectorized Hamming SEC-DED (72, 64 by
  default) plus a no-ECC baseline,
* :mod:`repro.memsys.scrub` — periodic scrubbing policy,
* :mod:`repro.memsys.engine` — vectorized Monte-Carlo engine (one
  driver over a packed binomial state) plus a noise-free expectation
  mode,
* :mod:`repro.memsys.sampling` — the Monte-Carlo sampler: exact
  thinned flip draws over bit-sliced coupling-class planes,
* :mod:`repro.memsys.bitplane` — bit-packed ``intended``/``actual``
  array state (uint64 lanes, XOR + popcount error counting),
* :mod:`repro.memsys.topology` — banks x subarrays array topology:
  hierarchical address map, per-subarray traffic sharding with
  spawned per-shard RNGs (subarray-parallel through the sweep
  executors), and the selector-less cross-point variant with its
  sneak-path disturb term,
* :mod:`repro.memsys.sense` — sense-margin read model: resistance
  spread through the access-transistor divider folded into the
  read-disturb tables as a misread probability,
* :mod:`repro.memsys.sweeps` — pitch x pattern x ECC sweeps: the
  paper's density axis carried to the system level.

Quick start::

    from repro import MTJDevice, PAPER_EVAL_DEVICE
    from repro.memsys import build_engine

    engine = build_engine(MTJDevice(PAPER_EVAL_DEVICE), pitch=70e-9)
    result = engine.run(100_000, rng=1)
    print(f"raw BER {result.raw_ber:.2e} -> UBER {result.uber:.2e}")
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "controller": ["ArrayController", "WordMap", "neighborhood_class_map"],
    "ecc": [
        "DecodeOutcome", "ECC_SCHEMES", "HammingSECDED", "NoECC", "make_ecc"],
    "bitplane": ["BitPlane"],
    "engine": [
        "MemsysResult", "ReliabilityEngine", "build_engine", "merge_results",
        "resolve_backend"],  # kept for perfbench; ROADMAP item 1 deletes it
    "sampling": [
        "ClassPlanes", "N_CLASSES", "class_index", "sample_class_flips"],
    "scrub": ["ScrubPolicy", "no_scrub"],
    "sense": ["SenseMarginModel"],
    "sweeps": ["secded_margin_pitch", "uber_sweep"],
    "topology": [
        "ArrayTopology", "HierarchicalAddressMap", "TOPOLOGIES",
        "TopologyEngine", "normalize_topology"],
    "traffic": [
        "HotSpotWorkload", "SequentialWorkload", "StressPatternWorkload",
        "TrafficBatch", "WORKLOADS", "Workload", "make_workload"],
})
