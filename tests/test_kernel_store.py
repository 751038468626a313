"""Tests for the process-wide kernel store and stack fingerprinting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arrays import InterCellCoupling, KernelStore, get_kernel_store
from repro.arrays.kernel_store import stack_fingerprint
from repro.errors import ParameterError
from repro.fields import LoopCollection, layer_to_loops
from repro.stack import build_reference_stack


@pytest.fixture
def store():
    """A private store, isolated from the process-wide singleton."""
    return KernelStore()


@pytest.fixture(scope="module")
def stack():
    return build_reference_stack(55e-9)


class TestHitMiss:
    def test_first_lookup_misses_second_hits(self, store, stack):
        offset = (90e-9, 0.0)
        a = store.kernel(stack, offset, "fl")
        assert store.stats() == {"entries": 1, "hits": 0, "misses": 1}
        b = store.kernel(stack, offset, "fl")
        assert store.stats() == {"entries": 1, "hits": 1, "misses": 1}
        assert a == b

    def test_kinds_are_distinct_entries(self, store, stack):
        offset = (90e-9, 0.0)
        fl = store.kernel(stack, offset, "fl")
        fixed = store.kernel(stack, offset, "fixed")
        assert len(store) == 2
        assert fl != fixed

    def test_equal_stacks_share_entries(self, store):
        a = build_reference_stack(55e-9)
        b = build_reference_stack(55e-9)
        store.kernel(a, (90e-9, 0.0), "fl")
        store.kernel(b, (90e-9, 0.0), "fl")
        assert store.stats()["hits"] == 1
        assert len(store) == 1

    def test_clear_resets(self, store, stack):
        store.kernel(stack, (90e-9, 0.0), "fl")
        store.clear()
        assert store.stats() == {"entries": 0, "hits": 0, "misses": 0}

    def test_value_matches_direct_evaluation(self, store, stack):
        offset = (70e-9, 70e-9)
        loops = layer_to_loops(stack.free_layer, stack.radius,
                               center_xy=offset, direction=+1)
        expected = float(
            LoopCollection(loops).field((0.0, 0.0, 0.0))[2])
        assert store.kernel(stack, offset, "fl") == pytest.approx(
            expected, rel=1e-12)


class TestFingerprint:
    def test_deterministic(self, stack):
        assert stack_fingerprint(stack) == stack_fingerprint(
            build_reference_stack(55e-9))

    def test_moment_change_invalidates(self, stack, store):
        from repro.geometry import LayerRole
        modified = stack.with_layer_ms(LayerRole.REFERENCE, 2.0e5)
        assert stack_fingerprint(modified) != stack_fingerprint(stack)
        store.kernel(stack, (90e-9, 0.0), "fixed")
        store.kernel(modified, (90e-9, 0.0), "fixed")
        assert len(store) == 2
        assert store.stats()["hits"] == 0

    def test_ecd_change_invalidates(self, stack):
        assert stack_fingerprint(build_reference_stack(35e-9)) != \
            stack_fingerprint(stack)

    def test_temperature_scales_fingerprint(self, stack, store):
        cold = stack_fingerprint(stack, temperature=None)
        hot = stack_fingerprint(stack, temperature=400.0)
        assert cold != hot
        store.kernel(stack, (90e-9, 0.0), "fl")
        store.kernel(stack, (90e-9, 0.0), "fl", temperature=400.0)
        assert len(store) == 2

    def test_rejects_non_stack(self):
        with pytest.raises(ParameterError):
            stack_fingerprint("not a stack")

    def test_numpy_scalar_geometry_digests_identically(self):
        """np.float64-built stacks must share keys AND disk digests
        with float-built ones — key_digest hashes repr(key), and a
        numpy scalar reprs differently from the ==-equal float."""
        from repro.arrays.kernel_disk import key_digest
        plain = stack_fingerprint(build_reference_stack(35e-9))
        from_numpy = stack_fingerprint(
            build_reference_stack(np.float64(35e-9)))
        assert plain == from_numpy
        assert key_digest(plain) == key_digest(from_numpy)

    def test_evaluation_point_keys_entries(self, store, stack):
        store.kernel(stack, (90e-9, 0.0), "fl")
        store.kernel(stack, (90e-9, 0.0), "fl",
                     evaluation_point=(0.0, 0.0, 1e-9))
        assert len(store) == 2

    def test_unknown_kind_rejected(self, store, stack):
        with pytest.raises(ParameterError):
            store.kernel(stack, (90e-9, 0.0), "bogus")


class TestKernelBatch:
    """The batched path must be bit-identical to scalar lookups and
    share their cache entries (this is the non-bench parity guard for
    ``benchmarks/test_bench_field_map.py``)."""

    OFFSETS = [(90e-9, 0.0), (0.0, 90e-9), (90e-9, 90e-9),
               (-180e-9, 90e-9), (-90e-9, -90e-9)]

    @pytest.mark.parametrize("kind", ("fixed", "fl"))
    def test_bit_identical_to_scalar(self, stack, kind):
        scalar = np.array([KernelStore().kernel(stack, off, kind)
                           for off in self.OFFSETS])
        batch = KernelStore().kernel_batch(stack, self.OFFSETS, kind)
        np.testing.assert_array_equal(batch, scalar)

    def test_bit_identical_with_point_and_temperature(self, stack):
        point, temp = (1e-9, -2e-9, 3e-9), 350.0
        scalar = np.array([
            KernelStore().kernel(stack, off, "fl",
                                 evaluation_point=point,
                                 temperature=temp)
            for off in self.OFFSETS])
        batch = KernelStore().kernel_batch(stack, self.OFFSETS, "fl",
                                           evaluation_point=point,
                                           temperature=temp)
        np.testing.assert_array_equal(batch, scalar)

    def test_shares_entries_with_scalar_path(self, store, stack):
        for off in self.OFFSETS:
            store.kernel(stack, off, "fl")
        batch = store.kernel_batch(stack, self.OFFSETS, "fl")
        stats = store.stats()
        assert stats["hits"] == len(self.OFFSETS)
        assert stats["misses"] == len(self.OFFSETS)
        scalar_again = store.kernel(stack, self.OFFSETS[0], "fl")
        assert scalar_again == batch[0]

    def test_partial_batch_computes_only_missing(self, store, stack):
        store.kernel(stack, self.OFFSETS[0], "fl")
        store.kernel_batch(stack, self.OFFSETS, "fl")
        stats = store.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == len(self.OFFSETS)
        assert len(store) == len(self.OFFSETS)

    def test_result_order_matches_offsets(self, store, stack):
        forward = store.kernel_batch(stack, self.OFFSETS, "fixed")
        backward = store.kernel_batch(stack, self.OFFSETS[::-1],
                                      "fixed")
        np.testing.assert_array_equal(backward, forward[::-1])

    def test_rejects_bad_shapes_and_kinds(self, store, stack):
        with pytest.raises(ParameterError):
            store.kernel_batch(stack, [90e-9, 0.0], "fl")
        with pytest.raises(ParameterError):
            store.kernel_batch(stack, [(90e-9, 0.0, 0.0)], "fl")
        with pytest.raises(ParameterError):
            store.kernel_batch(stack, [(90e-9, 0.0)], "bogus")

    def test_extended_neighborhood_rides_batch_path(self, stack):
        """The window kernels equal per-offset scalar lookups exactly."""
        from repro.arrays import ExtendedNeighborhood
        hood = ExtendedNeighborhood(stack, 90e-9, order=2)
        reference = KernelStore()
        for off, (fixed, fl) in hood.kernels().items():
            dx, dy = off[0] * 90e-9, off[1] * 90e-9
            assert fixed == reference.kernel(stack, (dx, dy), "fixed")
            assert fl == reference.kernel(stack, (dx, dy), "fl")


class TestSharedAcrossConsumers:
    def test_coupling_instances_share_global_store(self, stack):
        store = get_kernel_store()
        InterCellCoupling(stack, 91e-9).kernels()
        stats_before = store.stats()
        InterCellCoupling(stack, 91e-9).kernels()
        stats_after = store.stats()
        assert stats_after["entries"] == stats_before["entries"]
        assert stats_after["hits"] >= stats_before["hits"] + 4

    def test_coupling_matches_store_value(self, stack):
        coupling = InterCellCoupling(stack, 90e-9)
        direct = coupling.neighborhood.aggressor_positions()[0]
        assert coupling.kernels().fl_direct == pytest.approx(
            get_kernel_store().kernel(stack, direct, "fl"), rel=1e-15)

    def test_temperature_coupling_uses_scaled_kernels(self, stack):
        warm = InterCellCoupling(stack, 90e-9, temperature=350.0)
        cold = InterCellCoupling(stack, 90e-9)
        # Bloch scaling weakens the moments -> weaker kernels.
        assert abs(warm.kernels().fl_direct) < abs(
            cold.kernels().fl_direct)
