"""Percentile selection and the small statistics helpers."""

import random

import pytest

from common import MIN_BEYOND, derive_seed, digest, percentile


@pytest.mark.parametrize("q, needed", [(0.50, 20), (0.95, 200),
                                       (0.99, 1000)])
def test_percentile_needs_ten_samples_beyond(q, needed):
    samples = list(range(needed))
    assert percentile(samples, q) is not None
    assert percentile(samples[:-1], q) is None


@pytest.mark.parametrize("n", [1, 5, 19, 20, 37, 199, 200, 999, 1000,
                               1234])
@pytest.mark.parametrize("q", [0.5, 0.9, 0.95, 0.99])
def test_reported_percentile_always_has_ten_samples_beyond(n, q):
    samples = [float(i) for i in range(n)]
    random.Random(n).shuffle(samples)
    value = percentile(samples, q)
    if value is None:
        return
    beyond = sum(1 for s in samples if s > value)
    assert beyond >= MIN_BEYOND
    # Nearest rank: at least a q share of the samples is <= the value.
    assert sum(1 for s in samples if s <= value) >= q * n


def test_percentile_is_nearest_rank_of_sorted_samples():
    samples = list(range(100, 0, -1))        # 100..1, unsorted order
    assert percentile(samples, 0.5) == 50
    assert percentile(samples, 0.9) == 90
    assert percentile(list(range(1, 1001)), 0.99) == 990


def test_percentile_rejects_q_outside_the_open_interval():
    with pytest.raises(ValueError):
        percentile([1.0] * 50, 1.0)
    with pytest.raises(ValueError):
        percentile([1.0] * 50, 0.0)


def test_derive_seed_is_stable_and_label_specific():
    assert derive_seed(1, "mc-chip") == derive_seed(1, "mc-chip")
    assert derive_seed(1, "mc-chip") != derive_seed(2, "mc-chip")
    assert derive_seed(1, "mc-chip") != derive_seed(1, "mc-flat-write")
    assert 0 <= derive_seed(7, "x") < 2 ** 63


def test_digest_ignores_key_order():
    assert digest({"a": 1, "b": [2, 3]}) == digest({"b": [2, 3], "a": 1})
    assert digest({"a": 1}) != digest({"a": 2})
