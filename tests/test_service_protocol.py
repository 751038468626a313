"""Wire protocol: parsing, normalization, and fingerprints."""

import dataclasses
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ParameterError
from repro.service.protocol import (
    PROTOCOL_VERSION,
    QUERY_TYPES,
    SweepQuery,
    UberQuery,
    decode_line,
    device_for,
    encode_line,
    parse_request,
    query_fingerprint,
)


class TestFraming:
    def test_round_trip(self):
        obj = {"op": "uber", "id": "q1", "pitch_nm": 70.0}
        assert decode_line(encode_line(obj)) == obj

    def test_encode_is_one_line(self):
        frame = encode_line({"a": "with\nnewline"})
        assert frame.endswith(b"\n")
        assert frame.count(b"\n") == 1

    def test_decode_rejects_bad_json(self):
        with pytest.raises(ParameterError):
            decode_line(b"{not json}\n")

    def test_decode_rejects_non_objects(self):
        with pytest.raises(ParameterError):
            decode_line(b"[1, 2, 3]\n")


class TestParseRequest:
    def test_known_ops(self):
        for op, cls in QUERY_TYPES.items():
            assert isinstance(parse_request({"op": op}), cls)

    def test_unknown_op(self):
        with pytest.raises(ParameterError, match="unknown op"):
            parse_request({"op": "frobnicate"})

    def test_unknown_parameter(self):
        with pytest.raises(ParameterError, match="pitchnm"):
            parse_request({"op": "uber", "pitchnm": 70})

    @pytest.mark.parametrize("sampler", ["bernoulli", "binomial"])
    def test_retired_sampler_is_an_unknown_parameter(self, sampler):
        with pytest.raises(ParameterError,
                           match="unknown parameter.*sampler"):
            parse_request({"op": "uber", "sampler": sampler})

    @pytest.mark.parametrize("backend", ["numpy", "numba"])
    def test_retired_backend_is_an_unknown_parameter(self, backend):
        with pytest.raises(ParameterError,
                           match="unknown parameter.*backend"):
            parse_request({"op": "uber", "backend": backend})

    def test_envelope_keys_are_not_parameters(self):
        query = parse_request({"op": "uber", "id": "client-7",
                               "pitch_nm": 60})
        assert query.pitch_nm == 60

    def test_out_of_domain_value(self):
        with pytest.raises(ParameterError):
            parse_request({"op": "uber", "pitch_nm": -1.0})

    def test_bad_mode(self):
        with pytest.raises(ParameterError):
            parse_request({"op": "uber", "mode": "psychic"})

    def test_sweep_normalizes_sequences(self):
        query = parse_request({"op": "sweep",
                               "pitch_ratios": [3, 2],
                               "patterns": "random",
                               "eccs": ["secded"]})
        assert query.pitch_ratios == (3.0, 2.0)
        assert query.patterns == ("random",)
        assert query.n_points == 2

    def test_sweep_rejects_empty_grid_axis(self):
        with pytest.raises(ParameterError):
            parse_request({"op": "sweep", "pitch_ratios": []})

    @pytest.mark.parametrize("field", ["pitch_ratios", "ecds_nm"])
    @pytest.mark.parametrize("value", [
        "25", [True, 2], [2, False], [-1.0], [0], ["nan"], [float("nan")],
        [float("inf")], ["2"], {"2": 1}, [[2.0]], 2.0, None,
    ], ids=["string", "bool", "bool-last", "negative", "zero",
            "nan-string", "nan", "infinity", "numeric-string", "dict",
            "nested", "scalar", "null"])
    def test_bad_float_sequences_rejected_at_parse_time(self, field,
                                                        value):
        op = "sweep" if field == "pitch_ratios" else "design"
        with pytest.raises(ParameterError, match=field):
            parse_request({"op": op, field: value})

    def test_json_spelled_nan_and_infinity_are_rejected(self):
        # Python's json reads the non-standard NaN / Infinity tokens.
        for token in ("NaN", "Infinity", "-Infinity"):
            with pytest.raises(ParameterError, match="pitch_ratios"):
                parse_request(json.loads(
                    '{"op": "sweep", "pitch_ratios": [%s]}' % token))


    @pytest.mark.parametrize("request_", [
        {"op": "uber", "ecc": "secdde"},
        {"op": "uber", "pattern": "stripes"},
        {"op": "sweep", "eccs": ["secded", "bch"]},
        {"op": "sweep", "patterns": "stripes"},
    ], ids=["uber-ecc", "uber-pattern", "sweep-eccs", "sweep-patterns"])
    def test_unknown_ecc_or_pattern_rejected_at_parse_time(self,
                                                           request_):
        with pytest.raises(ParameterError, match="unknown"):
            parse_request(request_)

    def test_valid_queries_keep_their_fingerprints(self):
        # Keys memoized by servers before names were checked at parse
        # time; checking must not re-key a valid query. (Re-pinned at
        # protocol version 6, which re-keys every query on purpose.)
        pinned = {
            "55faa1c07f5a22c42a854949db03e7a7": {"op": "uber"},
            "686a7faf7304d413846e079695865d08": {
                "op": "uber", "topology": "cross-point", "banks": 2,
                "subarrays": 4, "ecc": "none", "pattern": "solid1"},
            "2225bc328b5a86cdac3c05794f6494f3": {
                "op": "sweep", "patterns": "hot-row",
                "eccs": ["secded"]},
        }
        for key, request_ in pinned.items():
            assert query_fingerprint(parse_request(request_)) == key

    @pytest.mark.parametrize("op", ["sweep", "design"])
    @pytest.mark.parametrize("executor", ["thread", "chunked", 5])
    def test_unknown_executor_rejected_at_parse_time(self, op,
                                                     executor):
        with pytest.raises(ParameterError, match="executor must be"):
            parse_request({"op": op, "executor": executor})

    def test_executor_check_keeps_fingerprints(self):
        # Keys of valid queries with an explicit executor, as memoized
        # before the name was checked at parse time (re-pinned at
        # protocol version 6).
        pinned = {
            "b6b42ac2c523639154b0807d50f9fbf2": {
                "op": "sweep", "executor": "process", "jobs": 2},
            "e6d3afea81b98b9044355a9dbf362802": {
                "op": "design", "executor": "serial"},
            "392c640d893656a9489a947ba552f688": {
                "op": "design", "executor": "distributed",
                "ecds_nm": [35.0], "jobs": 4},
        }
        for key, request_ in pinned.items():
            assert query_fingerprint(parse_request(request_)) == key

class TestTopologyFields:
    def test_defaults_are_flat(self):
        query = parse_request({"op": "uber"})
        assert (query.topology, query.banks, query.subarrays) == \
            ("flat", 1, 1)

    def test_cross_point_spelling_normalizes(self):
        query = parse_request({"op": "uber", "topology": "cross-point",
                               "banks": 2, "subarrays": 2})
        assert query.topology == "cross_point"

    def test_both_spellings_share_a_fingerprint(self):
        dashed = parse_request({"op": "uber", "topology": "cross-point",
                                "banks": 2, "subarrays": 2})
        scored = parse_request({"op": "uber", "topology": "cross_point",
                                "banks": 2, "subarrays": 2})
        assert query_fingerprint(dashed) == query_fingerprint(scored)

    def test_topology_changes_key(self):
        flat = parse_request({"op": "uber"})
        banked = parse_request({"op": "uber", "topology": "banked",
                                "banks": 2, "subarrays": 2})
        assert query_fingerprint(flat) != query_fingerprint(banked)

    def test_unknown_topology_rejected(self):
        with pytest.raises(ParameterError):
            parse_request({"op": "uber", "topology": "toroidal"})

    def test_flat_cannot_shard(self):
        with pytest.raises(ParameterError):
            parse_request({"op": "uber", "banks": 2})

    def test_non_divisible_geometry_rejected(self):
        with pytest.raises(ParameterError):
            parse_request({"op": "uber", "topology": "banked",
                           "banks": 3, "rows": 64})
        with pytest.raises(ParameterError):
            parse_request({"op": "uber", "topology": "banked",
                           "subarrays": 5, "cols": 64})


class TestFingerprint:
    def test_int_and_float_spellings_collapse(self):
        a = parse_request({"op": "uber", "pitch_nm": 70})
        b = parse_request({"op": "uber", "pitch_nm": 70.0})
        assert query_fingerprint(a) == query_fingerprint(b)

    def test_defaults_and_explicit_defaults_collapse(self):
        a = parse_request({"op": "uber"})
        b = parse_request({"op": "uber", "ecc": "secded",
                           "rows": 64})
        assert query_fingerprint(a) == query_fingerprint(b)

    def test_parameter_changes_key(self):
        a = parse_request({"op": "uber", "pitch_nm": 70.0})
        b = parse_request({"op": "uber", "pitch_nm": 60.0})
        assert query_fingerprint(a) != query_fingerprint(b)

    def test_op_changes_key(self):
        assert (query_fingerprint(parse_request({"op": "uber"}))
                != query_fingerprint(parse_request({"op": "sweep"})))

    def test_device_geometry_changes_key(self):
        a = parse_request({"op": "uber"})
        b = parse_request({"op": "uber", "ecd_nm": 25.0})
        assert query_fingerprint(a) != query_fingerprint(b)

    def test_fingerprint_shape(self):
        key = query_fingerprint(UberQuery())
        assert len(key) == 32
        assert all(c in "0123456789abcdef" for c in key)

    def test_version_is_part_of_the_key(self):
        # Defensive: the constant exists and is an int the digest can
        # fold in; bumping it is the documented invalidation story.
        assert isinstance(PROTOCOL_VERSION, int)

    def test_protocol_v6_rekeys_older_results(self):
        # Version 2 retired the uber ``sampler`` field, version 3 moved
        # sampled write data to raw lanes, version 4 the whole-array
        # terms to thinned draws, version 5 retired the uber
        # ``backend`` field and version 6 moved a batch's accesses to
        # per-mechanism draws resolved as per-word chains; the same
        # sampled query keyed these under versions 1 to 5.
        query = parse_request({"op": "uber", "mode": "sampled"})
        assert PROTOCOL_VERSION == 6
        assert query_fingerprint(query) not in (
            "5013250638e628a7892e92bb2346ce3f",
            "85d65c796ab31009938fd68ab238c291",
            "6cc0911c41de28906c372e3d5a9ed0b2",
            "8f537c36028b75e9331810d53256bcc5",
            "ab0d9d311446dc397f0294112fd64d8f")

    def test_stable_across_processes(self):
        # The fingerprint must be derivable from reprs of plain
        # scalars only — spot-check it is deterministic here.
        assert (query_fingerprint(SweepQuery())
                == query_fingerprint(SweepQuery()))


def _uncached_fingerprint(query):
    """``query_fingerprint`` with no memo: a fresh device per call and
    the key tuple digested whole by ``key_digest``."""
    from repro.arrays.kernel_disk import key_digest
    from repro.arrays.kernel_store import stack_fingerprint
    from repro.integrity.manifest import canonical_scalar

    parts = tuple(sorted(
        (field.name, canonical_scalar(getattr(query, field.name)))
        for field in dataclasses.fields(query)))
    stack_key = (stack_fingerprint(device_for(query).stack)
                 if query.op in ("uber", "wer", "sweep") else None)
    hi, lo = key_digest((PROTOCOL_VERSION, query.op, stack_key, parts))
    return f"{hi:016x}{lo:016x}"


#: Per op, spellings whose fingerprints must not move: int vs float
#: numbers, defaults vs explicit values, both topology spellings.
_SPELLINGS = {
    "uber": [{}, {"pitch_nm": 70}, {"pitch_nm": 70.0},
             {"vp": 1, "nominal_wer": 0.002, "seed": 7},
             {"topology": "cross-point", "banks": 2, "subarrays": 4},
             {"topology": "cross_point", "banks": 2, "subarrays": 4}],
    "wer": [{}, {"vp": 1, "pitch_ratio": 2, "seed": 7},
            {"vp": 1.0, "pitch_ratio": 2.0, "seed": 7}],
    "sweep": [{}, {"vp": 1, "pitch_ratios": [2, 3], "seed": 7},
              {"vp": 1.0, "pitch_ratios": [2.0, 3.0], "seed": 7}],
    "design": [{}, {"ecds_nm": [25, 45]}, {"ecds_nm": [25.0, 45.0]}],
    "stats": [{}],
}


def _equivalence_grid():
    for op in QUERY_TYPES:
        ecds = ((None, 25, 25.0, 45) if op in ("uber", "wer", "sweep")
                else (None,))
        for ecd in ecds:
            for extra in _SPELLINGS[op]:
                request_ = {"op": op, **extra}
                if ecd is not None:
                    request_["ecd_nm"] = ecd
                yield request_


class TestFingerprintMemo:
    @pytest.mark.parametrize("request_", list(_equivalence_grid()),
                             ids=repr)
    def test_memoized_key_matches_uncached(self, request_):
        query = parse_request(request_)
        assert query_fingerprint(query) == _uncached_fingerprint(query)

    def test_repeated_fingerprints_build_one_device(self, monkeypatch):
        import repro.service.protocol as protocol

        built = []

        class CountingDevice(protocol.MTJDevice):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(protocol, "MTJDevice", CountingDevice)
        protocol._stack_key_repr.cache_clear()
        keys = {query_fingerprint(parse_request(
            {"op": op, "ecd_nm": ecd, "seed": seed}))
            for op in ("uber", "wer", "sweep")
            for ecd in (33, 33.0) for seed in range(3)}
        assert len(keys) == 9
        assert len(built) == 1
        protocol._stack_key_repr.cache_clear()

    def test_stack_key_memo_is_bounded(self):
        import repro.service.protocol as protocol

        assert protocol._stack_key_repr.cache_info().maxsize is not None


class TestSeedValidation:
    @pytest.mark.parametrize("op", ["uber", "wer", "sweep"])
    @pytest.mark.parametrize("bad", [-1, 1.5, 3.0, "x", [1], True, None],
                             ids=repr)
    def test_bad_seeds_fail_at_parse_time(self, op, bad):
        with pytest.raises(ParameterError, match="seed"):
            parse_request({"op": op, "seed": bad})

    @pytest.mark.parametrize("op", ["uber", "wer", "sweep"])
    def test_any_non_negative_int_seed_parses(self, op):
        for seed in (0, 1, 2**31, 2**64, 10**30):
            assert parse_request({"op": op, "seed": seed}).seed == seed


#: Any JSON value, including ints far past float range (which
#: ``float()`` refuses with OverflowError rather than ValueError).
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.integers() | st.integers(min_value=10**300, max_value=10**500)
    | st.integers(min_value=-10**500, max_value=-10**300),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=4), children,
                                        max_size=4)),
    max_leaves=8)

_OP_FIELDS = [(op, field.name) for op, cls in sorted(QUERY_TYPES.items())
              for field in dataclasses.fields(cls)]


class TestArbitraryValues:
    """A request either parses or raises ParameterError: whatever JSON
    value sits in whichever field, the server can answer it."""

    @pytest.mark.parametrize("op, name", _OP_FIELDS,
                             ids=[f"{op}.{name}" for op, name in _OP_FIELDS])
    @settings(max_examples=40, deadline=None)
    @given(value=_JSON_VALUES)
    @example(value=10**400)
    @example(value=-10**400)
    @example(value=[10**400])
    def test_every_field_parses_or_raises_parameter_error(self, op, name,
                                                          value):
        try:
            parse_request({"op": op, name: value})
        except ParameterError:
            pass

    @settings(max_examples=40, deadline=None)
    @given(op=_JSON_VALUES)
    @example(op=["uber"])
    def test_any_op_value_parses_or_raises_parameter_error(self, op):
        try:
            parse_request({"op": op})
        except ParameterError:
            pass

    @pytest.mark.parametrize("request_", [
        {"op": "uber", "vp": 10**400},
        {"op": "uber", "ecd_nm": 10**400},
        {"op": "wer", "target_wer": 10**400},
        {"op": "sweep", "pitch_ratios": [2.0, 10**400]},
    ], ids=["uber.vp", "uber.ecd_nm", "wer.target_wer",
            "sweep.pitch_ratios"])
    def test_ints_past_float_range_are_parameter_errors(self, request_):
        with pytest.raises(ParameterError):
            parse_request(request_)


class TestDeviceFor:
    def test_default_is_paper_device(self):
        from repro.device import PAPER_EVAL_DEVICE
        device = device_for(UberQuery())
        assert device.params.ecd == PAPER_EVAL_DEVICE.ecd

    def test_ecd_nm_retargets(self):
        device = device_for(UberQuery(ecd_nm=25.0))
        assert device.params.ecd == pytest.approx(25e-9)


class TestPayloadsAreJsonSafe:
    def test_queries_serialize(self):
        # Request dataclasses must stay JSON-representable: the client
        # spells them as dicts on the wire.
        for op in QUERY_TYPES:
            query = parse_request({"op": op})
            json.dumps(dataclasses.asdict(query))


class TestRunners:
    """The blocking runners the server dispatches, called directly."""

    def test_json_safe_coerces_numpy_values(self):
        import numpy as np
        from repro.service.runners import json_safe
        value = {1: np.int64(3), "x": (np.float32(0.5), np.arange(2)),
                 "flag": True, "none": None, "obj": PROTOCOL_VERSION}
        safe = json_safe(value)
        assert safe == {"1": 3, "x": [0.5, [0, 1]], "flag": True,
                        "none": None, "obj": PROTOCOL_VERSION}
        assert type(safe["1"]) is int and type(safe["x"][0]) is float
        assert json.loads(json.dumps(safe)) == safe
        assert json_safe(object).startswith("<class")

    def test_wer_sizes_the_worst_corner(self):
        import threading
        from repro.service.runners import run_wer
        published = []
        out = run_wer(parse_request({"op": "wer", "n_samples": 2000}),
                      threading.Event(),
                      lambda d, t: published.append((d, t)))
        assert published == [(1, 1)]
        # NP8=0 slows the AP->P write: the worst corner needs a longer
        # pulse than the all-AP neighborhood.
        assert out["pattern_penalty_ns"] > 0
        assert out["pulse_ns"] > out["pattern_penalty_ns"]
        assert out["sampled_wer"] < 10 * out["target_wer"] + 2 / 2000
        assert out["pitch_nm"] == pytest.approx(2.0 * 35.0)

    def test_design_rows_follow_the_headers(self):
        import threading
        from repro.service.runners import run_design
        query = parse_request({"op": "design", "ecds_nm": [35.0],
                               "pitch_ratios": [1.5, 3.0]})
        out = run_design(query, threading.Event(), lambda d, t: None)
        assert out["n_points"] == 2 and len(out["rows"]) == 2
        assert all(len(row) == len(out["headers"]) for row in out["rows"])
        assert json.loads(json.dumps(out)) == out
