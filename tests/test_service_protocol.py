"""Wire protocol: parsing, normalization, and fingerprints."""

import dataclasses
import json

import pytest

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
        # time; checking must not re-key a valid query.
        pinned = {
            "1614af30795b69e7eb3ffc0b459c5483": {"op": "uber"},
            "9355867ebd6dc9b6d3abc544a617ae67": {
                "op": "uber", "topology": "cross-point", "banks": 2,
                "subarrays": 4, "ecc": "none", "pattern": "solid1"},
            "20b1c005e4aebd8021be286e28658827": {
                "op": "sweep", "patterns": "hot-row",
                "eccs": ["secded"]},
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

    def test_protocol_v2_rekeys_v1_results(self):
        # Version 2 retired the uber ``sampler`` field; the same
        # sampled query keyed this under version 1.
        query = parse_request({"op": "uber", "mode": "sampled"})
        assert PROTOCOL_VERSION == 2
        assert (query_fingerprint(query)
                != "5013250638e628a7892e92bb2346ce3f")

    def test_stable_across_processes(self):
        # The fingerprint must be derivable from reprs of plain
        # scalars only — spot-check it is deterministic here.
        assert (query_fingerprint(SweepQuery())
                == query_fingerprint(SweepQuery()))


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
