"""Header values are shared: one ``HeaderFlags`` / ``Edns`` instance per
distinct value, on every path that builds messages or reads stored
cells, and each shared instance is indistinguishable from the one the
plain constructor builds.
"""

import dataclasses
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    LeakageExperiment,
    ResultStore,
    plan_shards,
    run_shard,
    shard_cell_key,
    standard_universe,
    standard_universe_factory,
    standard_workload,
)
from repro.dnscore import (
    Edns,
    HeaderFlags,
    Message,
    Name,
    Opcode,
    RCode,
    RRType,
    WireError,
    decode_message,
    encode_message,
)
from repro.dnscore import flags as flags_module
from repro.resolver import correct_bind_config

DOMAINS = 12
FILLER = 200
SEED = 2016


def _header_objects(result):
    """The distinct header objects (by ``id``) in a result's capture."""
    flags, edns = {}, {}
    for record in result.capture:
        message = record.message
        flags[id(message.flags)] = message.flags
        if message.edns is not None:
            edns[id(message.edns)] = message.edns
    return list(flags.values()), list(edns.values())


def _assert_indistinguishable(shared, cls):
    built = cls(**dataclasses.asdict(shared))
    assert shared == built
    assert hash(shared) == hash(built)
    assert repr(shared) == repr(built)


@pytest.fixture(scope="module")
def cell():
    """A small fig8-style cell: its result and its store key."""
    factory = standard_universe_factory(
        DOMAINS, filler_count=FILLER, workload_seed=SEED
    )
    names = standard_workload(DOMAINS, seed=SEED).names(DOMAINS)
    spec = plan_shards(names, 1, SEED)[0]
    result = run_shard(factory, correct_bind_config(), spec)
    key = shard_cell_key(
        factory, correct_bind_config(), spec, shard_count=1, seed=SEED
    )
    return key, result


def test_fig8_cell_holds_one_object_per_header_value():
    workload = standard_workload(DOMAINS, seed=SEED)
    universe = standard_universe(workload, filler_count=FILLER)
    result = LeakageExperiment(universe, correct_bind_config()).run(
        workload.names(DOMAINS)
    )
    flags, edns = _header_objects(result)
    assert len(result.capture) > 100
    assert len(flags) == len(set(flags))
    assert len(edns) == len(set(edns))
    for shared in flags:
        _assert_indistinguishable(shared, HeaderFlags)
    for shared in edns:
        _assert_indistinguishable(shared, Edns)


def test_stored_cell_loads_back_shared(tmp_path, cell):
    key, result = cell
    ResultStore(tmp_path).commit(key, result)
    loaded = ResultStore(tmp_path).load(key)
    assert loaded is not None
    flags, edns = _header_objects(loaded)
    assert len(result.capture) > 100
    assert len(flags) == len(set(flags))
    assert len(edns) == len(set(edns))


_flag_fields = st.fixed_dictionaries(
    {
        "qr": st.booleans(),
        "opcode": st.sampled_from(list(Opcode)),
        "aa": st.booleans(),
        "tc": st.booleans(),
        "rd": st.booleans(),
        "ra": st.booleans(),
        "z": st.booleans(),
        "ad": st.booleans(),
        "cd": st.booleans(),
        "rcode": st.sampled_from(list(RCode)),
    }
)


@given(_flag_fields)
def test_shared_flags_equal_constructed_flags(fields):
    shared = HeaderFlags.shared(**fields)
    built = HeaderFlags(**fields)
    assert shared is HeaderFlags.shared(**fields)
    assert shared == built
    _assert_indistinguishable(shared, HeaderFlags)
    assert HeaderFlags.from_wire(built.to_wire()) is shared
    assert built.replace() is shared
    assert built.replace(z=not fields["z"]) is HeaderFlags.shared(
        **dict(fields, z=not fields["z"])
    )


@given(st.integers(0, 0xFFFF), st.booleans())
def test_shared_edns_equal_constructed_edns(size, dnssec_ok):
    shared = Edns.shared(size, dnssec_ok)
    assert shared is Edns.shared(udp_payload_size=size, dnssec_ok=dnssec_ok)
    assert shared is Edns.from_ttl_field(size, shared.ttl_field())
    _assert_indistinguishable(shared, Edns)


def test_message_builders_share_header_values():
    name = Name.from_text("www.example.com.")
    query = Message.make_query(7, name, RRType.A, dnssec_ok=True)
    again = Message.make_query(8, name, RRType.AAAA, dnssec_ok=True)
    assert query.flags is again.flags
    assert query.edns is again.edns
    assert query.flags == HeaderFlags(rd=True)
    assert query.edns == Edns(dnssec_ok=True)
    response = query.make_response(rcode=RCode.NXDOMAIN, authoritative=True)
    assert response.flags is again.make_response(
        rcode=RCode.NXDOMAIN, authoritative=True
    ).flags
    assert response.flags == HeaderFlags(
        qr=True, aa=True, rd=True, ra=True, rcode=RCode.NXDOMAIN
    )


def test_wire_round_trip_returns_the_same_instances():
    name = Name.from_text("www.example.com.")
    query = Message.make_query(7, name, RRType.A, dnssec_ok=True)
    response = query.make_response(authenticated_data=True, z_bit=True)
    for message in (query, response):
        decoded = decode_message(encode_message(message))
        assert decoded.flags is message.flags
        assert decoded.edns is message.edns


@pytest.mark.parametrize(
    "word",
    [
        3 << 11,  # opcode 3 is unassigned
        0x8000 | (15 << 11),
        0x8000 | 9,  # rcode 9 is outside RCode
    ],
)
def test_bad_header_word_still_raises_and_is_never_cached(word):
    query = Message.make_query(
        7, Name.from_text("www.example.com."), RRType.A
    )
    wire = bytearray(encode_message(query))
    struct.pack_into("!H", wire, 2, word)
    shared = len(flags_module._SHARED_FLAGS)
    for _ in range(2):
        with pytest.raises(WireError):
            decode_message(bytes(wire))
        with pytest.raises(ValueError):
            HeaderFlags.from_wire(word)
    assert len(flags_module._SHARED_FLAGS) == shared


def test_bad_opcode_or_rcode_field_raises():
    flags = HeaderFlags.shared(qr=True)
    shared = len(flags_module._SHARED_FLAGS)
    for _ in range(2):
        with pytest.raises(ValueError):
            HeaderFlags.shared(opcode=3)
        with pytest.raises(ValueError):
            HeaderFlags.shared(rcode=16)
        with pytest.raises(ValueError):
            flags.replace(rcode=99)
    assert len(flags_module._SHARED_FLAGS) == shared
