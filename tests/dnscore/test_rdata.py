"""Tests for rdata wire encodings."""

import pytest
from hypothesis import given, strategies as st

from repro.dnscore import (
    A,
    AAAA,
    CNAME,
    DLV,
    DNSKEY,
    DS,
    MX,
    NS,
    NSEC,
    NSEC3,
    NSEC3PARAM,
    PTR,
    RRSIG,
    SOA,
    TXT,
    Algorithm,
    DigestType,
    Name,
    RdataError,
    RRType,
    decode_type_bitmap,
    encode_type_bitmap,
)
from repro.dnscore.rdata import rdata_class_for


def n(text):
    return Name.from_text(text)


SAMPLES = [
    A("192.0.2.1"),
    AAAA("2001:db8::1"),
    NS(n("ns1.example.com")),
    CNAME(n("target.example.net")),
    PTR(n("host.example.com")),
    MX(10, n("mail.example.com")),
    SOA(n("ns1.example.com"), n("hostmaster.example.com"), 2024010101),
    TXT(("dlv=1", "hello world")),
    DS(12345, Algorithm.RSASHA256, DigestType.SHA256, b"\x01" * 32),
    DLV(12345, Algorithm.RSASHA256, DigestType.SHA256, b"\x02" * 32),
    DNSKEY(257, 3, Algorithm.RSASHA256, b"\x03" * 65),
    RRSIG(
        RRType.A,
        Algorithm.RSASHA256,
        2,
        3600,
        2**31 - 1,
        0,
        54321,
        n("example.com"),
        b"\x04" * 64,
    ),
    NSEC(n("b.example.com"), frozenset({RRType.A, RRType.NS, RRType.DLV})),
    NSEC3(1, 0, 10, b"\xab\xcd", b"\x05" * 20, frozenset({RRType.DS})),
    NSEC3PARAM(1, 0, 10, b"\xab\xcd"),
]


@pytest.mark.parametrize("rdata", SAMPLES, ids=lambda r: type(r).__name__)
def test_wire_roundtrip(rdata):
    cls = type(rdata)
    assert cls.from_wire(rdata.to_wire()) == rdata


@pytest.mark.parametrize("rdata", SAMPLES, ids=lambda r: type(r).__name__)
def test_registry_maps_type_to_class(rdata):
    assert rdata_class_for(rdata.rtype) is type(rdata)


class TestTypeBitmap:
    def test_empty(self):
        assert decode_type_bitmap(encode_type_bitmap([])) == frozenset()

    def test_dlv_lives_in_high_window(self):
        wire = encode_type_bitmap([RRType.DLV])
        assert wire[0] == 128  # window 128 for type 32769
        assert decode_type_bitmap(wire) == frozenset({RRType.DLV})

    def test_mixed_windows(self):
        types = frozenset({RRType.A, RRType.NSEC, RRType.DLV})
        assert decode_type_bitmap(encode_type_bitmap(types)) == types

    def test_truncated_bitmap_rejected(self):
        with pytest.raises(RdataError):
            decode_type_bitmap(b"\x00\x05\x01")

    @given(
        st.frozensets(
            st.sampled_from(sorted(RRType, key=int)), min_size=0, max_size=8
        )
    )
    def test_roundtrip_property(self, types):
        assert decode_type_bitmap(encode_type_bitmap(types)) == types


class TestValidation:
    def test_a_rejects_bad_address(self):
        with pytest.raises(ValueError):
            A("999.0.0.1")

    def test_a_rejects_wrong_wire_length(self):
        with pytest.raises(RdataError):
            A.from_wire(b"\x01\x02\x03")

    def test_txt_rejects_oversized_string(self):
        with pytest.raises(RdataError):
            TXT(("x" * 256,))

    def test_soa_rejects_short_fixed_fields(self):
        with pytest.raises(RdataError):
            SOA.from_wire(b"\x00\x00" + b"\x00" * 10)

    @pytest.mark.parametrize(
        "wire",
        [
            b"\x07examplf\x03com\x00\x00\x01 ",  # salt runs past the end
            b"\x01\x00\x00\x0a\x00\x14\xab",  # hash runs past the end
        ],
    )
    def test_nsec3_rejects_fields_past_the_end(self, wire):
        with pytest.raises(RdataError):
            NSEC3.from_wire(wire)


class TestDnskey:
    def test_ksk_flag(self):
        assert DNSKEY(257, 3, Algorithm.RSASHA256, b"k").is_ksk()
        assert not DNSKEY(256, 3, Algorithm.RSASHA256, b"k").is_ksk()

    def test_key_tag_is_stable_16bit(self):
        key = DNSKEY(257, 3, Algorithm.RSASHA256, b"\x10\x20\x30")
        tag = key.key_tag()
        assert 0 <= tag <= 0xFFFF
        assert key.key_tag() == tag

    def test_key_tag_depends_on_material(self):
        a = DNSKEY(257, 3, Algorithm.RSASHA256, b"\x01" * 32)
        b = DNSKEY(257, 3, Algorithm.RSASHA256, b"\x02" * 32)
        assert a.key_tag() != b.key_tag()


class TestTxtDlvSignal:
    def test_signal_one(self):
        assert TXT(("dlv=1",)).dlv_signal() == 1

    def test_signal_zero(self):
        assert TXT(("other", "dlv=0")).dlv_signal() == 0

    def test_no_signal(self):
        assert TXT(("v=spf1 -all",)).dlv_signal() is None

    def test_malformed_signal_ignored(self):
        assert TXT(("dlv=yes",)).dlv_signal() is None


class TestDlvIsDsShaped:
    def test_from_ds(self):
        ds = DS(7, Algorithm.RSASHA256, DigestType.SHA256, b"\xaa" * 32)
        dlv = DLV.from_ds(ds)
        assert dlv.rtype is RRType.DLV
        assert dlv.to_wire() == ds.to_wire()
