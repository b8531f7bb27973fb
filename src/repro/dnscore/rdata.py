"""Resource-record data (RDATA) types with RFC-faithful wire encodings.

Every rdata class implements ``to_wire`` / ``from_wire`` so that message
sizes measured by the network simulator reflect real DNS payloads, and a
stable canonical form used as signing input by the DNSSEC signer.

The DLV record (RFC 4431) has exactly the DS wire format, so it is
modelled as a subclass of :class:`DS`.
"""

from __future__ import annotations

import dataclasses
import ipaddress
import struct
from typing import ClassVar, Dict, FrozenSet, Iterable, List, Tuple, Type

from .. import perf
from .constants import Algorithm, DigestType, RRType
from .names import Name


class RdataError(ValueError):
    """Raised for malformed rdata."""


def _encode_name(name: Name) -> bytes:
    out = bytearray()
    for label in name.labels:
        raw = label.encode("ascii")
        out.append(len(raw))
        out.extend(raw)
    out.append(0)
    return bytes(out)


def _decode_name(data: bytes, offset: int) -> Tuple[Name, int]:
    labels: List[str] = []
    while True:
        if offset >= len(data):
            raise RdataError("truncated name")
        length = data[offset]
        offset += 1
        if length == 0:
            break
        if length > 63:
            raise RdataError("label length exceeds 63 (compression unsupported)")
        if offset + length > len(data):
            raise RdataError("truncated label")
        labels.append(data[offset : offset + length].decode("ascii"))
        offset += length
    return Name(labels), offset


def encode_type_bitmap(types: Iterable[RRType]) -> bytes:
    """Encode an NSEC/NSEC3 type bitmap (RFC 4034 section 4.1.2)."""
    windows: Dict[int, bytearray] = {}
    for rtype in sorted(int(t) for t in types):
        window, low = divmod(rtype, 256)
        bitmap = windows.setdefault(window, bytearray(32))
        bitmap[low // 8] |= 0x80 >> (low % 8)
    out = bytearray()
    for window in sorted(windows):
        bitmap = windows[window]
        length = 32
        while length > 0 and bitmap[length - 1] == 0:
            length -= 1
        if length == 0:
            continue
        out.append(window)
        out.append(length)
        out.extend(bitmap[:length])
    return bytes(out)


def decode_type_bitmap(data: bytes) -> FrozenSet[RRType]:
    types: List[RRType] = []
    offset = 0
    while offset < len(data):
        if offset + 2 > len(data):
            raise RdataError("truncated type bitmap header")
        window = data[offset]
        length = data[offset + 1]
        offset += 2
        if length == 0 or length > 32 or offset + length > len(data):
            raise RdataError("malformed type bitmap window")
        for index in range(length):
            octet = data[offset + index]
            for bit in range(8):
                if octet & (0x80 >> bit):
                    value = window * 256 + index * 8 + bit
                    types.append(RRType.from_value(value))
        offset += length
    return frozenset(types)


class Rdata:
    """Base class for all rdata types."""

    rtype: ClassVar[RRType]

    def to_wire(self) -> bytes:
        raise NotImplementedError

    @classmethod
    def from_wire(cls, data: bytes) -> "Rdata":
        raise NotImplementedError

    def cached_wire(self) -> bytes:
        """``to_wire()``, memoized per instance while the hot-path
        caches are on.  All rdata classes are frozen dataclasses, so the
        encoding never changes after construction; the cache lives in
        the instance dict, invisible to dataclass eq/hash/repr."""
        if not perf.ENABLED:
            return self.to_wire()
        wire = self.__dict__.get("_wire_cache")
        if wire is None:
            wire = self.to_wire()
            object.__setattr__(self, "_wire_cache", wire)
        return wire

    def canonical_form(self) -> bytes:
        """Byte string used as signing input; wire form by default."""
        return self.cached_wire()


#: Address strings already validated by A/AAAA ``__post_init__`` —
#: universes rebuild records for the same few hundred server addresses
#: over and over, and :mod:`ipaddress` parsing is the dominant cost of
#: constructing them.  Keyed by family so an IPv6 literal can never
#: satisfy IPv4 validation.  Only *valid* addresses are remembered, so a
#: hit can never let a malformed address through.
_VALIDATED_ADDRESSES: set = set()
_VALIDATED_ADDRESSES_CAP = 8192

perf.register_cache(
    "dnscore.address_validation",
    _VALIDATED_ADDRESSES.clear,
    lambda: {"size": len(_VALIDATED_ADDRESSES)},
)


def _check_address(family: str, address: str, parser) -> None:
    if perf.ENABLED and (family, address) in _VALIDATED_ADDRESSES:
        return
    parser(address)
    if perf.ENABLED and len(_VALIDATED_ADDRESSES) < _VALIDATED_ADDRESSES_CAP:
        _VALIDATED_ADDRESSES.add((family, address))


_REGISTRY: Dict[RRType, Type[Rdata]] = {}


def _register(cls: Type[Rdata]) -> Type[Rdata]:
    _REGISTRY[cls.rtype] = cls
    return cls


def rdata_class_for(rtype: RRType) -> Type[Rdata]:
    try:
        return _REGISTRY[rtype]
    except KeyError as exc:
        raise RdataError(f"no rdata class registered for {rtype!r}") from exc


@_register
@dataclasses.dataclass(frozen=True)
class A(Rdata):
    """IPv4 address record."""

    rtype: ClassVar[RRType] = RRType.A
    address: str

    def __post_init__(self) -> None:
        _check_address("v4", self.address, ipaddress.IPv4Address)

    def to_wire(self) -> bytes:
        return ipaddress.IPv4Address(self.address).packed

    @classmethod
    def from_wire(cls, data: bytes) -> "A":
        if len(data) != 4:
            raise RdataError("A rdata must be 4 octets")
        return cls(str(ipaddress.IPv4Address(data)))


@_register
@dataclasses.dataclass(frozen=True)
class AAAA(Rdata):
    """IPv6 address record."""

    rtype: ClassVar[RRType] = RRType.AAAA
    address: str

    def __post_init__(self) -> None:
        _check_address("v6", self.address, ipaddress.IPv6Address)

    def to_wire(self) -> bytes:
        return ipaddress.IPv6Address(self.address).packed

    @classmethod
    def from_wire(cls, data: bytes) -> "AAAA":
        if len(data) != 16:
            raise RdataError("AAAA rdata must be 16 octets")
        return cls(str(ipaddress.IPv6Address(data)))


@_register
@dataclasses.dataclass(frozen=True)
class NS(Rdata):
    """Name server record."""

    rtype: ClassVar[RRType] = RRType.NS
    target: Name

    def to_wire(self) -> bytes:
        return _encode_name(self.target)

    @classmethod
    def from_wire(cls, data: bytes) -> "NS":
        target, offset = _decode_name(data, 0)
        if offset != len(data):
            raise RdataError("trailing bytes in NS rdata")
        return cls(target)


@_register
@dataclasses.dataclass(frozen=True)
class CNAME(Rdata):
    """Canonical-name alias record."""

    rtype: ClassVar[RRType] = RRType.CNAME
    target: Name

    def to_wire(self) -> bytes:
        return _encode_name(self.target)

    @classmethod
    def from_wire(cls, data: bytes) -> "CNAME":
        target, offset = _decode_name(data, 0)
        if offset != len(data):
            raise RdataError("trailing bytes in CNAME rdata")
        return cls(target)


@_register
@dataclasses.dataclass(frozen=True)
class PTR(Rdata):
    """Reverse-lookup pointer record."""

    rtype: ClassVar[RRType] = RRType.PTR
    target: Name

    def to_wire(self) -> bytes:
        return _encode_name(self.target)

    @classmethod
    def from_wire(cls, data: bytes) -> "PTR":
        target, offset = _decode_name(data, 0)
        if offset != len(data):
            raise RdataError("trailing bytes in PTR rdata")
        return cls(target)


@_register
@dataclasses.dataclass(frozen=True)
class MX(Rdata):
    """Mail exchanger record."""

    rtype: ClassVar[RRType] = RRType.MX
    preference: int
    exchange: Name

    def to_wire(self) -> bytes:
        return struct.pack("!H", self.preference) + _encode_name(self.exchange)

    @classmethod
    def from_wire(cls, data: bytes) -> "MX":
        if len(data) < 3:
            raise RdataError("truncated MX rdata")
        (preference,) = struct.unpack("!H", data[:2])
        exchange, offset = _decode_name(data, 2)
        if offset != len(data):
            raise RdataError("trailing bytes in MX rdata")
        return cls(preference, exchange)


@_register
@dataclasses.dataclass(frozen=True)
class SOA(Rdata):
    """Start-of-authority record."""

    rtype: ClassVar[RRType] = RRType.SOA
    mname: Name
    rname: Name
    serial: int
    refresh: int = 7200
    retry: int = 3600
    expire: int = 1209600
    minimum: int = 3600

    def to_wire(self) -> bytes:
        return (
            _encode_name(self.mname)
            + _encode_name(self.rname)
            + struct.pack(
                "!IIIII",
                self.serial,
                self.refresh,
                self.retry,
                self.expire,
                self.minimum,
            )
        )

    @classmethod
    def from_wire(cls, data: bytes) -> "SOA":
        mname, offset = _decode_name(data, 0)
        rname, offset = _decode_name(data, offset)
        if len(data) - offset != 20:
            raise RdataError("SOA fixed fields must be 20 octets")
        serial, refresh, retry, expire, minimum = struct.unpack(
            "!IIIII", data[offset:]
        )
        return cls(mname, rname, serial, refresh, retry, expire, minimum)


@_register
@dataclasses.dataclass(frozen=True)
class TXT(Rdata):
    """Text record.

    The paper's first remedy rides on TXT: a registrant publishes
    ``dlv=1`` (or ``dlv=0``) to tell resolvers whether a DLV record was
    deposited for the zone (Section 6.2.1, "Using TXT Record").
    """

    rtype: ClassVar[RRType] = RRType.TXT
    strings: Tuple[str, ...]

    def __post_init__(self) -> None:
        for string in self.strings:
            if len(string.encode("ascii")) > 255:
                raise RdataError("TXT character-string exceeds 255 octets")

    def to_wire(self) -> bytes:
        out = bytearray()
        for string in self.strings:
            raw = string.encode("ascii")
            out.append(len(raw))
            out.extend(raw)
        return bytes(out)

    @classmethod
    def from_wire(cls, data: bytes) -> "TXT":
        strings: List[str] = []
        offset = 0
        while offset < len(data):
            length = data[offset]
            offset += 1
            if offset + length > len(data):
                raise RdataError("truncated TXT character-string")
            strings.append(data[offset : offset + length].decode("ascii"))
            offset += length
        return cls(tuple(strings))

    def dlv_signal(self) -> "int | None":
        """Parse the paper's ``dlv=0/1`` signalling convention.

        Returns 1, 0, or ``None`` when no ``dlv=`` string is present.
        """
        for string in self.strings:
            if string.lower().startswith("dlv="):
                value = string[4:]
                if value in ("0", "1"):
                    return int(value)
        return None


@_register
@dataclasses.dataclass(frozen=True)
class DS(Rdata):
    """Delegation signer record (RFC 4034 section 5)."""

    rtype: ClassVar[RRType] = RRType.DS
    key_tag: int
    algorithm: Algorithm
    digest_type: DigestType
    digest: bytes

    def to_wire(self) -> bytes:
        return (
            struct.pack("!HBB", self.key_tag, int(self.algorithm), int(self.digest_type))
            + self.digest
        )

    @classmethod
    def from_wire(cls, data: bytes) -> "DS":
        if len(data) < 4:
            raise RdataError("truncated DS rdata")
        key_tag, algorithm, digest_type = struct.unpack("!HBB", data[:4])
        return cls(key_tag, Algorithm(algorithm), DigestType(digest_type), data[4:])


@_register
@dataclasses.dataclass(frozen=True)
class DLV(DS):
    """DNSSEC Look-aside Validation record (RFC 4431).

    Wire-identical to DS; only the type code differs.  A zone owner
    deposits these in a DLV registry to delegate a trust anchor outside
    the normal DNS delegation chain.
    """

    rtype: ClassVar[RRType] = RRType.DLV

    @classmethod
    def from_ds(cls, ds: DS) -> "DLV":
        return cls(ds.key_tag, ds.algorithm, ds.digest_type, ds.digest)

    @classmethod
    def from_wire(cls, data: bytes) -> "DLV":
        ds = DS.from_wire(data)
        return cls.from_ds(ds)


@_register
@dataclasses.dataclass(frozen=True)
class DNSKEY(Rdata):
    """DNS public key record (RFC 4034 section 2).

    ``flags`` bit 7 (value 256) marks a zone key; bit 15 (value 1,
    combined: 257) marks the secure entry point / key-signing key.
    """

    rtype: ClassVar[RRType] = RRType.DNSKEY
    flags: int
    protocol: int
    algorithm: Algorithm
    public_key: bytes

    ZONE_KEY_FLAGS: ClassVar[int] = 256
    KSK_FLAGS: ClassVar[int] = 257

    def to_wire(self) -> bytes:
        return (
            struct.pack("!HBB", self.flags, self.protocol, int(self.algorithm))
            + self.public_key
        )

    @classmethod
    def from_wire(cls, data: bytes) -> "DNSKEY":
        if len(data) < 4:
            raise RdataError("truncated DNSKEY rdata")
        flags, protocol, algorithm = struct.unpack("!HBB", data[:4])
        return cls(flags, protocol, Algorithm(algorithm), data[4:])

    def is_ksk(self) -> bool:
        return self.flags & 1 == 1

    def key_tag(self) -> int:
        """RFC 4034 appendix B key-tag computation."""
        if perf.ENABLED:
            cached = self.__dict__.get("_key_tag_cache")
            if cached is not None:
                return cached
        wire = self.to_wire()
        accumulator = 0
        for index, octet in enumerate(wire):
            if index % 2 == 0:
                accumulator += octet << 8
            else:
                accumulator += octet
        accumulator += (accumulator >> 16) & 0xFFFF
        tag = accumulator & 0xFFFF
        if perf.ENABLED:
            object.__setattr__(self, "_key_tag_cache", tag)
        return tag


@_register
@dataclasses.dataclass(frozen=True)
class RRSIG(Rdata):
    """Resource record signature (RFC 4034 section 3)."""

    rtype: ClassVar[RRType] = RRType.RRSIG
    type_covered: RRType
    algorithm: Algorithm
    labels: int
    original_ttl: int
    expiration: int
    inception: int
    key_tag: int
    signer: Name
    signature: bytes

    def to_wire(self) -> bytes:
        return (
            struct.pack(
                "!HBBIIIH",
                int(self.type_covered),
                int(self.algorithm),
                self.labels,
                self.original_ttl,
                self.expiration,
                self.inception,
                self.key_tag,
            )
            + _encode_name(self.signer)
            + self.signature
        )

    @classmethod
    def from_wire(cls, data: bytes) -> "RRSIG":
        if len(data) < 18:
            raise RdataError("truncated RRSIG rdata")
        (
            type_covered,
            algorithm,
            labels,
            original_ttl,
            expiration,
            inception,
            key_tag,
        ) = struct.unpack("!HBBIIIH", data[:18])
        signer, offset = _decode_name(data, 18)
        return cls(
            RRType.from_value(type_covered),
            Algorithm(algorithm),
            labels,
            original_ttl,
            expiration,
            inception,
            key_tag,
            signer,
            data[offset:],
        )

    def signed_fields_wire(self) -> bytes:
        """The RRSIG RDATA with the signature field excluded — the prefix
        of the signing input (RFC 4034 section 3.1.8.1)."""
        return (
            struct.pack(
                "!HBBIIIH",
                int(self.type_covered),
                int(self.algorithm),
                self.labels,
                self.original_ttl,
                self.expiration,
                self.inception,
                self.key_tag,
            )
            + _encode_name(self.signer)
        )


@_register
@dataclasses.dataclass(frozen=True)
class NSEC(Rdata):
    """Next-secure record (RFC 4034 section 4).

    NSEC is what makes the paper's "aggressive negative caching"
    observation work: a single validated NSEC proves the non-existence of
    every name in canonical order between its owner and ``next_name``,
    letting the resolver suppress future DLV queries in that span.
    """

    rtype: ClassVar[RRType] = RRType.NSEC
    next_name: Name
    types: FrozenSet[RRType]

    def to_wire(self) -> bytes:
        return _encode_name(self.next_name) + encode_type_bitmap(self.types)

    @classmethod
    def from_wire(cls, data: bytes) -> "NSEC":
        next_name, offset = _decode_name(data, 0)
        return cls(next_name, decode_type_bitmap(data[offset:]))


@_register
@dataclasses.dataclass(frozen=True)
class NSEC3(Rdata):
    """Hashed next-secure record (RFC 5155).

    The paper notes (Section 7.3) that NSEC3 defeats aggressive negative
    caching, so a DLV registry using NSEC3 would leak *every* query.
    """

    rtype: ClassVar[RRType] = RRType.NSEC3
    hash_algorithm: int
    flags: int
    iterations: int
    salt: bytes
    next_hashed: bytes
    types: FrozenSet[RRType]

    def to_wire(self) -> bytes:
        return (
            struct.pack("!BBH", self.hash_algorithm, self.flags, self.iterations)
            + bytes([len(self.salt)])
            + self.salt
            + bytes([len(self.next_hashed)])
            + self.next_hashed
            + encode_type_bitmap(self.types)
        )

    @classmethod
    def from_wire(cls, data: bytes) -> "NSEC3":
        if len(data) < 5:
            raise RdataError("truncated NSEC3 rdata")
        hash_algorithm, flags, iterations = struct.unpack("!BBH", data[:4])
        offset = 4
        salt_length = data[offset]
        offset += 1
        # The salt must leave room for the hash-length octet.
        if offset + salt_length >= len(data):
            raise RdataError("truncated NSEC3 rdata")
        salt = data[offset : offset + salt_length]
        offset += salt_length
        hash_length = data[offset]
        offset += 1
        if offset + hash_length > len(data):
            raise RdataError("truncated NSEC3 rdata")
        next_hashed = data[offset : offset + hash_length]
        offset += hash_length
        return cls(
            hash_algorithm,
            flags,
            iterations,
            salt,
            next_hashed,
            decode_type_bitmap(data[offset:]),
        )


@_register
@dataclasses.dataclass(frozen=True)
class NSEC3PARAM(Rdata):
    """NSEC3 parameters advertised at the zone apex (RFC 5155 section 4)."""

    rtype: ClassVar[RRType] = RRType.NSEC3PARAM
    hash_algorithm: int
    flags: int
    iterations: int
    salt: bytes

    def to_wire(self) -> bytes:
        return (
            struct.pack("!BBH", self.hash_algorithm, self.flags, self.iterations)
            + bytes([len(self.salt)])
            + self.salt
        )

    @classmethod
    def from_wire(cls, data: bytes) -> "NSEC3PARAM":
        if len(data) < 5:
            raise RdataError("truncated NSEC3PARAM rdata")
        hash_algorithm, flags, iterations = struct.unpack("!BBH", data[:4])
        salt_length = data[4]
        salt = data[5 : 5 + salt_length]
        if len(salt) != salt_length:
            raise RdataError("truncated NSEC3PARAM salt")
        return cls(hash_algorithm, flags, iterations, salt)
