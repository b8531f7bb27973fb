"""DNS header flags and the EDNS0 pseudo-record.

The header layout (RFC 1035 section 4.1.1, RFC 2535 for AD/CD)::

      0  1  2  3  4  5  6  7  8  9  0  1  2  3  4  5
    +--+--+--+--+--+--+--+--+--+--+--+--+--+--+--+--+
    |QR|   Opcode  |AA|TC|RD|RA| Z|AD|CD|   RCODE   |
    +--+--+--+--+--+--+--+--+--+--+--+--+--+--+--+--+

The single remaining reserved bit ``Z`` is the one the paper proposes to
repurpose for DLV signalling (Section 6.2.1, "Using Z Bit").

Header values are shared: :meth:`HeaderFlags.shared`, :meth:`Edns.shared`
and the wire decoders return one instance per distinct value, so the
thousands of messages of a cell hold, pickle and collect a handful of
header objects instead of one per packet.  Each table is bounded (one
entry per 16-bit header word, per payload size and DO bit) and holds
frozen values that cannot go stale, so it is always on and is not a
``repro.perf`` cache.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

from .constants import Opcode, RCode

# Bit masks within the 16-bit flags word.
QR = 0x8000
AA = 0x0400
TC = 0x0200
RD = 0x0100
RA = 0x0080
Z = 0x0040
AD = 0x0020
CD = 0x0010

_OPCODE_SHIFT = 11
_OPCODE_MASK = 0x7800
_RCODE_MASK = 0x000F

#: EDNS0 flag: DNSSEC OK (RFC 3225), carried in the OPT record TTL field.
EDNS_DO = 0x8000

#: The shared instances, keyed by their fields.  Only canonical keys
#: (bools and enum members) are stored, and only after the value was
#: built, so a failed build caches nothing.
_SHARED_FLAGS: Dict[tuple, "HeaderFlags"] = {}
_SHARED_EDNS: Dict[Tuple[int, bool], "Edns"] = {}


@dataclasses.dataclass(frozen=True)
class HeaderFlags:
    """Decoded header flags.

    ``z`` is the reserved bit repurposed by the paper's second DLV-aware
    signalling remedy: an authoritative server sets it in responses for
    zones that have a DLV record deposited.
    """

    qr: bool = False
    opcode: Opcode = Opcode.QUERY
    aa: bool = False
    tc: bool = False
    rd: bool = False
    ra: bool = False
    z: bool = False
    ad: bool = False
    cd: bool = False
    rcode: RCode = RCode.NOERROR

    def to_wire(self) -> int:
        word = (int(self.opcode) << _OPCODE_SHIFT) & _OPCODE_MASK
        word |= int(self.rcode) & _RCODE_MASK
        for flag, mask in (
            (self.qr, QR),
            (self.aa, AA),
            (self.tc, TC),
            (self.rd, RD),
            (self.ra, RA),
            (self.z, Z),
            (self.ad, AD),
            (self.cd, CD),
        ):
            if flag:
                word |= mask
        return word

    @classmethod
    def shared(
        cls,
        qr: bool = False,
        opcode: Opcode = Opcode.QUERY,
        aa: bool = False,
        tc: bool = False,
        rd: bool = False,
        ra: bool = False,
        z: bool = False,
        ad: bool = False,
        cd: bool = False,
        rcode: RCode = RCode.NOERROR,
    ) -> "HeaderFlags":
        """The shared instance equal to ``HeaderFlags(...)`` of the same
        fields.  An opcode or rcode outside its enum raises
        ``ValueError``."""
        key = (qr, opcode, aa, tc, rd, ra, z, ad, cd, rcode)
        flags = _SHARED_FLAGS.get(key)
        if flags is None:
            canonical = (
                bool(qr), Opcode(opcode), bool(aa), bool(tc), bool(rd),
                bool(ra), bool(z), bool(ad), bool(cd), RCode(rcode),
            )
            flags = _SHARED_FLAGS.setdefault(canonical, cls(*canonical))
        return flags

    @classmethod
    def from_wire(cls, word: int) -> "HeaderFlags":
        """The shared instance for a header word; ``ValueError`` for an
        unknown opcode or rcode."""
        return cls.shared(
            qr=bool(word & QR),
            opcode=(word & _OPCODE_MASK) >> _OPCODE_SHIFT,
            aa=bool(word & AA),
            tc=bool(word & TC),
            rd=bool(word & RD),
            ra=bool(word & RA),
            z=bool(word & Z),
            ad=bool(word & AD),
            cd=bool(word & CD),
            rcode=word & _RCODE_MASK,
        )

    def replace(self, **changes) -> "HeaderFlags":
        return self.shared(**{**dataclasses.asdict(self), **changes})


@dataclasses.dataclass(frozen=True)
class Edns:
    """EDNS0 OPT pseudo-record state (RFC 6891).

    Only the pieces the experiments need: the advertised UDP payload size
    and the DO ("DNSSEC OK", RFC 3225) bit that security-aware resolvers
    set on their queries.
    """

    udp_payload_size: int = 4096
    dnssec_ok: bool = False

    #: Wire size of an OPT RR with empty RDATA: root owner name (1) +
    #: type (2) + class (2) + ttl (4) + rdlength (2).
    WIRE_SIZE = 11

    def ttl_field(self) -> int:
        return EDNS_DO if self.dnssec_ok else 0

    @classmethod
    def shared(
        cls, udp_payload_size: int = 4096, dnssec_ok: bool = False
    ) -> "Edns":
        """The shared instance equal to ``Edns(...)`` of the same fields."""
        edns = _SHARED_EDNS.get((udp_payload_size, dnssec_ok))
        if edns is None:
            canonical = (udp_payload_size, bool(dnssec_ok))
            edns = _SHARED_EDNS.setdefault(canonical, cls(*canonical))
        return edns

    @classmethod
    def from_ttl_field(cls, udp_payload_size: int, ttl: int) -> "Edns":
        return cls.shared(udp_payload_size, bool(ttl & EDNS_DO))
