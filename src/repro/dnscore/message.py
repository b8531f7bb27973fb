"""DNS messages: header, question, and the three record sections."""

from __future__ import annotations

import dataclasses
from typing import Iterator, Optional, Tuple

from .. import perf
from .constants import RCode, RRClass, RRType
from .flags import Edns, HeaderFlags
from .names import Name
from .rrset import RRset


@dataclasses.dataclass(frozen=True)
class Question:
    """The question section entry of a query or response."""

    name: Name
    rtype: RRType
    rclass: RRClass = RRClass.IN

    def wire_size(self) -> int:
        return self.name.wire_length() + 4

    def __repr__(self) -> str:
        return f"Question({self.name.to_text()} {self.rtype.name})"


@dataclasses.dataclass(frozen=True)
class Message:
    """A DNS message.

    Sections hold :class:`RRset` objects rather than individual records;
    the wire codec flattens them.  ``edns`` carries the OPT pseudo-record
    (None means no EDNS0, as in pre-DNSSEC queries).
    """

    message_id: int
    flags: HeaderFlags
    question: Optional[Question]
    answer: Tuple[RRset, ...] = ()
    authority: Tuple[RRset, ...] = ()
    additional: Tuple[RRset, ...] = ()
    edns: Optional[Edns] = None

    HEADER_SIZE = 12

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def make_query(
        cls,
        message_id: int,
        name: Name,
        rtype: RRType,
        recursion_desired: bool = True,
        dnssec_ok: bool = False,
        checking_disabled: bool = False,
    ) -> "Message":
        flags = HeaderFlags.shared(rd=recursion_desired, cd=checking_disabled)
        edns = Edns.shared(dnssec_ok=True) if dnssec_ok else None
        return cls(
            message_id=message_id,
            flags=flags,
            question=Question(name, rtype),
            edns=edns,
        )

    def make_response(
        self,
        rcode: RCode = RCode.NOERROR,
        answer: Tuple[RRset, ...] = (),
        authority: Tuple[RRset, ...] = (),
        additional: Tuple[RRset, ...] = (),
        authoritative: bool = False,
        authenticated_data: bool = False,
        z_bit: bool = False,
    ) -> "Message":
        """Build a response mirroring this query's id/question/EDNS."""
        flags = HeaderFlags.shared(
            qr=True,
            aa=authoritative,
            rd=self.flags.rd,
            ra=True,
            ad=authenticated_data,
            cd=self.flags.cd,
            z=z_bit,
            rcode=rcode,
        )
        return Message(
            message_id=self.message_id,
            flags=flags,
            question=self.question,
            answer=answer,
            authority=authority,
            additional=additional,
            edns=self.edns,
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def rcode(self) -> RCode:
        return self.flags.rcode

    def is_response(self) -> bool:
        return self.flags.qr

    def dnssec_ok(self) -> bool:
        return self.edns is not None and self.edns.dnssec_ok

    def all_rrsets(self) -> Iterator[RRset]:
        for section in (self.answer, self.authority, self.additional):
            yield from section

    def find_rrsets(self, rtype: RRType, section: Optional[str] = None):
        """All RRsets of a given type, optionally restricted to a section."""
        sections = {
            "answer": self.answer,
            "authority": self.authority,
            "additional": self.additional,
        }
        if section is None:
            pool: Iterator[RRset] = self.all_rrsets()
        else:
            pool = iter(sections[section])
        return [rrset for rrset in pool if rrset.rtype is rtype]

    def get_rrset(self, name: Name, rtype: RRType) -> Optional[RRset]:
        for rrset in self.all_rrsets():
            if rrset.name == name and rrset.rtype is rtype:
                return rrset
        return None

    def wire_size(self) -> int:
        """Size of this message in uncompressed wire form, without
        round-tripping through the codec.  Capture accounting asks for
        each message's size several times (per-observer traffic, the
        overhead report), so the sum is memoized on the instance —
        messages are frozen, the cache lives in the instance dict."""
        if perf.ENABLED:
            size = self.__dict__.get("_wire_size_cache")
            if size is not None:
                return size
        size = self.HEADER_SIZE
        if self.question is not None:
            size += self.question.wire_size()
        for rrset in self.all_rrsets():
            size += rrset.wire_size()
        if self.edns is not None:
            size += Edns.WIRE_SIZE
        if perf.ENABLED:
            object.__setattr__(self, "_wire_size_cache", size)
        return size

    def __repr__(self) -> str:
        kind = "response" if self.flags.qr else "query"
        return (
            f"Message({kind} id={self.message_id} q={self.question!r} "
            f"rcode={self.rcode.name} an={len(self.answer)} "
            f"au={len(self.authority)} ad={len(self.additional)})"
        )
