"""Seeded adversary personas riding the :class:`FaultPlan` tamper hooks.

PR 1 gave the network scripted *benign* faults plus a generic
response-rewriting hook; this module populates the hook with the four
byzantine archetypes the hardened resolver must survive:

* :class:`Spoofer` — an off-path Kaminsky attacker racing forged
  answers against the genuine response; it knows the question but must
  guess the 16-bit message id;
* :class:`Poisoner` — an on-path authoritative that piggybacks
  out-of-bailiwick glue and forged DS records for victim zones onto the
  referrals it legitimately serves;
* :class:`ReferralBomber` — NXNSAttack-style amplification: referrals
  fanning out to dozens of unresolvable out-of-zone NS hosts
  (``fanout`` mode) or pointing back up at the root so the resolver
  walks the delegation tree in circles (``loop`` mode);
* :class:`SigBomber` — KeyTrap-style validation blowup: responses
  inflated with many forged DNSKEYs × many forged RRSIGs so a
  budget-less validator performs quadratic signature checks.

Every persona is deterministic given its seed, is itself a
``TamperHook`` (install with :meth:`AdversaryPersona.deploy`), and
knows how to recognise its own poison (:meth:`is_poison`) so the
adversary matrix can count corrupted cache entries without guessing.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Iterable, List, Optional, Sequence, Tuple

from ..dnscore import (
    A,
    AAAA,
    Algorithm,
    DigestType,
    DNSKEY,
    DS,
    HeaderFlags,
    Message,
    Name,
    NS,
    RCode,
    ROOT,
    RRSIG,
    RRType,
    RRset,
)
from .faults import FaultPlan

#: Question types worth attacking: the terminal queries of a resolution.
_ADDRESS_TYPES = (RRType.A, RRType.AAAA)

#: TTL the adversaries stamp on forged records — long, so poison that
#: does land stays resident for the whole measurement window.
_FORGED_TTL = 86400


class AdversaryPersona:
    """Base class: a seeded, self-describing response tamperer.

    Subclasses implement :meth:`tamper`; the instance itself is the
    ``TamperHook`` callable the network applies, so deployment is::

        persona.deploy(plan, victim_server_address)
    """

    #: Display name used by reports; subclasses override.
    kind = "adversary"

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rng = random.Random(seed)
        #: Responses this persona saw travel through its addresses.
        self.responses_seen = 0
        #: Responses it actually rewrote or replaced.
        self.responses_forged = 0

    # -- TamperHook protocol -------------------------------------------

    def __call__(self, response: Message) -> Message:
        self.responses_seen += 1
        forged = self.tamper(response)
        if forged is not response:
            self.responses_forged += 1
        return forged

    def tamper(self, response: Message) -> Message:
        raise NotImplementedError

    # -- deployment and accounting -------------------------------------

    def deploy(self, plan: FaultPlan, *addresses: str) -> "AdversaryPersona":
        """Install this persona as the tamper hook for *addresses*."""
        if not addresses:
            raise ValueError("deploy() needs at least one address")
        for address in addresses:
            plan.set_tamper(address, self)
        return self

    def is_poison(self, rrset: RRset) -> bool:
        """Is *rrset* (e.g. out of a resolver cache) this persona's
        fabrication?  Default: this persona does not poison, it only
        wastes work."""
        return False

    def describe(self) -> str:
        return f"{self.kind}(seed={self.seed})"

    def __repr__(self) -> str:
        return self.describe()


def _response_flags(rcode: RCode = RCode.NOERROR, aa: bool = True) -> HeaderFlags:
    return HeaderFlags.shared(qr=True, aa=aa, ra=False, rcode=rcode)


class Spoofer(AdversaryPersona):
    """Off-path forger racing the genuine answer (Kaminsky model).

    The attacker observes which question is in flight (trivial for a
    shared-path observer) and fires a forged answer pointing the name at
    ``attacker_address``.  Being off-path it cannot read the query's
    message id, so the forgery carries a *guessed* id — the defence a
    hardened resolver gets for free by checking the echo.

    ``race_win_rate`` is the probability the forgery outruns the real
    response; when the race is lost the genuine answer goes through
    untouched.  Draws come from the persona's seeded RNG.
    """

    kind = "spoofer"

    def __init__(
        self,
        attacker_address: str = "203.0.113.66",
        attacker_address_v6: str = "2001:db8:bad::66",
        race_win_rate: float = 1.0,
        target: Optional[Name] = None,
        seed: int = 0,
    ):
        super().__init__(seed)
        self.attacker_address = attacker_address
        self.attacker_address_v6 = attacker_address_v6
        self.race_win_rate = race_win_rate
        self.target = target
        #: Forgeries delivered (the spoofer won the race).
        self.races_won = 0

    def tamper(self, response: Message) -> Message:
        question = response.question
        if question is None or question.rtype not in _ADDRESS_TYPES:
            return response
        if self.target is not None and not question.name.is_subdomain_of(
            self.target
        ):
            return response
        if self.rng.random() >= self.race_win_rate:
            return response
        self.races_won += 1
        if question.rtype is RRType.A:
            rdata = A(self.attacker_address)
        else:
            rdata = AAAA(self.attacker_address_v6)
        forged_answer = RRset(
            question.name, question.rtype, _FORGED_TTL, (rdata,)
        )
        return Message(
            # Off-path: the id is a guess, not a copy.
            message_id=self.rng.randrange(0x10000),
            flags=_response_flags(),
            question=question,
            answer=(forged_answer,),
            edns=response.edns,
        )

    def is_poison(self, rrset: RRset) -> bool:
        if rrset.rtype is RRType.A:
            return any(r.address == self.attacker_address for r in rrset)
        if rrset.rtype is RRType.AAAA:
            return any(r.address == self.attacker_address_v6 for r in rrset)
        return False


#: Digest prefix marking a Poisoner-forged DS record; detectable by
#: :meth:`Poisoner.is_poison` and impossible for the honest signer to
#: produce (real digests are SHA hashes of key material).
_POISON_DIGEST_PREFIX = b"poisoned-ds:"


class Poisoner(AdversaryPersona):
    """On-path authoritative injecting data for zones it does not own.

    Deployed on a server the resolver legitimately consults (say a
    TLD), it piggybacks two classic out-of-bailiwick payloads onto every
    referral it serves:

    * glue A records mapping each *victim* name to ``attacker_address``
      (the pre-bailiwick-scrubbing cache-poisoning vector);
    * forged DS RRsets for the victims, attempting to graft an
      attacker-controlled key into their chain of trust.

    The response id and question are genuine — this attacker is fully
    on-path — so only bailiwick discipline stops it.
    """

    kind = "poisoner"

    def __init__(
        self,
        victims: Sequence[Name],
        attacker_address: str = "203.0.113.99",
        seed: int = 0,
    ):
        super().__init__(seed)
        if not victims:
            raise ValueError("Poisoner needs at least one victim zone")
        self.victims: Tuple[Name, ...] = tuple(victims)
        self.attacker_address = attacker_address

    def _forged_ds(self, victim: Name) -> RRset:
        digest = _POISON_DIGEST_PREFIX + victim.to_text().encode("ascii")
        rdata = DS(
            key_tag=self.rng.randrange(0x10000),
            algorithm=Algorithm.RSASHA256,
            digest_type=DigestType.SHA256,
            digest=digest,
        )
        return RRset(victim, RRType.DS, _FORGED_TTL, (rdata,))

    def tamper(self, response: Message) -> Message:
        if not response.find_rrsets(RRType.NS, "authority"):
            # Not a referral: nothing the engine would cache from the
            # authority/additional sections anyway.
            return response
        question = response.question
        extra_glue: List[RRset] = []
        extra_ds: List[RRset] = []
        for victim in self.victims:
            if question is not None and question.name.is_subdomain_of(victim):
                # The referral is on the victim's own resolution path:
                # anything we inject would be *in* bailiwick, where the
                # parent is authoritative by design — that is delegation
                # control, not the out-of-bailiwick poisoning this
                # persona models.  Skip.
                continue
            extra_glue.append(
                RRset(victim, RRType.A, _FORGED_TTL, (A(self.attacker_address),))
            )
            extra_ds.append(self._forged_ds(victim))
        if not extra_glue and not extra_ds:
            return response
        return Message(
            message_id=response.message_id,
            flags=response.flags,
            question=response.question,
            answer=response.answer,
            authority=response.authority + tuple(extra_ds),
            additional=response.additional + tuple(extra_glue),
            edns=response.edns,
        )

    def is_poison(self, rrset: RRset) -> bool:
        if rrset.rtype in _ADDRESS_TYPES:
            return any(
                getattr(r, "address", None) == self.attacker_address
                for r in rrset
            )
        if rrset.rtype is RRType.DS:
            return any(
                r.digest.startswith(_POISON_DIGEST_PREFIX) for r in rrset
            )
        return False

    def describe(self) -> str:
        names = ",".join(v.to_text() for v in self.victims)
        return f"{self.kind}(victims={names})"


class ReferralBomber(AdversaryPersona):
    """Referral-based amplification (NXNSAttack / delegation loops).

    ``fanout`` mode answers address queries with a delegation of the
    query name itself to ``fanout`` nonexistent NS hosts scattered
    across ``.invalid`` — each one costs the resolver a fresh
    sub-resolution before the walk can fail.  The referral *direction*
    is legitimate (strictly downward, toward the qname), so only a work
    budget contains it.

    ``loop`` mode answers with an upward referral to the root (with
    genuine root glue), sending an undefended resolver around the
    delegation tree until its referral limit runs out.  A
    direction-checking resolver refuses the first such referral.
    """

    kind = "referral-bomber"

    def __init__(
        self,
        mode: str = "fanout",
        fanout: int = 40,
        loop_ns_host: Optional[Name] = None,
        loop_ns_address: str = "",
        seed: int = 0,
    ):
        super().__init__(seed)
        if mode not in ("fanout", "loop"):
            raise ValueError("mode must be 'fanout' or 'loop'")
        if mode == "loop" and not loop_ns_address:
            raise ValueError("loop mode needs the real root address as glue")
        self.mode = mode
        self.fanout = fanout
        self.loop_ns_host = loop_ns_host or Name.from_text("a.root-servers.net")
        self.loop_ns_address = loop_ns_address
        self._volley = 0

    def _bomb_targets(self) -> Tuple[NS, ...]:
        # Fresh host names per volley, NXNSAttack-style: negative caching
        # of an earlier volley's names must not defuse the next one.
        self._volley += 1
        return tuple(
            NS(Name([f"ns{i}", f"bomb{self._volley}x{i}", "invalid"]))
            for i in range(self.fanout)
        )

    def tamper(self, response: Message) -> Message:
        question = response.question
        if question is None or question.rtype not in _ADDRESS_TYPES:
            return response
        if self.mode == "fanout":
            authority = (
                RRset(question.name, RRType.NS, _FORGED_TTL, self._bomb_targets()),
            )
            additional: Tuple[RRset, ...] = ()
        else:
            authority = (
                RRset(ROOT, RRType.NS, _FORGED_TTL, (NS(self.loop_ns_host),)),
            )
            additional = (
                RRset(
                    self.loop_ns_host,
                    RRType.A,
                    _FORGED_TTL,
                    (A(self.loop_ns_address),),
                ),
            )
        return Message(
            message_id=response.message_id,
            flags=_response_flags(aa=False),
            question=question,
            authority=authority,
            additional=additional,
            edns=response.edns,
        )

    def describe(self) -> str:
        detail = f"fanout={self.fanout}" if self.mode == "fanout" else "loop"
        return f"{self.kind}({self.mode},{detail})"


class SigBomber(AdversaryPersona):
    """KeyTrap-style validation blowup (many keys × many signatures).

    Deployed on the server a signed zone lives on, it pads every DNSKEY
    RRset with ``key_count`` forged-but-well-formed RSA keys and every
    RRSIG RRset with ``sigs_per_key`` forged signatures per forged key.
    The KeyTrap trick is the *key-tag collision*: every forged key is
    padded so its RFC 4034 key tag equals the genuine key's, and every
    forged signature claims that same tag — so tag matching (the cheap
    filter a validator normally skips mismatches with) passes for every
    forged (key, sig) pair and a budget-less validator performs
    ``(keys+1) × (sigs+1)`` real verifications per RRset.
    """

    kind = "sig-bomber"

    def __init__(self, key_count: int = 12, sigs_per_key: int = 16, seed: int = 0):
        super().__init__(seed)
        self.key_count = key_count
        self.sigs_per_key = sigs_per_key
        #: Forged keysets per target tag (one victim zone ⇒ one tag).
        self._keysets: dict = {}

    @staticmethod
    def _tag_of_wire(wire: bytes) -> int:
        accumulator = 0
        for index, octet in enumerate(wire):
            accumulator += octet << 8 if index % 2 == 0 else octet
        accumulator += (accumulator >> 16) & 0xFFFF
        return accumulator & 0xFFFF

    def _collide_tag(self, key: DNSKEY, target: int) -> DNSKEY:
        """Pad the key's public-key field so ``key_tag() == target``.

        The tag is a 16-bit ones'-complement-style sum, so an appended
        big-endian word shifts it by a computable amount; one 65536-step
        scan per key finds the padding word.
        """
        public = key.public_key
        if (4 + len(public)) % 2 == 1:
            public += b"\x00"  # align the padding word on a 16-bit edge
        base = dataclasses.replace(key, public_key=public)
        prefix = base.to_wire()
        for word in range(0x10000):
            if self._tag_of_wire(prefix + word.to_bytes(2, "big")) == target:
                return dataclasses.replace(
                    key, public_key=public + word.to_bytes(2, "big")
                )
        raise AssertionError("unreachable: 16-bit tag scan must hit")

    def _keys_for_tag(self, target: int) -> Tuple[DNSKEY, ...]:
        keys = self._keysets.get(target)
        if keys is None:
            from ..crypto.rsa import RSAPublicKey

            forged = []
            for _ in range(self.key_count):
                # A syntactically valid RSA key with a random modulus:
                # parses fine, verifies nothing, costs a real modexp.
                modulus = self.rng.getrandbits(512) | (1 << 511) | 1
                public = RSAPublicKey(modulus=modulus, exponent=65537)
                key = DNSKEY(
                    flags=DNSKEY.KSK_FLAGS,
                    protocol=3,
                    algorithm=Algorithm.RSASHA256,
                    public_key=public.to_bytes(),
                )
                forged.append(self._collide_tag(key, target))
            keys = self._keysets[target] = tuple(forged)
        return keys

    @staticmethod
    def _target_tag(response: Message) -> Optional[int]:
        """The tag to collide with: the victim zone's own KSK tag (or
        any signing key's, read straight off the response)."""
        for rrset in response.find_rrsets(RRType.DNSKEY):
            for key in rrset:
                if key.is_ksk():  # type: ignore[attr-defined]
                    return key.key_tag()  # type: ignore[attr-defined]
        for rrset in response.find_rrsets(RRType.RRSIG):
            return rrset.first().key_tag  # type: ignore[attr-defined]
        return None

    def _forged_sigs(self, template: RRSIG, tag: int) -> Tuple[RRSIG, ...]:
        return tuple(
            RRSIG(
                type_covered=template.type_covered,
                algorithm=template.algorithm,
                labels=template.labels,
                original_ttl=template.original_ttl,
                expiration=template.expiration,
                inception=template.inception,
                key_tag=tag,
                signer=template.signer,
                signature=self.rng.getrandbits(512).to_bytes(64, "big"),
            )
            for _ in range(self.key_count * self.sigs_per_key)
        )

    def _inflate(self, section: Tuple[RRset, ...], tag: int) -> Tuple[RRset, ...]:
        out = []
        for rrset in section:
            if rrset.rtype is RRType.DNSKEY:
                out.append(
                    RRset(
                        rrset.name,
                        rrset.rtype,
                        rrset.ttl,
                        self._keys_for_tag(tag) + rrset.rdatas,
                    )
                )
            elif rrset.rtype is RRType.RRSIG:
                template = rrset.first()
                out.append(
                    RRset(
                        rrset.name,
                        rrset.rtype,
                        rrset.ttl,
                        self._forged_sigs(template, tag) + rrset.rdatas,  # type: ignore[arg-type]
                    )
                )
            else:
                out.append(rrset)
        return tuple(out)

    def tamper(self, response: Message) -> Message:
        tag = self._target_tag(response)
        if tag is None:
            return response
        return Message(
            message_id=response.message_id,
            flags=response.flags,
            question=response.question,
            answer=self._inflate(response.answer, tag),
            authority=self._inflate(response.authority, tag),
            additional=response.additional,
            edns=response.edns,
        )

    def describe(self) -> str:
        return (
            f"{self.kind}(keys={self.key_count},sigs/key={self.sigs_per_key})"
        )


def all_personas() -> Iterable[str]:
    """The persona kinds this module ships, for matrix iteration."""
    return ("spoofer", "poisoner", "referral-bomber", "sig-bomber")
