"""DNSSEC zone keys: KSK/ZSK pairs, DNSKEY records, and a key pool.

A signed zone has two keys (RFC 4033 terminology, paper Section 2.2):

* the *zone signing key* (ZSK) signs the zone's RRsets, and
* the *key signing key* (KSK) signs the DNSKEY RRset; its digest is what
  goes into the parent's DS record (or into a DLV record in a registry).

Generating distinct RSA primes for tens of thousands of simulated zones
would dominate runtime, so :class:`KeyPool` deals keys from a fixed,
seeded pool, assigning each zone origin a pool slot by a stable hash.
Sharing key *material* across unrelated zones changes no experiment
outcome: validation keys off the DS/DLV digest chain, and every digest
is computed over the owner name, so chains never cross between zones.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from typing import Dict, List

from ..dnscore import Algorithm, DNSKEY, Name
from .rsa import DEFAULT_MODULUS_BITS, RSAPrivateKey, generate_keypair


@dataclasses.dataclass(frozen=True)
class ZoneKey:
    """One zone key: the private RSA key plus its DNSKEY presentation."""

    private: RSAPrivateKey
    dnskey: DNSKEY

    @property
    def key_tag(self) -> int:
        return self.dnskey.key_tag()

    def is_ksk(self) -> bool:
        return self.dnskey.is_ksk()


@dataclasses.dataclass(frozen=True)
class ZoneKeySet:
    """The KSK/ZSK pair a signed zone uses."""

    ksk: ZoneKey
    zsk: ZoneKey

    def dnskeys(self) -> List[DNSKEY]:
        return [self.ksk.dnskey, self.zsk.dnskey]


def make_zone_key(private: RSAPrivateKey, ksk: bool) -> ZoneKey:
    flags = DNSKEY.KSK_FLAGS if ksk else DNSKEY.ZONE_KEY_FLAGS
    dnskey = DNSKEY(
        flags=flags,
        protocol=3,
        algorithm=Algorithm.RSASHA256,
        public_key=private.public_key.to_bytes(),
    )
    return ZoneKey(private=private, dnskey=dnskey)


class KeyPool:
    """A deterministic pool of RSA keypairs shared across zones.

    ``pool_size`` keypairs are generated lazily from the seed.  A zone
    origin is mapped to one of ``pool_size // 2`` (KSK, ZSK) slot pairs
    by a stable MD5 hash of its text form, so the mapping is identical
    across runs and across independently constructed pools with the same
    seed — and memory stays bounded no matter how many zones exist.
    """

    def __init__(
        self,
        seed: int = 0x5EED,
        pool_size: int = 32,
        modulus_bits: int = DEFAULT_MODULUS_BITS,
    ):
        if pool_size < 2 or pool_size % 2:
            raise ValueError("pool size must be an even number >= 2")
        self._rng = random.Random(seed)
        self._pool_size = pool_size
        self._modulus_bits = modulus_bits
        self._pool: List[RSAPrivateKey] = []
        self._keysets: Dict[int, ZoneKeySet] = {}

    def _pool_key(self, index: int) -> RSAPrivateKey:
        while len(self._pool) <= index:
            self._pool.append(generate_keypair(self._rng, self._modulus_bits))
        return self._pool[index]

    @staticmethod
    def _slot_for(origin: Name, slot_count: int) -> int:
        digest = hashlib.md5(origin.to_text().encode("ascii")).digest()
        return int.from_bytes(digest[:4], "big") % slot_count

    def keys_for_zone(self, origin: Name) -> ZoneKeySet:
        """Return the (stable) key set for a zone origin."""
        slot = self._slot_for(origin, self._pool_size // 2)
        if slot not in self._keysets:
            self._keysets[slot] = ZoneKeySet(
                ksk=make_zone_key(self._pool_key(2 * slot), ksk=True),
                zsk=make_zone_key(self._pool_key(2 * slot + 1), ksk=False),
            )
        return self._keysets[slot]

    def fresh_keyset(self) -> ZoneKeySet:
        """A key set outside the pool (used by tampering tests).

        It is drawn after the last pool key, so a pool key is the same
        whenever it is first asked for."""
        self._pool_key(self._pool_size - 1)
        return ZoneKeySet(
            ksk=make_zone_key(generate_keypair(self._rng, self._modulus_bits), True),
            zsk=make_zone_key(generate_keypair(self._rng, self._modulus_bits), False),
        )
