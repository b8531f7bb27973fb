"""Textbook RSA signatures over SHA-256 digests.

This provides *real asymmetric* sign/verify semantics for the DNSSEC
simulation: validation genuinely fails for tampered data or wrong keys.
Signing exponentiates modulo each prime and recombines by the Chinese
remainder theorem, which yields the textbook integer at about half the
cost.
Moduli default to 512 bits — the experiments exercise chain-of-trust
logic, not cryptographic strength, and small keys keep zone signing fast
(see DESIGN.md, "Scaled-down RSA").
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from typing import Tuple

from .. import perf
from .memo import BoundedMemo
from .numbertheory import generate_prime, modinv

DEFAULT_MODULUS_BITS = 512
_PUBLIC_EXPONENT = 65537

#: Signing memo: (modulus, private exponent, SHA-256(data)) -> signature.
#: The signature is a pure function of exactly that triple, so a hit is
#: byte-identical to the modexp it skips.
_SIGN_MEMO = BoundedMemo(8192)

#: Keypair memo: (modulus_bits, rng state before generation) ->
#: (keypair, rng state after).  Keying on the consumed RNG state — and
#: replaying the post-state on a hit — makes the memo transparent to
#: every later draw from the same stream (e.g. ``fresh_keyset``), so
#: repeated universe builds skip prime generation without perturbing
#: downstream randomness.
_KEYGEN_MEMO = BoundedMemo(512)

perf.register_cache("crypto.sign_memo", _SIGN_MEMO.clear, _SIGN_MEMO.stats)
perf.register_cache(
    "crypto.keygen_memo", _KEYGEN_MEMO.clear, _KEYGEN_MEMO.stats
)


@dataclasses.dataclass(frozen=True)
class RSAPublicKey:
    """An RSA public key (n, e) with a DNSKEY-style byte encoding."""

    modulus: int
    exponent: int = _PUBLIC_EXPONENT

    def to_bytes(self) -> bytes:
        """Encode as exponent-length-prefixed bytes, in the spirit of the
        RFC 3110 DNSKEY public-key field."""
        exponent_bytes = _int_to_bytes(self.exponent)
        modulus_bytes = _int_to_bytes(self.modulus)
        if len(exponent_bytes) > 255:
            raise ValueError("exponent too large for one-octet length")
        return bytes([len(exponent_bytes)]) + exponent_bytes + modulus_bytes

    @classmethod
    def from_bytes(cls, data: bytes) -> "RSAPublicKey":
        if not data:
            raise ValueError("empty public key")
        exponent_length = data[0]
        if len(data) < 1 + exponent_length + 1:
            raise ValueError("truncated public key")
        exponent = int.from_bytes(data[1 : 1 + exponent_length], "big")
        modulus = int.from_bytes(data[1 + exponent_length :], "big")
        return cls(modulus=modulus, exponent=exponent)

    def verify(self, data: bytes, signature: bytes) -> bool:
        """Check ``signature`` over SHA-256(data)."""
        signature_int = int.from_bytes(signature, "big")
        if signature_int >= self.modulus:
            return False
        recovered = pow(signature_int, self.exponent, self.modulus)
        return recovered == _digest_int(data, self.modulus)


@dataclasses.dataclass(frozen=True)
class RSAPrivateKey:
    """An RSA private key; carries its public half and the primes it was
    made from, which it signs with by the Chinese remainder theorem."""

    modulus: int
    public_exponent: int
    private_exponent: int
    prime1: int
    prime2: int
    #: CRT exponents d mod (p - 1), d mod (q - 1) and q^-1 mod p.
    _crt: Tuple[int, int, int] = dataclasses.field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        p, q, d = self.prime1, self.prime2, self.private_exponent
        crt = (d % (p - 1), d % (q - 1), modinv(q, p))
        object.__setattr__(self, "_crt", crt)

    @property
    def public_key(self) -> RSAPublicKey:
        return RSAPublicKey(modulus=self.modulus, exponent=self.public_exponent)

    def sign(self, data: bytes) -> bytes:
        if perf.ENABLED:
            memo_key = (
                self.modulus,
                self.private_exponent,
                hashlib.sha256(data).digest(),
            )
            cached = _SIGN_MEMO.get(memo_key)
            if cached is not None:
                return cached
        digest = _digest_int(data, self.modulus)
        # pow(digest, d, n), by CRT: the same integer (n = pq is
        # squarefree), from two half-size exponentiations.
        p, q = self.prime1, self.prime2
        dp, dq, q_inverse = self._crt
        low = pow(digest, dq, q)
        signature_int = low + (q_inverse * (pow(digest, dp, p) - low) % p) * q
        signature = signature_int.to_bytes(
            (self.modulus.bit_length() + 7) // 8, "big"
        )
        if perf.ENABLED:
            _SIGN_MEMO.put(memo_key, signature)
        return signature


def generate_keypair(
    rng: random.Random, modulus_bits: int = DEFAULT_MODULUS_BITS
) -> RSAPrivateKey:
    """Generate an RSA keypair deterministically from *rng*.

    Memoized on (modulus_bits, rng state): when the same seeded stream
    reaches the same state again — every fresh universe built from the
    same seed — the stored keypair is returned and the stored post-state
    replayed, skipping prime generation with identical results.
    """
    memo_key = None
    if perf.ENABLED:
        try:
            memo_key = (modulus_bits, rng.getstate())
        except AttributeError:
            memo_key = None
        if memo_key is not None:
            cached = _KEYGEN_MEMO.get(memo_key)
            if cached is not None:
                key, state_after = cached
                rng.setstate(state_after)
                return key
    key = _generate_keypair_uncached(rng, modulus_bits)
    if memo_key is not None and perf.ENABLED:
        _KEYGEN_MEMO.put(memo_key, (key, rng.getstate()))
    return key


def _generate_keypair_uncached(
    rng: random.Random, modulus_bits: int
) -> RSAPrivateKey:
    half = modulus_bits // 2
    while True:
        p = generate_prime(half, rng)
        q = generate_prime(modulus_bits - half, rng)
        if p == q:
            continue
        phi = (p - 1) * (q - 1)
        if phi % _PUBLIC_EXPONENT == 0:
            continue
        n = p * q
        if n.bit_length() != modulus_bits:
            continue
        d = modinv(_PUBLIC_EXPONENT, phi)
        return RSAPrivateKey(
            modulus=n,
            public_exponent=_PUBLIC_EXPONENT,
            private_exponent=d,
            prime1=p,
            prime2=q,
        )


def _digest_int(data: bytes, modulus: int) -> int:
    """SHA-256 digest reduced into the message space of *modulus*."""
    digest = hashlib.sha256(data).digest()
    return int.from_bytes(digest, "big") % modulus


def _int_to_bytes(value: int) -> bytes:
    return value.to_bytes(max(1, (value.bit_length() + 7) // 8), "big")
