"""Digest helpers: DS records, DLV records, and the privacy-preserving
domain hash.

``hash_domain_label`` implements the paper's second remedy
(Section 6.2.2): instead of sending ``example.com.dlv.isc.org`` the
resolver sends ``crypto_hash("example.com").dlv.isc.org``, so a registry
miss reveals only a digest.
"""

from __future__ import annotations

import hashlib
from typing import Tuple, Union

from ..dnscore import DLV, DS, DigestType, DNSKEY, Name
from ..dnscore.rdata import _encode_name


def ds_digest(owner: Name, dnskey: DNSKEY, digest_type: DigestType) -> bytes:
    """RFC 4034 section 5.1.4: digest(owner | DNSKEY RDATA)."""
    data = _encode_name(owner) + dnskey.to_wire()
    if digest_type is DigestType.SHA1:
        return hashlib.sha1(data).digest()
    if digest_type is DigestType.SHA256:
        return hashlib.sha256(data).digest()
    raise ValueError(f"unsupported digest type {digest_type!r}")


def make_ds(
    owner: Name, dnskey: DNSKEY, digest_type: DigestType = DigestType.SHA256
) -> DS:
    """Build the DS record a parent zone publishes for a child KSK."""
    return DS(
        key_tag=dnskey.key_tag(),
        algorithm=dnskey.algorithm,
        digest_type=digest_type,
        digest=ds_digest(owner, dnskey, digest_type),
    )


def make_dlv(
    owner: Name, dnskey: DNSKEY, digest_type: DigestType = DigestType.SHA256
) -> DLV:
    """Build the DLV record a zone owner deposits in a registry.

    RFC 4431: contents are identical to the DS record the owner *would*
    have published in its parent.
    """
    return DLV.from_ds(make_ds(owner, dnskey, digest_type))


def verify_ds_matches(owner: Name, dnskey: DNSKEY, ds: DS) -> bool:
    """Does *ds* authenticate *dnskey* as a trust point for *owner*?"""
    if ds.key_tag != dnskey.key_tag():
        return False
    if ds.algorithm != dnskey.algorithm:
        return False
    return ds.digest == ds_digest(owner, dnskey, ds.digest_type)


#: Number of hex characters kept from the SHA-256 digest when forming the
#: hashed-DLV query label.  56 hex chars fit comfortably in one label
#: (max 63 octets) while keeping 224 bits of preimage resistance.
HASH_LABEL_HEX_CHARS = 56


def hash_domain_label(domain: Union[Name, Tuple[str, ...]]) -> str:
    """The paper's ``crypto_hash(domain_name)`` as a single DNS label.

    *domain* is a name or its labels; both hash the name's text form.
    """
    labels = domain.labels if isinstance(domain, Name) else domain
    text = ".".join(labels) + "."
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    return digest[:HASH_LABEL_HEX_CHARS]
