"""Domain names: parsing, relations, and DNSSEC canonical ordering.

A :class:`Name` is an immutable sequence of labels in wire order (left to
right, most specific label first).  The root name has zero labels.  Labels are
stored lowercase because DNS names compare case-insensitively (RFC 1035
section 2.3.3) and DNSSEC canonical form lowercases names (RFC 4034
section 6.2).
"""

from __future__ import annotations

import functools
import weakref
from typing import Dict, Iterable, Iterator, Optional, Tuple

from .. import perf

MAX_LABEL_LENGTH = 63
MAX_NAME_LENGTH = 255


class NameError_(ValueError):
    """Raised for malformed domain names."""


class _InternRef(weakref.ref):
    """A weak reference to an interned name, carrying its table key."""

    __slots__ = ("key",)


#: Interned names: normalized labels -> weak reference to the live name.
_INTERNED: Dict[Tuple[str, ...], _InternRef] = {}


def _forget_interned(ref: _InternRef, interned=_INTERNED) -> None:
    """Drop a dead name's entry, unless a newer name took the key."""
    if interned.get(ref.key) is ref:
        interned.pop(ref.key, None)


def _reject_labels(labels: Tuple[str, ...]) -> None:
    """Raise for the first empty or oversized label."""
    for label in labels:
        if not label:
            raise NameError_("empty label in name")
        if len(label) > MAX_LABEL_LENGTH:
            raise NameError_(f"label too long: {label!r}")


@functools.total_ordering
class Name:
    """An absolute domain name.

    Instances are immutable, hashable, and ordered by DNSSEC canonical
    ordering (RFC 4034 section 6.1): names sort by their labels compared
    right to left, with shorter names (ancestors) sorting first.

    While the hot-path caches are enabled (:mod:`repro.perf`), names are
    *interned*: constructing a name whose normalized labels match a live
    instance returns that instance, so equality in cache and validator
    dicts short-circuits on identity.  Interning only dedupes objects —
    values, hashes, and ordering are identical either way.
    """

    __slots__ = (
        "_labels",
        "_hash",
        "_wire_length",
        "_canonical_key",
        "_ancestors",
        "__weakref__",
    )

    def __new__(cls, labels: Iterable[str] = ()):
        interned = _INTERNED if perf.ENABLED else None
        # Already-normalized labels (every name derived from another
        # name, or unpickled) find their name in one probe.
        if interned is not None and type(labels) is tuple:
            ref = interned.get(labels)
            if ref is not None:
                cached = ref()
                if cached is not None:
                    return cached
        normalized = tuple(map(str.lower, labels))
        if type(labels) is tuple and normalized == labels:
            # Keep the caller's tuple rather than hold a copy of it.
            normalized = labels
        elif interned is not None:
            ref = interned.get(normalized)
            if ref is not None:
                cached = ref()
                if cached is not None:
                    return cached
        # No label can be too long when all of them together are not.
        octets = len("".join(normalized))
        if not all(normalized) or (
            octets > MAX_LABEL_LENGTH
            and max(map(len, normalized)) > MAX_LABEL_LENGTH
        ):
            _reject_labels(normalized)
        wire_length = octets + len(normalized) + 1
        if wire_length > MAX_NAME_LENGTH:
            raise NameError_("name exceeds 255 wire octets")
        self = object.__new__(cls)
        self._labels = normalized
        self._hash = hash(normalized)
        self._wire_length = wire_length
        self._canonical_key: Optional[Tuple[bytes, ...]] = None
        self._ancestors: Optional[Tuple["Name", ...]] = None
        if interned is not None:
            ref = _InternRef(self, _forget_interned)
            ref.key = normalized
            interned[normalized] = ref
        return self

    def __reduce__(self):
        # Re-enter __new__ on unpickle so names from fork workers
        # re-intern instead of carrying duplicate instances.
        return (Name, (self._labels,))

    @classmethod
    def from_text(cls, text: str) -> "Name":
        """Parse a dotted name.  A trailing dot is optional; ``.`` and the
        empty string both denote the root."""
        text = text.strip()
        if text in (".", ""):
            return ROOT
        if text.endswith("."):
            text = text[:-1]
        labels = text.split(".")
        return cls(labels)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def labels(self) -> Tuple[str, ...]:
        return self._labels

    @property
    def label_count(self) -> int:
        return len(self._labels)

    def is_root(self) -> bool:
        return not self._labels

    def to_text(self) -> str:
        if not self._labels:
            return "."
        return ".".join(self._labels) + "."

    def wire_length(self) -> int:
        """Length of this name in uncompressed wire form."""
        return self._wire_length

    # ------------------------------------------------------------------
    # Relations
    # ------------------------------------------------------------------

    def parent(self) -> "Name":
        """The name with the leading (leftmost) label removed.

        Raises :class:`NameError_` for the root, which has no parent.
        """
        if not self._labels:
            raise NameError_("the root name has no parent")
        return Name(self._labels[1:])

    def strip_left(self, count: int = 1) -> "Name":
        """Remove ``count`` leading labels (used by DLV label stripping)."""
        if count > len(self._labels):
            raise NameError_("cannot strip more labels than the name has")
        return Name(self._labels[count:])

    def is_subdomain_of(self, other: "Name") -> bool:
        """True if *self* is *other* or lies below it in the tree."""
        offset = len(self._labels) - len(other._labels)
        if offset < 0:
            return False
        return self._labels[offset:] == other._labels

    def relativize(self, origin: "Name") -> Tuple[str, ...]:
        """Labels of *self* below *origin*.  ``()`` if self == origin."""
        if not self.is_subdomain_of(origin):
            raise NameError_(f"{self.to_text()} is not under {origin.to_text()}")
        keep = len(self._labels) - len(origin._labels)
        return self._labels[:keep]

    def concatenate(self, suffix: "Name") -> "Name":
        """Return ``self.labels + suffix.labels`` as one name."""
        return Name(self._labels + suffix._labels)

    def prepend(self, *labels: str) -> "Name":
        """Return a new name with labels added on the left."""
        return Name(tuple(labels) + self._labels)

    def ancestors(self) -> Iterator["Name"]:
        """Yield self, then each ancestor up to and including the root."""
        chain = self._ancestors
        if chain is None:
            # Only the proper ancestors: a name in its own cache would be
            # a reference cycle, which only the cyclic collector frees.
            chain = tuple(
                Name(self._labels[start:])
                for start in range(1, len(self._labels) + 1)
            )
            if perf.ENABLED:
                self._ancestors = chain
        return iter((self,) + chain)

    def common_ancestor(self, other: "Name") -> "Name":
        """Deepest name that is an ancestor of both self and other."""
        mine = tuple(reversed(self._labels))
        theirs = tuple(reversed(other._labels))
        shared = 0
        for a, b in zip(mine, theirs):
            if a != b:
                break
            shared += 1
        if shared == 0:
            return ROOT
        return Name(tuple(reversed(mine[:shared])))

    # ------------------------------------------------------------------
    # Ordering (RFC 4034 section 6.1 canonical ordering)
    # ------------------------------------------------------------------

    def canonical_key(self) -> Tuple[bytes, ...]:
        """Sort key implementing DNSSEC canonical name order."""
        key = self._canonical_key
        if key is None:
            key = tuple(
                label.encode("ascii") for label in reversed(self._labels)
            )
            if perf.ENABLED:
                self._canonical_key = key
        return key

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Name):
            return NotImplemented
        return self.canonical_key() < other.canonical_key()

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Name):
            return NotImplemented
        return self._hash == other._hash and self._labels == other._labels

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Name({self.to_text()!r})"

    def __str__(self) -> str:
        return self.to_text()

    def __len__(self) -> int:
        return len(self._labels)


#: The root of the DNS namespace.
ROOT = Name(())

perf.register_cache(
    "dnscore.name_intern", _INTERNED.clear, lambda: {"size": len(_INTERNED)}
)


def name_between(name: Name, lower: Name, upper: Name) -> bool:
    """True if *name* falls strictly between *lower* and *upper* in
    canonical order, treating the interval as circular at the zone apex
    (RFC 4034 section 6.1 / NSEC semantics).

    When ``lower == upper`` the single NSEC record covers the whole zone
    and everything except the owner itself is "between".
    """
    if lower == upper:
        return name != lower
    if lower < upper:
        return lower < name < upper
    # Wrapped interval: the NSEC from the last name back to the apex.
    return name > lower or name < upper


def canonical_sort(names: Iterable[Name]) -> list:
    """Sort names into DNSSEC canonical order."""
    return sorted(names, key=Name.canonical_key)
