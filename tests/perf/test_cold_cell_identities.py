"""Identities that make a cold cell cheaper without moving a byte.

Three shortcuts sit on a cold cell's path, and each rests on an
identity these tests state against a plain reference:

* ``RSAPrivateKey.sign`` exponentiates by the Chinese remainder
  theorem.  The signature must equal textbook ``pow(digest, d, n)``
  for generated keys, for keys the keygen memo hands back and for keys
  that went through pickle.
* ``Name(...)`` finds an already-normalized tuple in one probe and
  normalizes and validates everything else with builtins.  Every
  spelling of a name -- tuple, list, generator, any letter case -- must
  give the same labels, hash, wire length and verdict, with interning
  on or off.
* The universe's registry asks the key pool for a depositor's key set
  the first time it makes that depositor's DLV record.  The pool must
  hold the same keys, index by index, as a universe that asks for every
  deposit's key set at build.
"""

import contextlib
import gc
import hashlib
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import perf
from repro.crypto import make_dlv
from repro.crypto.rsa import generate_keypair
from repro.dnscore import Name, NameError_, RRType
from repro.dnscore import names as names_module
from repro.workloads import (
    AlexaWorkload,
    Universe,
    UniverseParams,
    WorkloadParams,
)


@pytest.fixture(autouse=True)
def _caches_restored():
    """Every test leaves the process in the default cached state."""
    yield
    perf.set_caches_enabled(True)


def _caching(enabled: bool):
    return contextlib.nullcontext() if enabled else perf.caches_disabled()


# ----------------------------------------------------------------------
# CRT signing
# ----------------------------------------------------------------------


def textbook_signature(key, data: bytes) -> bytes:
    digest = int.from_bytes(hashlib.sha256(data).digest(), "big") % key.modulus
    value = pow(digest, key.private_exponent, key.modulus)
    return value.to_bytes((key.modulus.bit_length() + 7) // 8, "big")


@pytest.fixture(scope="module")
def keys():
    """Two keys of each size; the keygen memo may not serve them."""
    with perf.caches_disabled():
        return {
            bits: [generate_keypair(random.Random(seed), bits)
                   for seed in (1, 2)]
            for bits in (256, 512)
        }


@pytest.mark.parametrize("bits", [256, 512])
@settings(max_examples=40, deadline=None)
@given(data=st.binary(max_size=300), which=st.integers(0, 1))
def test_crt_signature_is_textbook_rsa(keys, bits, data, which):
    key = keys[bits][which]
    with perf.caches_disabled():
        assert key.sign(data) == textbook_signature(key, data)


@pytest.mark.parametrize("bits", [256, 512])
@settings(max_examples=10, deadline=None)
@given(data=st.binary(max_size=100))
def test_crt_signature_of_memo_and_pickled_keys(bits, data):
    perf.set_caches_enabled(True)
    first = generate_keypair(random.Random(bits), bits)
    memoized = generate_keypair(random.Random(bits), bits)
    unpickled = pickle.loads(pickle.dumps(first))
    assert memoized == first and unpickled == first
    expected = textbook_signature(first, data)
    with perf.caches_disabled():
        for key in (first, memoized, unpickled):
            assert key.sign(data) == expected
            assert key.public_key.verify(data, expected)


# ----------------------------------------------------------------------
# One-probe names
# ----------------------------------------------------------------------

_LABELS = st.lists(
    st.text(alphabet="abcXYZ09-_", min_size=0, max_size=70), max_size=6
)


def reference_name(labels):
    """``(labels, wire length)`` of a valid name, or ``None``."""
    normalized = tuple(label.lower() for label in labels)
    wire_length = sum(len(label) + 1 for label in normalized) + 1
    if any(not label or len(label) > 63 for label in normalized):
        return None
    if wire_length > 255:
        return None
    return normalized, wire_length


@pytest.mark.parametrize(
    "interning", [True, False], ids=["interned", "uninterned"]
)
@settings(max_examples=80, deadline=None)
@given(labels=_LABELS)
def test_every_spelling_makes_the_same_name(interning, labels):
    spellings = (
        lambda: tuple(labels),
        lambda: list(labels),
        lambda: (label for label in labels),
        lambda: tuple(label.upper() for label in labels),
        lambda: [label.upper() for label in labels],
        lambda: tuple(label.lower() for label in labels),
    )
    expected = reference_name(labels)
    with _caching(interning):
        if expected is None:
            for spelling in spellings:
                with pytest.raises(NameError_):
                    Name(spelling())
            return
        made = [Name(spelling()) for spelling in spellings]
        for name in made:
            assert name.labels == expected[0]
            assert name.wire_length() == expected[1]
            assert hash(name) == hash(expected[0])
            assert name == made[0]
        if interning:
            assert all(name is made[0] for name in made)


def test_a_dead_name_leaves_the_intern_table():
    perf.set_caches_enabled(True)
    name = Name(("cold-cell-probe", "example"))
    key = name.labels
    assert names_module._INTERNED[key]() is name
    del name
    gc.collect()
    assert key not in names_module._INTERNED
    again = Name(key)
    assert names_module._INTERNED[key]() is again


# ----------------------------------------------------------------------
# Registry key sets on first answer
# ----------------------------------------------------------------------


class EagerUniverse(Universe):
    """The reference: every deposit's key set is asked for at build."""

    def _build_registry(self):
        if not self.params.registry_empty:
            for spec in self.domains:
                if spec.dlv_deposited:
                    self.keys.keys_for_zone(spec.name)
            for labels in self.params.registry_filler:
                self.keys.keys_for_zone(Name(labels))
        super()._build_registry()


def _pair(filler_count: int):
    workload = AlexaWorkload(12, WorkloadParams(seed=5))
    params = UniverseParams(
        modulus_bits=256,
        key_pool_size=64,
        registry_filler=tuple(workload.registry_filler(filler_count)),
    )
    return (
        Universe(workload.domains, params),
        EagerUniverse(workload.domains, params),
    )


@pytest.mark.parametrize(
    "fresh_first", [False, True], ids=["answers", "fresh"]
)
@pytest.mark.parametrize("filler_count", [100, 2000])
def test_key_sets_on_first_answer_are_the_eager_keys(filler_count, fresh_first):
    with perf.caches_disabled():
        lazy, eager = _pair(filler_count)
        built = list(lazy.keys._pool)
        assert built == eager.keys._pool[: len(built)]
        if fresh_first:
            # Drawn after the whole pool in either universe, so it
            # shifts no key a later answer asks for.
            assert lazy.keys.fresh_keyset() == eager.keys.fresh_keyset()
        registry = lazy.registry_zone
        for domain in registry.deposited_domains():
            answer = registry.lookup(
                registry.registered_name(domain), RRType.DLV
            ).answer[0].first()
            assert answer == make_dlv(
                domain, eager.keys.keys_for_zone(domain).ksk.dnskey
            )
        assert lazy.keys._pool == eager.keys._pool


def test_some_pool_slots_are_left_for_the_first_answer():
    """The 100-entry case above reaches keys that set-up never made."""
    with perf.caches_disabled():
        lazy, eager = _pair(100)
    assert len(lazy.keys._pool) < len(eager.keys._pool)
