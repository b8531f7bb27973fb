"""The store's canonical JSON is byte-for-byte the generic chain's.

``_canonicalize`` dispatches plain scalars, lists, tuples and dicts on
their exact type before its generic enum / dataclass / ``Name`` /
``partial`` / callable / set chain.  Every stored cell address
(``CellKey.digest``), ``config_digest`` and ``fingerprint_digest``
rests on the bytes it produces, so a store written before that fast
path must still resume.  ``_reference_canonicalize`` below is the
chain alone, kept verbatim as the reference; Hypothesis checks that
``canonical_json`` and ``stable_digest`` agree with it on nested
values mixing every type the chain distinguishes.
"""

import collections
import dataclasses
import enum
import functools
import hashlib
import json
from typing import Any

from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    config_digest,
    fingerprint_digest,
    plan_shards,
    result_fingerprint,
    run_shard,
    shard_cell_key,
    stable_digest,
    standard_universe_factory,
    standard_workload,
)
from repro.core.store import canonical_json
from repro.dnscore import Name, Opcode, RCode, RRType
from repro.resolver import correct_bind_config
from repro.workloads import UniverseParams, WorkloadParams


def _reference_canonicalize(value: Any) -> Any:
    """The generic chain, without the exact-type fast path."""
    if isinstance(value, enum.Enum):
        return {"__enum__": type(value).__qualname__, "value": value.value}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__qualname__,
            "fields": {
                field.name: _reference_canonicalize(getattr(value, field.name))
                for field in dataclasses.fields(value)
            },
        }
    if isinstance(value, Name):
        return {"__name__": value.to_text()}
    if isinstance(value, functools.partial):
        return {
            "__partial__": _reference_canonicalize(value.func),
            "args": [_reference_canonicalize(item) for item in value.args],
            "kwargs": {
                key: _reference_canonicalize(value.keywords[key])
                for key in sorted(value.keywords)
            },
        }
    if callable(value):
        module = getattr(value, "__module__", "?")
        qualname = getattr(value, "__qualname__", type(value).__name__)
        return {"__callable__": f"{module}.{qualname}"}
    if isinstance(value, dict):
        return {
            str(key): _reference_canonicalize(value[key])
            for key in sorted(value, key=str)
        }
    if isinstance(value, (set, frozenset)):
        return sorted(_reference_canonicalize(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [_reference_canonicalize(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _reference_json(value: Any) -> str:
    return json.dumps(
        _reference_canonicalize(value), sort_keys=True, separators=(",", ":")
    )


def _reference_digest(value: Any) -> str:
    return hashlib.sha256(_reference_json(value).encode("utf-8")).hexdigest()


class Label(str):
    """A ``str`` subclass: must take the generic path."""


Pair = collections.namedtuple("Pair", "left right")


class Colour(enum.Enum):
    RED = "red"
    BLUE = 2


def module_level_builder(seed):
    return seed


_names = st.lists(
    st.sampled_from(["www", "example", "com", "dlv", "isc", "org", "a-b"]),
    max_size=4,
).map(lambda labels: Name.from_text(".".join(labels) + "." if labels else "."))

_enums = st.one_of(
    st.sampled_from(list(RRType)),
    st.sampled_from(list(RCode)),
    st.sampled_from(list(Opcode)),
    st.sampled_from(list(Colour)),
)

_configs = st.one_of(
    st.just(correct_bind_config()),
    st.booleans().map(
        lambda stale: dataclasses.replace(
            correct_bind_config(), serve_stale=stale
        )
    ),
    st.integers(0, 10_000).map(lambda seed: WorkloadParams(seed=seed)),
    st.integers(0, 10_000).map(
        lambda seed: UniverseParams(seed=seed, modulus_bits=256)
    ),
)

_callables = st.one_of(
    st.builds(
        standard_universe_factory,
        st.integers(1, 1000),
        filler_count=st.integers(0, 60_000),
        workload_seed=st.integers(0, 10_000),
    ),
    st.integers().map(
        lambda bound: functools.partial(module_level_builder, bound)
    ),
    st.just(lambda seed: seed),
    st.just(module_level_builder),
)

_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.just(-0.0),
    st.text(max_size=8),
    st.text(max_size=8).map(Label),
    _enums,
    _names,
    _configs,
    _callables,
    st.frozensets(st.integers(), max_size=4),
    st.sets(st.text(max_size=4), max_size=4),
)

_keys = st.one_of(
    st.text(max_size=4),
    st.integers(-5, 5),
    st.booleans(),
    st.sampled_from(list(RRType)),
    st.text(max_size=4).map(Label),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.builds(Pair, children, children),
        st.dictionaries(_keys, children, max_size=4),
        st.dictionaries(_keys, children, max_size=4).map(
            collections.OrderedDict
        ),
    )


_values = st.recursive(_leaves, _containers, max_leaves=24)


@given(_values)
def test_canonical_json_matches_generic_chain(value):
    assert canonical_json(value) == _reference_json(value)
    assert stable_digest(value) == _reference_digest(value)


def test_subclasses_keep_their_generic_encoding():
    # IntEnum members are ints, str subclasses are strs, namedtuples are
    # tuples: the fast path must not catch any of them.
    assert canonical_json(RRType.DLV) == (
        '{"__enum__":"RRType","value":32769}'
    )
    assert canonical_json([True, 1, -0.0, Label("x"), Pair(1, (2,))]) == (
        '[true,1,-0.0,"x",[1,[2]]]'
    )
    assert canonical_json({RRType.A: 1, 2: None}) == '{"1":1,"2":null}'


def test_store_addresses_and_digests_match_the_reference():
    seed = 2016
    factory = standard_universe_factory(
        8, filler_count=120, workload_seed=seed
    )
    names = standard_workload(8, seed=seed).names(8)
    spec = plan_shards(names, 2, seed)[0]
    key = shard_cell_key(
        factory, correct_bind_config(), spec, shard_count=2, seed=seed
    )
    assert key.digest() == _reference_digest(key)
    assert config_digest(correct_bind_config()) == _reference_digest(
        correct_bind_config()
    )
    result = run_shard(factory, correct_bind_config(), spec)
    assert fingerprint_digest(result) == _reference_digest(
        result_fingerprint(result)
    )
