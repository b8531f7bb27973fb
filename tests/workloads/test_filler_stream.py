"""Name draws take the same values from the random stream, in the same
order, as ``random``'s own calls do.

``NameGenerator.uniform_label`` inlines ``random.choice`` over 26
letters, and ``token`` and ``AlexaWorkload``'s list draw inline
``random.choices`` over weights accumulated once, on the generator they
share.  ``AlexaWorkload.registry_filler`` reads its private generator
in bulk and parses the words as those calls would consume them.  Every
workload name and registry filler entry -- hence every golden file --
rests on those draws giving the values of the straightforward
``rng.choice`` / ``rng.choices(weights=...)`` forms below, and on a
shared generator ending in the same state.  If a change to ``random``
ever parts the two, these tests name the draw that moved.
"""

import random

import pytest

import repro.workloads.alexa as alexa
from repro import perf
from repro.dnscore import Name
from repro.workloads import AlexaWorkload, NameGenerator, WorkloadParams
from repro.workloads.alexa import DomainSpec

SEEDS = (7, 2016, 2017)
ALPHABET = "abcdefghijklmnopqrstuvwxyz"


class ReferenceNames:
    """``NameGenerator``'s draws written with ``rng.choice`` and
    ``rng.choices(weights=...)``."""

    def __init__(self, rng: random.Random, params: WorkloadParams):
        self.rng = rng
        self.vocabulary = [
            "".join(
                rng.choice(NameGenerator._SYLLABLES)
                for _ in range(rng.choice((2, 2, 3, 3, 4)))
            )
            for _ in range(params.vocabulary_size)
        ]
        weights = [
            1.0 / (rank + 1) ** params.token_zipf_s
            for rank in range(len(self.vocabulary))
        ]
        total = sum(weights)
        self.weights = [w / total for w in weights]

    def token(self) -> str:
        return self.rng.choices(self.vocabulary, weights=self.weights, k=1)[0]

    def uniform_label(self, length_range=(8, 14)) -> str:
        length = self.rng.randrange(*length_range)
        return "".join(self.rng.choice(ALPHABET) for _ in range(length))

    def label(self) -> str:
        roll = self.rng.random()
        if roll < 0.45:
            label = self.token()
        elif roll < 0.9:
            label = self.token() + self.token()
        else:
            label = self.token() + str(self.rng.randrange(100))
        return label[:40]


def reference_filler(workload: AlexaWorkload, count: int):
    """``registry_filler(count)`` with every draw made by ``random``: the
    label tuples of the names drawn."""
    weights = workload.calibrated_filler_weights()
    tlds = list(weights)
    rng = random.Random(workload.params.seed ^ 0xF111E4)
    names = ReferenceNames(rng, workload.params)
    seen = set(workload.names())
    filler = []
    while len(filler) < count:
        label = names.uniform_label()
        tld = rng.choices(tlds, weights=[weights[t] for t in tlds], k=1)[0]
        name = Name([label, tld])
        if name not in seen:
            seen.add(name)
            filler.append(name.labels)
    return filler


def twin_generators(seed: int):
    """A ``NameGenerator`` and its reference, each on its own
    generator seeded alike."""
    params = WorkloadParams(seed=seed)
    ours, theirs = random.Random(seed), random.Random(seed)
    return ours, NameGenerator(ours, params), theirs, ReferenceNames(theirs, params)


@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_label_is_random_choice(seed):
    ours, generator, theirs, reference = twin_generators(seed)
    assert ours.getstate() == theirs.getstate()
    drawn = [generator.uniform_label() for _ in range(500)]
    assert drawn == [reference.uniform_label() for _ in range(500)]
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("seed", SEEDS)
def test_token_is_weighted_choices(seed):
    ours, generator, theirs, reference = twin_generators(seed)
    drawn = [generator.token() for _ in range(500)]
    assert drawn == [reference.token() for _ in range(500)]
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("seed", SEEDS)
def test_registry_filler_is_reference_stream(seed):
    with perf.caches_disabled():
        workload = AlexaWorkload(60, WorkloadParams(seed=seed))
        assert workload.registry_filler(2000) == reference_filler(workload, 2000)


def reference_domains(count: int, params: WorkloadParams):
    """``AlexaWorkload(count, params)``'s list with every draw made by
    ``random`` and a ``Name`` built for every draw; returns the list and
    the generator it drew from."""
    rng = random.Random(params.seed)
    names = ReferenceNames(rng, params)
    tlds = [tld.label for tld in params.tlds]
    weights = [tld.weight for tld in params.tlds]
    signed_tlds = {tld.label for tld in params.tlds if tld.signed}
    seen = set()
    domains = []
    while len(domains) < count:
        label = names.label()
        tld = rng.choices(tlds, weights=weights, k=1)[0]
        name = Name([label, tld])
        if name in seen:
            continue
        seen.add(name)
        signed = rng.random() < params.signed_fraction
        ds_roll = signed and rng.random() < params.ds_given_signed
        ds_in_parent = ds_roll and tld in signed_tlds
        if signed and not ds_in_parent:
            dlv = rng.random() < params.dlv_given_island
        elif signed:
            dlv = rng.random() < params.dlv_given_secured
        else:
            dlv = False
        domains.append(
            DomainSpec(
                name=name,
                rank=len(domains) + 1,
                signed=signed,
                ds_in_parent=ds_in_parent,
                dlv_deposited=dlv,
                out_of_bailiwick_ns=rng.random()
                < params.out_of_bailiwick_fraction,
            )
        )
    return domains, rng


@pytest.mark.parametrize("seed", SEEDS)
def test_workload_list_is_reference_stream(seed):
    params = WorkloadParams(seed=seed)
    workload = AlexaWorkload(3000, params)
    domains, rng = reference_domains(3000, params)
    assert workload.domains == domains
    assert workload._rng.getstate() == rng.getstate()


@pytest.mark.parametrize("chunk_words", [1, 5, 64])
def test_registry_filler_parses_names_across_reads(monkeypatch, chunk_words):
    """A name whose words straddle two bulk reads is parsed again from
    its first word once the second read is in."""
    monkeypatch.setattr(alexa, "_FILLER_CHUNK_WORDS", chunk_words)
    with perf.caches_disabled():
        workload = AlexaWorkload(30, WorkloadParams(seed=2017))
        assert workload.registry_filler(300) == reference_filler(workload, 300)
