"""Name draws consume the random stream exactly as ``random``'s own
calls do.

``NameGenerator.uniform_label`` inlines ``random.choice`` over 26
letters, and ``token`` and ``AlexaWorkload.registry_filler`` hand
``random.choices`` weights accumulated once.  Every workload name and
registry filler entry -- hence every golden file -- rests on those
draws being the same calls on the same generator as the straightforward
``rng.choice`` / ``rng.choices(weights=...)`` forms below.  If a change
to ``random`` ever parts the two, these tests name the draw that moved.
"""

import random

import pytest

from repro import perf
from repro.dnscore import Name
from repro.workloads import AlexaWorkload, NameGenerator, WorkloadParams

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


def reference_filler(workload: AlexaWorkload, count: int):
    """``registry_filler(count)`` with every draw made by ``random``."""
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
            filler.append(name)
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
