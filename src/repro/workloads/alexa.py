"""Synthetic "Alexa top-N" popular-domain workload.

The paper queries Alexa's top 100 / 10k / 1M lists.  The list itself is
no longer redistributable (and leakage does not depend on the literal
names), so we generate a seeded population with the distributional
properties the experiments exercise:

* a realistic TLD mix with a long tail (the registry's deposits
  concentrate in few TLDs, so tail-TLD queries fall into wide NSEC
  ranges — one driver of the Fig. 9 decay);
* Zipf-distributed name tokens, so popular prefixes cluster in
  canonical order (the other driver: clustered queries collide with
  previously cached NSEC ranges);
* calibrated DNSSEC deployment rates: ~3 % of SLDs signed (paper
  Section 1), roughly half of those with a DS in the parent (the rest
  are islands of security), and ~1.5 % of domains with a DLV deposit
  (calibrated to the Section 5.3 utility measurement).
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import math
import random
import struct
import sys
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .. import perf
from ..crypto.memo import BoundedMemo
from ..dnscore import Name

#: Registry-filler populations are expensive to draw and identical
#: across repeated universe builds; see :meth:`AlexaWorkload.registry_filler`.
_FILLER_MEMO = BoundedMemo(16)

perf.register_cache(
    "workloads.filler_memo", _FILLER_MEMO.clear, _FILLER_MEMO.stats
)


@dataclasses.dataclass(frozen=True)
class TldSpec:
    """One top-level domain in the simulated root."""

    label: str
    weight: float
    signed: bool = True


#: Default TLD mix.  ~85 % of TLDs signed (paper Section 2.3): ru and cn
#: are the unsigned ones here.
DEFAULT_TLDS: Tuple[TldSpec, ...] = (
    TldSpec("com", 0.46),
    TldSpec("net", 0.12),
    TldSpec("org", 0.09),
    TldSpec("ru", 0.05, signed=False),
    TldSpec("de", 0.05),
    TldSpec("uk", 0.04),
    TldSpec("jp", 0.04),
    TldSpec("br", 0.03),
    TldSpec("cn", 0.03, signed=False),
    TldSpec("info", 0.03),
    TldSpec("io", 0.02),
    TldSpec("xyz", 0.02),
    TldSpec("edu", 0.02),
)


@dataclasses.dataclass(frozen=True)
class DomainSpec:
    """Everything the universe needs to know about one SLD."""

    name: Name
    rank: int
    signed: bool
    ds_in_parent: bool
    dlv_deposited: bool
    out_of_bailiwick_ns: bool

    def is_island_of_security(self) -> bool:
        """Signed but unvalidatable from the root — DLV's raison d'être."""
        return self.signed and not self.ds_in_parent


@dataclasses.dataclass(frozen=True)
class WorkloadParams:
    """Knobs of the synthetic population (defaults are calibrated)."""

    seed: int = 2016
    tlds: Tuple[TldSpec, ...] = DEFAULT_TLDS
    #: Fraction of SLDs that sign their zone (paper: ~3 %).
    signed_fraction: float = 0.03
    #: Of signed SLDs, fraction with a DS in the parent (the rest are
    #: islands of security).
    ds_given_signed: float = 0.5
    #: DLV deposit probability for islands / for secured zones
    #: (calibrated to the paper's Section 5.3 utility of ~1.2 %).
    dlv_given_island: float = 0.35
    dlv_given_secured: float = 0.05
    #: Fraction of domains using shared (out-of-bailiwick) nameservers.
    out_of_bailiwick_fraction: float = 0.15
    #: Name-token model: vocabulary size and Zipf skew.
    vocabulary_size: int = 2000
    token_zipf_s: float = 0.9


#: The letters of a uniform (filler) label.
_ALPHABET = "abcdefghijklmnopqrstuvwxyz"

#: A 32-bit word's letter, looked up by the word's top byte: its top
#: five bits are ``getrandbits(5)``, and 26..31, which ``random.choice``
#: over 26 letters rejects, map to "#".
_LETTER_BY_TOP_BYTE = bytes(
    ord(_ALPHABET[top >> 3]) if top >> 3 < 26 else ord("#")
    for top in range(256)
)

#: Words read from the filler generator at a time.
_FILLER_CHUNK_WORDS = 1 << 14

_TWO_WORDS = struct.Struct("<2I").unpack_from


def _cumulative(weights: Iterable[float]) -> Tuple[List[float], float]:
    """Weights accumulated once, and their total, as ``random.choices``
    accumulates and checks them on every call."""
    cum_weights = list(itertools.accumulate(weights))
    total = cum_weights[-1] + 0.0
    if total <= 0.0:
        raise ValueError("Total of weights must be greater than zero")
    if not math.isfinite(total):
        raise ValueError("Total of weights must be finite")
    return cum_weights, total


def _uniform_filler_draws(
    rng: random.Random, tlds: Sequence[str], cum_weights: Sequence[float],
    total: float,
) -> Iterator[Tuple[str, str]]:
    """``(NameGenerator.uniform_label(), rng.choices(tlds,
    cum_weights=cum_weights)[0])`` pairs, without end, read from *rng*
    in bulk.

    Every one of those calls consumes whole 32-bit words of the
    generator: ``randrange(8, 14)`` takes a word's top three bits and
    rejects 6 and 7, each letter takes a word's top five bits and
    rejects 26..31, and ``random()`` makes 53 bits from two words.
    ``getrandbits(32 * n)`` returns the next *n* words, the first in
    its lowest bits, so parsing them in order gives the same pairs.  It
    reads ahead, so *rng* must be private to the caller and discarded.
    """
    last = len(tlds) - 1
    data = b""  # unparsed words, four little-endian bytes each
    tops = b""  # the top byte of each word
    letters = ""  # the letter of each word, "#" where rejected
    pos = 0
    while True:
        start = pos
        try:
            spare = tops[pos] >> 5
            pos += 1
            while spare > 5:
                spare = tops[pos] >> 5
                pos += 1
            end = pos + 8 + spare
            rejected = letters.count("#", pos, end)
            while rejected:
                counted, end = end, end + rejected
                rejected = letters.count("#", counted, end)
            if 4 * end + 8 > len(data):
                raise IndexError(end)
        except IndexError:
            # The name runs past the words read: read more and parse it
            # again from its first word.
            data = data[4 * start:] + rng.getrandbits(
                32 * _FILLER_CHUNK_WORDS
            ).to_bytes(4 * _FILLER_CHUNK_WORDS, "little")
            tops = data[3::4]
            letters = tops.translate(_LETTER_BY_TOP_BYTE).decode("ascii")
            pos = 0
            continue
        label = letters[pos:end].replace("#", "")
        high, low = _TWO_WORDS(data, 4 * end)
        pos = end + 2
        fraction = ((high >> 5) * 67108864.0 + (low >> 6)) * (
            1.0 / 9007199254740992.0
        )
        yield label, tlds[bisect.bisect(cum_weights, fraction * total, 0, last)]


class NameGenerator:
    """Seeded generator of plausible, clustered domain labels."""

    _SYLLABLES = (
        "an ba be bo ca co da de di do el en er fa fi go ha he in ka ki "
        "la le li lo ma me mi mo na ne no pa pe po ra re ri ro sa se si "
        "so ta te ti to ul un va ve vi yo za zo"
    ).split()

    def __init__(self, rng: random.Random, params: WorkloadParams):
        self._rng = rng
        vocabulary = []
        for _ in range(params.vocabulary_size):
            syllable_count = rng.choice((2, 2, 3, 3, 4))
            vocabulary.append(
                "".join(rng.choice(self._SYLLABLES) for _ in range(syllable_count))
            )
        self._vocabulary = vocabulary
        # Zipf weights over the vocabulary, accumulated once: choices()
        # would accumulate them on every call with ``weights=``.
        s = params.token_zipf_s
        weights = [1.0 / (rank + 1) ** s for rank in range(len(vocabulary))]
        total = sum(weights)
        self._cum_weights, self._total = _cumulative(
            w / total for w in weights
        )

    def token(self) -> str:
        # random.choices(vocabulary, cum_weights=...)[0], inlined.
        return self._vocabulary[
            bisect.bisect(
                self._cum_weights,
                self._rng.random() * self._total,
                0,
                len(self._vocabulary) - 1,
            )
        ]

    def label(self) -> str:
        """One SLD label: one or two Zipf tokens, occasionally a digit."""
        roll = self._rng.random()
        if roll < 0.45:
            label = self.token()
        elif roll < 0.9:
            label = self.token() + self.token()
        else:
            label = self.token() + str(self._rng.randrange(100))
        return label[:40]

    def uniform_label(self, length_range: Tuple[int, int] = (8, 14)) -> str:
        """A uniformly random label — used for registry filler entries so
        their density does NOT track query clustering (see module docs)."""
        length = self._rng.randrange(*length_range)
        getrandbits = self._rng.getrandbits
        letters = []
        for _ in range(length):
            # random.choice over 26 letters, inlined: 5-bit draws with
            # 26..31 rejected, the same calls on the same generator.
            index = getrandbits(5)
            while index >= 26:
                index = getrandbits(5)
            letters.append(_ALPHABET[index])
        return "".join(letters)


class AlexaWorkload:
    """The generated population, ordered by popularity rank."""

    def __init__(self, count: int, params: Optional[WorkloadParams] = None):
        # The list is one long-lived graph: draw it with the collector
        # paused.
        with perf.collector_paused():
            self.params = params or WorkloadParams()
            self._rng = random.Random(self.params.seed)
            self._names = NameGenerator(self._rng, self.params)
            self.domains: List[DomainSpec] = []
            self._by_name: Dict[Name, DomainSpec] = {}
            tld_labels = [tld.label for tld in self.params.tlds]
            # Name labels of each TLD; generated labels are lowercase, so a
            # (label, TLD label) pair is a name's labels before it is built.
            tld_keys = [label.lower() for label in tld_labels]
            tld_cum_weights, tld_total = _cumulative(
                tld.weight for tld in self.params.tlds
            )
            last = len(tld_labels) - 1
            signed_tlds = {tld.label for tld in self.params.tlds if tld.signed}
            draw = self._rng.random
            seen = set()
            rank = 0
            while len(self.domains) < count:
                label = self._names.label()
                # rng.choices(tld_labels, weights=...)[0], inlined.
                index = bisect.bisect(
                    tld_cum_weights, draw() * tld_total, 0, last
                )
                key = (label, tld_keys[index])
                if key in seen:
                    continue
                seen.add(key)
                name = Name(key)
                rank += 1
                spec = self._make_spec(
                    name, rank, tld_labels[index] in signed_tlds
                )
                self.domains.append(spec)
                self._by_name[name] = spec

    def _make_spec(self, name: Name, rank: int, tld_signed: bool) -> DomainSpec:
        p = self.params
        signed = self._rng.random() < p.signed_fraction
        # A DS can only live in a parent that is itself signed; SLDs
        # under unsigned TLDs are islands of security at best.  (The
        # roll is drawn whenever the zone is signed so seeded sequences
        # stay stable across this constraint.)
        ds_roll = signed and self._rng.random() < p.ds_given_signed
        ds_in_parent = ds_roll and tld_signed
        if signed and not ds_in_parent:
            dlv = self._rng.random() < p.dlv_given_island
        elif signed:
            dlv = self._rng.random() < p.dlv_given_secured
        else:
            dlv = False
        return DomainSpec(
            name=name,
            rank=rank,
            signed=signed,
            ds_in_parent=ds_in_parent,
            dlv_deposited=dlv,
            out_of_bailiwick_ns=self._rng.random() < p.out_of_bailiwick_fraction,
        )

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.domains)

    def __iter__(self):
        return iter(self.domains)

    def top(self, count: int) -> List[DomainSpec]:
        return self.domains[:count]

    def names(self, count: Optional[int] = None) -> List[Name]:
        pool = self.domains if count is None else self.domains[:count]
        return [spec.name for spec in pool]

    def get(self, name: Name) -> Optional[DomainSpec]:
        return self._by_name.get(name)

    def shuffled_names(self, count: int, trial_seed: int) -> List[Name]:
        """A shuffled copy of the top-*count* names — the Section 5.1
        "Order Matters" experiment."""
        names = self.names(count)
        random.Random(trial_seed).shuffle(names)
        return names

    def registry_filler(
        self,
        count: int,
        tld_weights: Optional[Dict[str, float]] = None,
    ) -> List[Tuple[str, str]]:
        """Background registry deposits: domains registered in the DLV
        zone that the experiment never queries, as ``(label, tld)``
        label tuples (a registry keys its deposits by labels and builds
        a depositor's :class:`Name` only when it answers for it).
        Labels are uniform (the registry population does not track
        query-name clustering); the TLD mix defaults to the workload's
        own mix tilted toward the DNSSEC-friendly TLDs, mirroring the
        real registry."""
        if tld_weights is None:
            tld_weights = self.calibrated_filler_weights()
        # The population is a pure function of (params, workload size,
        # count, weights) — params seed the generator, workload size
        # fixes the collision set — so repeated universe builds over the
        # same workload reuse it from the memo.
        memo_key = (
            self.params,
            len(self._by_name),
            count,
            tuple(sorted(tld_weights.items())),
        )
        if perf.ENABLED:
            cached = _FILLER_MEMO.get(memo_key)
            if cached is not None:
                return list(cached)
        # Independent RNG: the filler population must not depend on how
        # many workload domains were generated before it.  The draws are
        # long-lived: make them with the collector paused.
        with perf.collector_paused():
            rng = random.Random(self.params.seed ^ 0xF111E4)
            # The filler stream starts where a generator's vocabulary ends.
            NameGenerator(rng, self.params)
            filler: List[Tuple[str, str]] = []
            seen = {name.labels for name in self._by_name}
            if count > 0:
                # One string per TLD label whatever the draw: names pickle
                # their labels by identity, so a draw's own copies would
                # make a stored cell's bytes depend on which draws its
                # process made before.
                draws = _uniform_filler_draws(
                    rng,
                    [sys.intern(label.lower()) for label in tld_weights],
                    *_cumulative(tld_weights.values()),
                )
                while len(filler) < count:
                    key = next(draws)
                    if key in seen:
                        continue
                    seen.add(key)
                    filler.append(key)
                # Closing the endless generator raises in its frame, an
                # allocation: do it while the collector is still paused.
                draws.close()
            if perf.ENABLED:
                _FILLER_MEMO.put(memo_key, tuple(filler))
        return filler

    def calibrated_filler_weights(self) -> Dict[str, float]:
        """The registry-population TLD mix that reproduces the paper's
        leakage curve (Figs. 8/9): deposits concentrated in the
        DNSSEC-friendly TLDs, none at all in the long tail (those tail
        TLDs collapse into a handful of wide NSEC ranges, which is what
        caps leakage at ~84 % even for the top-100 workload)."""
        weights = {t.label: t.weight for t in self.params.tlds}
        for boosted in ("com", "net", "org", "edu", "info"):
            if boosted in weights:
                weights[boosted] *= 1.5
        for uncovered in ("ru", "cn", "io", "xyz", "uk"):
            weights.pop(uncovered, None)
        return weights
