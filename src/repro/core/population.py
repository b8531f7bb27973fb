"""Multi-user population experiments (paper Section 7.3.1).

The paper discusses the granularity of the leak: if many stubs share a
public recursive resolver, the registry sees the *aggregate* query
stream under the resolver's address and cannot directly attribute
domains to users; dedicated (per-household) resolvers hand the registry
per-user profiles.  Shared caching also shrinks the aggregate leak,
since one user's look-aside denial suppresses everyone else's.

The paper cautions that aggregation is not a fix — traffic-correlation
techniques can re-link users — but quantifying the baseline granularity
difference is still instructive, and this module does that.

What the registry saw is read off the capture with
:meth:`~repro.core.leakage.LeakageClassifier.classify`, the rule every
leak count uses.  A source address counts as *observed* when it sent
the registry at least one Case-2 query.  Its exposure is the set of
domains those queries name; TLD-level probes and hashed-registry probes
(Section 6.2.2) name none.  So under the hashed remedy every dedicated
resolver is still an observed, attributable source, with zero named
domains: the registry learns who asked and how often, not what.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Sequence, Set

from ..dnscore import Name, RRType
from ..resolver import RecursiveResolver, ResolverConfig, StubClient
from ..workloads import AlexaWorkload, Universe, UniverseParams
from .leakage import LeakageCase, LeakageClassifier


@dataclasses.dataclass(frozen=True)
class UserProfile:
    """One simulated user's browsing set, in visit order."""

    user_id: int
    names: Sequence[Name]


def make_profiles(
    workload: AlexaWorkload,
    user_count: int,
    domains_per_user: int,
    seed: int = 99,
) -> List[UserProfile]:
    """Popularity-weighted profiles: everyone visits the head of the
    list, tails diverge — the usual web-browsing shape."""
    rng = random.Random(seed)
    population = workload.names()
    weights = [1.0 / (rank + 1) for rank in range(len(population))]
    profiles = []
    for user_id in range(user_count):
        chosen: List[Name] = []
        seen: Set[Name] = set()
        while len(chosen) < min(domains_per_user, len(population)):
            name = rng.choices(population, weights=weights, k=1)[0]
            if name in seen:
                continue
            seen.add(name)
            chosen.append(name)
        profiles.append(UserProfile(user_id=user_id, names=tuple(chosen)))
    return profiles


@dataclasses.dataclass
class PopulationResult:
    """What the registry could see and attribute."""

    shared_resolver: bool
    users: int
    #: Source addresses that sent the registry at least one Case-2
    #: DLV query.
    observed_sources: int
    #: Distinct domains named by Case-2 queries across the run.
    aggregate_exposed: int
    #: Users whose (partial) browsing profile is attributable because a
    #: source address maps to exactly one user.
    attributable_users: int
    #: Leaked domains per attributable user.
    per_user_exposure: Dict[int, int]
    #: DLV queries delivered to the registry (Case-1 plus Case-2).
    total_dlv_queries: int


def run_population(
    domains,
    profiles: Sequence[UserProfile],
    config: ResolverConfig,
    shared: bool,
    universe_params: UniverseParams,
) -> PopulationResult:
    """Run every profile, interleaved round-robin, against one shared
    resolver or one resolver per user."""
    universe = Universe(domains, universe_params)
    if shared:
        resolvers = [universe.make_resolver(config)]
    else:
        resolvers = [universe.make_resolver(config) for _ in profiles]
    stubs: List[StubClient] = []
    for index, profile in enumerate(profiles):
        resolver = resolvers[0] if shared else resolvers[index]
        stubs.append(universe.make_stub(resolver))

    # Interleave users' browsing round-robin, as concurrency would.
    cursors = [0] * len(profiles)
    remaining = sum(len(p.names) for p in profiles)
    while remaining:
        for index, profile in enumerate(profiles):
            if cursors[index] >= len(profile.names):
                continue
            stubs[index].query(profile.names[cursors[index]], RRType.A)
            cursors[index] += 1
            remaining -= 1

    # What did the registry see, from which sources?
    resolver_to_user = {}
    if not shared:
        for index, resolver in enumerate(resolvers):
            resolver_to_user[resolver.address] = index
    classified = LeakageClassifier(
        universe.registry_zone, universe.registry_address
    ).classify_queries(universe.capture)
    exposed_by_source: Dict[str, Set[Name]] = {}
    for item in classified:
        if item.case is not LeakageCase.CASE2:
            continue  # Case-1: involved party
        exposed = exposed_by_source.setdefault(item.record.src, set())
        if item.leaked_domain is not None:
            exposed.add(item.leaked_domain)

    aggregate: Set[Name] = set()
    for exposed in exposed_by_source.values():
        aggregate |= exposed
    per_user: Dict[int, int] = {}
    for source, exposed in exposed_by_source.items():
        user = resolver_to_user.get(source)
        if user is not None:
            per_user[user] = len(exposed)
    return PopulationResult(
        shared_resolver=shared,
        users=len(profiles),
        observed_sources=len(exposed_by_source),
        aggregate_exposed=len(aggregate),
        attributable_users=len(per_user),
        per_user_exposure=per_user,
        total_dlv_queries=len(classified),
    )
