"""Packet-level trace replay: cross-validating the Fig 12 model.

The Fig 12 reproduction (:mod:`repro.workloads.ditl`) evaluates the
TXT-signalling overhead with an *analytic* TTL-cache model, because a
92.7M-query trace is too large for packet-level simulation in pure
Python.  This module replays a (scaled) Zipf query stream through the
*actual* resolver/network stack with the TXT remedy deployed, and
measures the TXT exchanges from the capture — so the analytic model's
core assumption (one cacheable TXT fetch per zone per TTL window) can
be validated against the full implementation.
"""

from __future__ import annotations

import dataclasses
import random
from typing import List, Optional, Sequence

from ..dnscore import RRType
from ..resolver import ResolverConfig, correct_bind_config
from ..workloads import AlexaWorkload, Universe, UniverseParams
from .experiment import LeakageExperiment
from .overhead import SignalingCost


@dataclasses.dataclass
class ZipfReplayResult:
    """Packet-level measurement vs analytic prediction."""

    queries_replayed: int
    distinct_zones: int
    #: TXT exchanges measured from the capture.
    measured_txt_exchanges: int
    measured_txt_bytes: int
    #: The analytic model's prediction: one fetch per distinct zone per
    #: TTL window (the replay stays within one window).
    predicted_txt_exchanges: int

    @property
    def prediction_error(self) -> float:
        if self.predicted_txt_exchanges == 0:
            return 0.0
        return (
            abs(self.measured_txt_exchanges - self.predicted_txt_exchanges)
            / self.predicted_txt_exchanges
        )


def replay_zipf_stream(
    workload: AlexaWorkload,
    query_count: int,
    zipf_s: float = 1.2,
    seed: int = 33,
    config: Optional[ResolverConfig] = None,
    universe_params: Optional[UniverseParams] = None,
) -> ZipfReplayResult:
    """Drive *query_count* Zipf-popularity queries through the packet
    simulator with TXT signalling deployed, then compare the measured
    TXT cost with the analytic cache model's prediction."""
    rng = random.Random(seed)
    population = workload.names()
    weights = [1.0 / (rank + 1) ** zipf_s for rank in range(len(population))]
    stream = rng.choices(population, weights=weights, k=query_count)

    params = universe_params or UniverseParams(modulus_bits=256)
    params = dataclasses.replace(
        params,
        deploy_txt_signal=True,
        registry_filler=tuple(params.registry_filler)
        or tuple(workload.registry_filler(2000)),
    )
    universe = Universe(workload.domains, params)
    resolver_config = dataclasses.replace(
        config or correct_bind_config(), txt_signaling=True
    )
    experiment = LeakageExperiment(universe, resolver_config, ptr_fraction=0.0)
    result = experiment.run(stream)

    cost = SignalingCost.of_query_type(result.capture, RRType.TXT)
    distinct_zones = len(set(stream))
    # The analytic model charges one TXT fetch per distinct zone per
    # TTL window; the resolver only fetches the signal for zones whose
    # validation was not already secure, so the prediction counts the
    # non-secure distinct zones.
    secure = {
        spec.name
        for spec in workload.domains
        if spec.signed and spec.ds_in_parent
    }
    predicted = len(set(stream) - secure)
    return ZipfReplayResult(
        queries_replayed=query_count,
        distinct_zones=distinct_zones,
        measured_txt_exchanges=cost.exchanges,
        measured_txt_bytes=cost.bytes,
        predicted_txt_exchanges=predicted,
    )
