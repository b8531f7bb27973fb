"""Dictionary attacks on privacy-preserving (hashed) DLV.

Paper Section 6.2.4: hashed DLV only protects a Case-2 query if the
registry operator cannot invert the digest.  An adversary who suspects
the query population can precompute ``crypto_hash(candidate)`` for a
candidate dictionary and match observed digests.  The paper argues the
live domain population (>350M names, plus unbounded subdomains) makes an
exhaustive dictionary impractical, but that a *targeted* dictionary
(e.g. DNSSEC-enabled domains only) recovers its members.

:class:`DictionaryAttack` simulates exactly that: given observed hashed
query labels and a candidate dictionary, how many queries are recovered?
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence, Set

from ..crypto import hash_domain_label
from ..dnscore import Name, RRType
from ..netsim import Capture


@dataclasses.dataclass
class AttackResult:
    """Outcome of one dictionary attack."""

    observed_digests: int
    dictionary_size: int
    recovered: Dict[str, Name]
    hash_evaluations: int

    @property
    def recovered_count(self) -> int:
        return len(self.recovered)

    @property
    def recovery_rate(self) -> float:
        if self.observed_digests == 0:
            return 0.0
        return self.recovered_count / self.observed_digests


class DictionaryAttack:
    """The registry operator's offline attack against hashed queries."""

    def __init__(self, registry_origin: Name, registry_address: str):
        self._origin = registry_origin
        self._address = registry_address

    def observed_digest_labels(self, capture: Capture) -> List[str]:
        """Hashed-query labels seen at the registry (distinct, ordered
        by first appearance)."""
        seen: Set[str] = set()
        ordered: List[str] = []
        for record in capture.queries_of_type(RRType.DLV):
            if record.dst != self._address or record.dropped:
                continue  # only what reached the registry
            qname = record.qname
            assert qname is not None
            if not qname.is_subdomain_of(self._origin) or qname == self._origin:
                continue
            relative = qname.relativize(self._origin)
            if len(relative) != 1:
                continue
            label = relative[0]
            if label not in seen:
                seen.add(label)
                ordered.append(label)
        return ordered

    def attack(
        self,
        capture: Capture,
        dictionary: Sequence[Name],
        max_hash_evaluations: Optional[int] = None,
    ) -> AttackResult:
        """Precompute digests for the dictionary and match observations.

        ``max_hash_evaluations`` models a compute budget — the paper's
        feasibility argument is exactly that the required number of
        evaluations scales with the candidate space.
        """
        observed = self.observed_digest_labels(capture)
        targets = set(observed)
        recovered: Dict[str, Name] = {}
        evaluations = 0
        for candidate in dictionary:
            if max_hash_evaluations is not None and evaluations >= max_hash_evaluations:
                break
            evaluations += 1
            label = hash_domain_label(candidate)
            if label in targets and label not in recovered:
                recovered[label] = candidate
                if len(recovered) == len(targets):
                    break
        return AttackResult(
            observed_digests=len(observed),
            dictionary_size=len(dictionary),
            recovered=recovered,
            hash_evaluations=evaluations,
        )


def coverage_curve(
    attack: DictionaryAttack,
    capture: Capture,
    dictionary: Sequence[Name],
    checkpoints: Iterable[int],
) -> List[dict]:
    """Recovery rate as the dictionary grows — the bench's series."""
    rows = []
    for size in checkpoints:
        result = attack.attack(capture, dictionary[:size])
        rows.append(
            {
                "dictionary_size": size,
                "recovered": result.recovered_count,
                "observed": result.observed_digests,
                "recovery_rate": result.recovery_rate,
            }
        )
    return rows
