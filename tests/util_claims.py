"""Test oracles for the insurance claims app: the whole screening chain as
one function, and fresh claims drawn from the world's distribution."""

from __future__ import annotations

from flowbench.apps.insurance_claims import random_claim, rule_amount, rule_flagged, rule_kind
from flowbench.rng import SplitMix64, derive_seed


def claim_route(claim) -> str:
    """The full rule chain, evaluated in fixed order."""
    return rule_flagged(claim) or rule_amount(claim) or rule_kind(claim)


def sample_claims(seed: int, count: int) -> list[dict]:
    """Fresh claims from the same distribution; used for held-out checks."""
    rng = SplitMix64(derive_seed(seed, "fresh-claims"))
    claims = []
    for i in range(count):
        claim = random_claim(rng)
        claim["claim_id"] = i
        claims.append(claim)
    return claims
