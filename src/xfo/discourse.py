"""Claims backed by evidence, and an INUS condition checker.

A claim is supported iff at least one evidence entry is validated. Causal
fields declare their sufficient condition sets outright; the checker decides
whether a condition is an Insufficient but Necessary part of an Unnecessary
but Sufficient set by testing only the subsets that definition names, so its
cost grows with the declared sets, not with the powerset of conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .errors import (
    DanglingEvidenceRefError,
    DuplicateNameError,
    UnknownClaimError,
    UnknownConditionError,
    XfoError,
)


@dataclass
class Evidence:
    ref: str
    note: str = ""
    validated: bool = False


@dataclass
class Claim:
    id: str
    statement: str
    evidence: list[Evidence] = field(default_factory=list)

    @property
    def supported(self) -> bool:
        return any(e.validated for e in self.evidence)


class ClaimLedger:
    """Claims with evidence links into the model.

    ``instance_lookup`` (optional) resolves instance ids; when provided,
    evidence refs that are not document refs (no ``:`` in them) must name a
    known instance, alive or destroyed.
    """

    def __init__(self, instance_lookup: Callable[[str], bool] | None = None):
        self._lookup = instance_lookup
        self._claims: dict[str, Claim] = {}

    def claim(self, claim_id: str) -> Claim:
        claim = self._claims.get(claim_id)
        if claim is None:
            raise UnknownClaimError(f"unknown claim: {claim_id}")
        return claim

    def add_claim(self, claim_id: str, statement: str) -> Claim:
        if claim_id in self._claims:
            raise DuplicateNameError(f"claim {claim_id!r} already exists")
        claim = Claim(claim_id, statement)
        self._claims[claim_id] = claim
        return claim

    def attach_evidence(
        self, claim_id: str, ref: str, note: str = "", validated: bool = False
    ) -> Claim:
        claim = self.claim(claim_id)
        if self._lookup is not None and ":" not in ref and not self._lookup(ref):
            raise DanglingEvidenceRefError(f"evidence ref {ref!r} names no known artifact")
        claim.evidence.append(Evidence(ref, note, validated))
        return claim

    def validate_evidence(self, claim_id: str, ref: str) -> Claim:
        claim = self.claim(claim_id)
        for entry in claim.evidence:
            if entry.ref == ref:
                entry.validated = True
                return claim
        raise DanglingEvidenceRefError(f"claim {claim_id!r} has no evidence {ref!r}")

    def supported(self, claim_id: str) -> bool:
        return self.claim(claim_id).supported


# --- INUS ----------------------------------------------------------------------

@dataclass(frozen=True)
class CausalField:
    """An outcome, its condition universe, and the declared sufficient sets."""

    outcome: str
    universe: tuple[str, ...]
    sufficient: tuple[frozenset[str], ...]

    def __post_init__(self):
        known = set(self.universe)
        for subset in self.sufficient:
            stray = subset - known
            if stray:
                raise UnknownConditionError(
                    f"sufficient set names unknown condition(s): {sorted(stray)}"
                )


@dataclass(frozen=True)
class InusVerdict:
    condition: str
    inus: bool
    witness: frozenset[str] | None


def check_inus(field_: CausalField, condition: str) -> InusVerdict:
    """Decide the INUS property by testing the subsets the definition names.

    True iff some declared sufficient set S contains the condition such that
    (i) the condition alone is insufficient, (ii) S minus the condition is
    insufficient (the condition is a necessary part of S), (iii) some
    declared set excludes the condition (S is unnecessary), and (iv) S is
    declared sufficient. The first such S in declaration order is the witness.
    """
    if condition not in field_.universe:
        raise UnknownConditionError(f"condition {condition!r} not in universe")
    if not field_.sufficient:
        raise XfoError("causal field declares no sufficient sets")

    def sufficient(conditions: frozenset[str]) -> bool:
        # A set is (derived) sufficient iff it contains a declared sufficient set.
        return any(s <= conditions for s in field_.sufficient)

    insufficient = not sufficient(frozenset({condition}))
    unnecessary = any(condition not in other for other in field_.sufficient)
    if insufficient and unnecessary:
        for candidate in field_.sufficient:
            if condition in candidate and not sufficient(candidate - {condition}):
                return InusVerdict(condition, True, candidate)
    return InusVerdict(condition, False, None)
