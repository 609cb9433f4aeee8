"""Exception types raised across the engine.

Everything derives from XfoError so callers can catch the whole family.
One naming rule joins errors and diagnostics: a diagnostic code is its error
class's name without ``Error`` (``DuplicateName`` is ``DuplicateNameError``).
Registry resolution reports findings first; the compiler turns each into a
positioned diagnostic, and ``RegistryBuilder.resolve`` raises the class a
finding's code names only for API callers.
"""

from __future__ import annotations


class XfoError(Exception):
    """Base class for all engine and compiler errors."""


# --- registry ---------------------------------------------------------------

class DuplicateNameError(XfoError):
    pass


class ReservedUpperTaxonomyNameError(XfoError):
    pass


class DanglingReferenceError(XfoError):
    """One or more references that do not resolve; carries all of them."""

    def __init__(self, references: list[tuple[str, str]]):
        # (owner name, message naming the owner and the missing reference)
        self.references = sorted(references)
        super().__init__(
            "unresolved references: " + ", ".join(ref for _, ref in self.references)
        )


class InheritanceCycleError(XfoError):
    pass


class UnboundVariableError(XfoError):
    pass


class RecursiveAggregateError(XfoError):
    pass


class RecursiveCompositionError(XfoError):
    pass


class InvalidChainError(XfoError):
    pass


# --- relation store ----------------------------------------------------------

class UndeclaredPredicateError(XfoError):
    pass


class KindMismatchError(XfoError):
    pass


class SubjectDestroyedError(XfoError):
    pass


class FunctionalConflictError(XfoError):
    pass


class NoSuchLiveTripleError(XfoError):
    pass


class SlotTypeMismatchError(XfoError):
    pass


class AlreadyDestroyedError(XfoError):
    pass


class UnknownInstanceError(XfoError):
    pass


# --- transitions and chains ---------------------------------------------------

class BearerKindMismatchError(XfoError):
    pass


class DestroyedBearerError(XfoError):
    pass


class UnknownChainError(XfoError):
    pass


class MissingBindingError(XfoError):
    pass


class ChainAlreadyFinishedError(XfoError):
    pass


class StateSpaceTooLargeError(XfoError):
    pass


class NonterminatingChainError(XfoError):
    pass


# --- microworld ----------------------------------------------------------------

class MissingRequiredDeterminableError(XfoError):
    pass


class UnknownDeterminantError(XfoError):
    pass


class NoIndependentContinuantParticipantError(XfoError):
    pass


class NoOpenIntervalError(XfoError):
    pass


class DispositionCascadeOverflowError(XfoError):
    pass


class SnapshotVersionMismatchError(XfoError):
    pass


# --- foundry ---------------------------------------------------------------------

class ConflictingModuleError(XfoError):
    pass


class UnknownModuleError(XfoError):
    pass


class UnknownTermError(XfoError):
    pass


class UnknownFacetError(XfoError):
    pass


# --- discourse -------------------------------------------------------------------

class UnknownClaimError(XfoError):
    pass


class DanglingEvidenceRefError(XfoError):
    pass


class UnknownConditionError(XfoError):
    pass


# --- model language ----------------------------------------------------------------

class EmptyRootError(XfoError):
    pass
