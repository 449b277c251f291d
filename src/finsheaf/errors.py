"""Exception types shared across the package.

Checker operations never raise for *mathematical* failures (a presheaf
failing the gluing axiom is report data, not an error); exceptions are
reserved for malformed inputs and violated preconditions.

The errors for malformed spaces, coverings, value objects and value maps
also derive from ``ValueError``: the file readers turn those into
``ParseError``, and callers that caught ``ValueError`` keep working.
"""


class FinsheafError(Exception):
    """Base class for all package errors."""


# -- topology --------------------------------------------------------------

class GeneratorsDoNotCover(FinsheafError):
    pass


class UnknownPoint(FinsheafError):
    pass


class NotAnOpen(FinsheafError):
    pass


class NotContinuous(FinsheafError):
    pass


class MalformedSpace(FinsheafError, ValueError):
    """Point labels or opens that do not form a topology or a basis."""


class MalformedCovering(FinsheafError, ValueError):
    pass


class NotComposable(FinsheafError, ValueError):
    """The inner map's target is not the outer map's source."""


# -- value categories ------------------------------------------------------

class MalformedValue(FinsheafError, ValueError):
    """A finite set or group table that breaks the axioms of its category."""


class NotAMorphism(FinsheafError, ValueError):
    """A table that is not a map, or not a homomorphism, between its ends."""


class NotInvertible(FinsheafError, ValueError):
    pass


class MixedCategories(FinsheafError):
    pass


class MalformedDiagram(FinsheafError):
    pass


class NotFiltered(FinsheafError):
    pass


class IncompatibleCone(FinsheafError):
    pass


class WrongCategory(FinsheafError):
    pass


# -- presheaves and functors -----------------------------------------------

class ValueMismatch(FinsheafError):
    pass


class IncompatibleFamily(FinsheafError):
    pass


class NotASheaf(FinsheafError):
    pass


class NotASection(FinsheafError):
    pass


class NotIrreducible(FinsheafError):
    pass


class NotInverseImagePair(FinsheafError):
    pass


# -- gluing ----------------------------------------------------------------

class CocycleViolation(FinsheafError):
    def __init__(self, violations: list[dict]):
        super().__init__(f"{len(violations)} cocycle violations")
        self.violations = violations


class NotAGluing(FinsheafError):
    pass


# -- I/O and resource limits -----------------------------------------------

class ParseError(FinsheafError):
    pass


class CrossReferenceError(FinsheafError):
    pass


class CapExceeded(FinsheafError):
    pass
