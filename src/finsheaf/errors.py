"""Exception types shared across the package.

Checker operations never raise for *mathematical* failures (a presheaf
failing the gluing axiom is report data, not an error); exceptions are
reserved for malformed inputs and violated preconditions.
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


# -- value categories ------------------------------------------------------

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
