"""Exception taxonomy shared by all modules."""


class MixedContextError(ValueError):
    """Operands live in different ring contexts."""


class NotAttainableError(ValueError):
    """A requested Hilbert function is not attainable in the target quotient."""


class NotAnIdealError(RuntimeError):
    """A lex selection failed the ideal-closure check.

    For valid inputs this is dead code (Macaulay's theorem); if it fires,
    either the input precondition was violated or there is a bug upstream.
    """


class HilbertMismatchError(ValueError):
    """Two ideals that must share a Hilbert function do not."""


class ResourceLimitError(RuntimeError):
    """A configurable resource cap was exceeded."""


class DegreeCapExceededError(ResourceLimitError):
    """Groebner computation exceeded its degree cap."""


class IterationCapExceededError(ResourceLimitError):
    """A stabilization loop failed to terminate within its cap (bug signal)."""


class WindowUncertifiedError(RuntimeError):
    """The tail of a cohomology window could not be certified.

    Callers should widen the window (more negative ``lo``) and retry.
    """
