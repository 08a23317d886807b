"""Exception taxonomy shared by all modules."""


class MixedContextError(ValueError):
    """Operands live in different ring contexts."""


class NotAttainableError(ValueError):
    """A requested Hilbert function is not attainable in the target quotient."""


class HilbertMismatchError(ValueError):
    """Two ideals that must share a Hilbert function do not."""


class ResourceLimitError(RuntimeError):
    """An input broke a resource or input limit; the message names its
    ``limits`` constant, or the value that ``limits.read_int`` found not
    to be a digit string."""


class DegreeCapExceededError(ResourceLimitError):
    """Groebner computation exceeded its degree cap."""


class IterationCapExceededError(ResourceLimitError):
    """z_stabilize needed more than ``limits.STABILIZATION_ROUND_LIMIT``
    rounds."""
