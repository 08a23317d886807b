"""Exception taxonomy shared by all modules."""


class MixedContextError(ValueError):
    """Operands live in different ring contexts."""


class NotAttainableError(ValueError):
    """A requested Hilbert function is not attainable in the target quotient."""


class NotAnIdealError(RuntimeError):
    """The extended lex-first embedding of a z-stable ideal is not z-stable,
    or has a component that is not embedded.

    ``verify.verify_embedding_lemmas`` raises it; for a z-stable input it
    signals a bug upstream.
    """


class HilbertMismatchError(ValueError):
    """Two ideals that must share a Hilbert function do not."""


class ResourceLimitError(RuntimeError):
    """An input broke a resource or input limit; the message names its
    ``limits`` constant."""


class DegreeCapExceededError(ResourceLimitError):
    """Groebner computation exceeded its degree cap."""


class IterationCapExceededError(ResourceLimitError):
    """z_stabilize needed more than ``limits.STABILIZATION_ROUND_LIMIT``
    rounds, or a round failed to move up (bug signal)."""
