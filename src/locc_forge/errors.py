"""Exception types shared across the package."""


class LoccForgeError(Exception):
    """Base class for all errors raised by locc_forge."""


class InvalidInputError(LoccForgeError, ValueError):
    """Malformed or inconsistent input (bad shapes, NaN entries, ...)."""


class InfeasibleError(LoccForgeError):
    """A transformation or decomposition that the inputs cannot support.

    When the failure is a success probability above the achievable maximum,
    `p_max` carries that maximum.
    """

    def __init__(self, message, p_max=None):
        super().__init__(message)
        self.p_max = p_max


class NumericalDegeneracyError(LoccForgeError):
    """A numerical routine could not make progress at the given tolerance."""
