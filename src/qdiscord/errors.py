"""Exception types shared across the package."""


class QDiscordError(Exception):
    """Base class for all package-specific errors."""


class NotHermitian(QDiscordError):
    """Input matrix deviates from Hermiticity beyond tolerance."""


class DimensionMismatch(QDiscordError):
    """Operands have incompatible shapes or subsystem dimensions."""


class NotFinite(QDiscordError):
    """A would-be density matrix has a NaN or infinite entry, or one too
    large to check (modulus above ``states.ENTRY_LIMIT``)."""


class OutOfDomain(QDiscordError):
    """A scalar parameter lies outside its documented domain."""


class NotPositive(QDiscordError):
    """A would-be density matrix has a negative eigenvalue."""


class RankTooHigh(QDiscordError):
    """The rank-2 closed form was asked for a state of rank 3 or more."""


class DegenerateMarginal(QDiscordError):
    """The qubit marginal is rank-1, so no channel can be extracted."""


class DegenerateDenominator(QDiscordError):
    """The rho2 closed form hit a vanishing denominator; use the pipeline."""


class ConsistencyError(QDiscordError):
    """An internal identity was violated beyond rounding tolerance."""


class StateFormatError(QDiscordError):
    """A serialized state failed structural or numerical validation."""
