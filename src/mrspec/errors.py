"""Exception hierarchy shared across the package."""


class MrspecError(Exception):
    """Base class for all package-specific errors."""


class DomainError(MrspecError, ValueError):
    """An argument lies outside an operation's mathematical domain."""


class NoBoundStateError(MrspecError):
    """The requested state is not bound for the given parameters."""


class ConfigurationError(MrspecError):
    """A registry file or run configuration is malformed."""


class UnknownMoleculeError(MrspecError, KeyError):
    """Molecule name absent from the registry."""

    def __str__(self):
        # KeyError.__str__ repr-quotes the message; keep it readable
        return self.args[0] if self.args else ""


class NumericalInstabilityError(MrspecError):
    """A summation or solve produced a result that cannot be trusted."""
