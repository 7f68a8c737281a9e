"""Error taxonomy shared by all modules.

Domain and precondition violations are ValueErrors so they compose with
ordinary argument checking; resource and precision failures are runtime
conditions a caller may want to retry with different limits.
"""

__all__ = ["DomainError", "PrecisionError", "PreconditionError", "ResourceError"]


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class PreconditionError(DomainError):
    """Structured precondition violated; message names the required bound."""


class ResourceError(RuntimeError):
    """Work refused because it would exceed a configured budget."""


class PrecisionError(RuntimeError):
    """Requested accuracy unattainable at the configured refinement limit."""
