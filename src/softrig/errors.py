"""Exception types shared across the toolkit."""


class SoftrigError(Exception):
    """Base class for all toolkit errors."""


class DomainError(SoftrigError, ValueError):
    """An input is outside the physical or mathematical domain of an operation."""


class ContractError(SoftrigError, ValueError):
    """An argument combination violates an operation's contract."""


class FitError(SoftrigError, RuntimeError):
    """A least-squares fit failed to reach the required residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class StallError(SoftrigError, RuntimeError):
    """The planner cannot make progress in any stiffness mode."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ThermalTimeoutError(SoftrigError, RuntimeError):
    """A stiffness transition did not complete within the allowed time."""

    def __init__(self, message, temperatures=None, elapsed=None):
        super().__init__(message)
        self.temperatures = temperatures
        self.elapsed = elapsed


class ScenarioError(SoftrigError, ValueError):
    """A scenario file is malformed or fails validation."""
