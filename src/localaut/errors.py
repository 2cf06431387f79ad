"""Error taxonomy.

Operational failures raise; mathematical verdicts (NotInLattice, NoSolution,
NotInterpolable, Refuted, ...) are returned as values, never raised.
"""
from __future__ import annotations


class LocalautError(Exception):
    """Base class; payload() is the machine-readable CLI error report, named
    by the class."""

    def payload(self) -> dict:
        return {"error": type(self).__name__, "message": str(self)}


class BadParameters(LocalautError):
    pass


class NoEngine(BadParameters):
    """No recovery engine covers the oracle's group."""


class RegimeMismatch(LocalautError):
    pass


class ZeroInput(LocalautError):
    pass


class DomainNotFactorable(LocalautError):
    pass


class TooFewGenerators(LocalautError):
    pass


class AmbientMismatch(LocalautError):
    pass


class OddN(LocalautError):
    pass


class SingularMatrix(LocalautError):
    pass


class NotInGroup(LocalautError):
    pass


class IllegalSigma(LocalautError):
    pass


class IllegalScalarClass(LocalautError):
    pass


class NonUnitaryT(LocalautError):
    pass


class SingularT(LocalautError):
    pass


class DetOutsideLattice(LocalautError):
    pass


class BudgetExceeded(LocalautError):
    """Oracle query budget exhausted; carries the partial report if any."""

    def __init__(self, message: str, partial: dict | None = None):
        super().__init__(message)
        self.partial = partial or {}

    def payload(self) -> dict:
        out = super().payload()
        out["partial"] = self.partial
        return out


class OracleIncomplete(LocalautError):
    """A sample-file oracle was asked for a probe it does not contain."""

    def __init__(self, message: str, missing_probe: dict | None = None):
        super().__init__(message)
        self.missing_probe = missing_probe

    def payload(self) -> dict:
        out = super().payload()
        if self.missing_probe is not None:
            out["missing_probe"] = self.missing_probe
        return out


class ResidualFail(LocalautError):
    pass


class FileFormatError(LocalautError):
    pass
