"""Semantic exceptions shared across the package."""

from __future__ import annotations

__all__ = ["ConicRectError", "DomainError", "ConvergenceError", "IntegrandError"]


class ConicRectError(Exception):
    """Base class for every error raised by this package."""


class DomainError(ConicRectError, ValueError):
    """An input violates a documented precondition."""


class ConvergenceError(ConicRectError, RuntimeError):
    """An iteration failed to reach its tolerance within its budget."""


class IntegrandError(ConicRectError, ArithmeticError):
    """An integrand produced NaN or an infinity, or finite values whose
    integral overflows; the offending abscissa or interval is in the message."""
