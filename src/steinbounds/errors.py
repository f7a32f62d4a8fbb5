"""Exception types shared across the package."""


class ValidityError(ValueError):
    """A requested derivative order or mode falls outside a family's
    validity window (level constants undefined there)."""


class NumericError(RuntimeError):
    """Quadrature or propagation failed to reach its accuracy contract."""
