"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Input outside its documented domain (parameters, settings, sweep specs)."""


class InvalidCovarianceError(ValidationError):
    """Matrix is not a physical two-mode covariance matrix."""


class CutoffTooSmallError(RuntimeError):
    """Truncated Fock space cannot hold the state to the requested accuracy."""

    def __init__(self, message, deficit, measure="norm deficit"):
        super().__init__(f"{message} ({measure} {deficit:.3e})")
        self.deficit = deficit


class QuadratureDomainError(RuntimeError):
    """Fidelity integrand does not decay; quadrature domain undefined."""


class VerificationError(RuntimeError):
    """A closed-form-versus-oracle check exceeded its tolerance."""
