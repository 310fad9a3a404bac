"""Exception hierarchy and the report type shared by all validation checks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional


class NilflatError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(NilflatError):
    """Input file is readable JSON but does not match the expected schema."""


class DimensionMismatch(NilflatError):
    """Vector or matrix arguments do not match the ambient dimension."""


class NotNilpotent(NilflatError):
    """Lower central series stabilises at a nonzero subspace."""


class JacobiViolated(NilflatError):
    """Structure constants fail the Jacobi identity.

    ``witness`` holds the 1-based triple (i, j, k) and ``defect`` the nonzero
    Jacobi sum as a coefficient vector.
    """

    def __init__(self, message: str, witness: tuple, defect: Any):
        super().__init__(message)
        self.witness = witness
        self.defect = defect


class BasisNotAdapted(NilflatError):
    """Some tail span(e_k, ..., e_n) fails to be an ideal."""


class NotClosed(NilflatError):
    """Two-form fails the cocycle (closedness) condition.

    ``witness`` holds the 1-based ordered triple (i, j, k) and ``defect`` the
    nonzero cyclic sum in that orientation.
    """

    def __init__(self, message: str, witness: tuple, defect: Any):
        super().__init__(message)
        self.witness = witness
        self.defect = defect


class NotIntegral(NilflatError):
    """Extension of the lattice by the two-form is not closed over the integers."""


class NotPositiveDefinite(NilflatError):
    """Metric matrix is not symmetric positive definite."""


class DegeneratePlane(NilflatError):
    """Plane spanning vectors have Gram determinant below tolerance."""


class BoundViolated(NilflatError):
    """Measured curvature exceeded the certified bound (internal bug canary)."""

    def __init__(self, message: str, t: float, value: float, bound: float):
        super().__init__(message)
        self.t = t
        self.value = value
        self.bound = bound


class BudgetNotMet(NilflatError):
    """Certification refinement loop failed to bring curvature under budget."""


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a report-valued check.

    ``witness`` uses 1-based basis indices (e_1, ..., e_n) so it can be shown
    to users verbatim; ``defect`` is check-specific (a vector of rationals for
    bracket identities, a scalar for cocycle sums, coordinates for lattice
    failures).
    """

    ok: bool
    check: str
    message: str = ""
    witness: Optional[tuple] = None
    defect: Any = None

    def __bool__(self) -> bool:
        return self.ok
