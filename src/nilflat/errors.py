"""Exception hierarchy, the report type of the validation checks, the one
table from a failed check to its error, and the base classes of the
package's records.

`ValidationReport.require` raises JacobiViolated for `jacobi`, NotNilpotent
for `class`, BasisNotAdapted for `adapted`, NotIntegral for
`integer_constants` and `integral`, and NotClosed for `closed`, with the
report's message, witness and defect. `lattice_closed`, which never gates,
has no entry.

A record is a plain class whose `__init__` sets its fields once, through
`self.__dict__`. `_Frozen` refuses every later assignment or deletion with
AttributeError and shows the fields named in `_fields` as
``Name(field=value, ...)``; a `_Frozen` record equals only itself.
`_Record` adds `==` and hash over the same fields, for two records of one
class.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple


class NilflatError(Exception):
    """Base class for all errors raised by this package; ``witness`` and
    ``defect`` are those of the failed check's report, else None."""

    def __init__(self, message: str, witness: Optional[tuple] = None,
                 defect: Any = None):
        super().__init__(message)
        self.witness = witness
        self.defect = defect


class SchemaError(NilflatError):
    """Input file is not JSON or does not match the expected schema."""


class DimensionMismatch(NilflatError):
    """Vector or matrix arguments do not match the ambient dimension."""


class NotNilpotent(NilflatError):
    """Lower central series stabilises at a nonzero subspace."""


class JacobiViolated(NilflatError):
    """Structure constants fail the Jacobi identity.

    ``witness`` holds the 1-based triple (i, j, k) and ``defect`` the nonzero
    Jacobi sum as a coefficient vector.
    """


class BasisNotAdapted(NilflatError):
    """Some tail span(e_k, ..., e_n) fails to be an ideal.

    ``witness`` holds the 1-based pair (i, j) and ``defect`` [e_i, e_j].
    """


class NotClosed(NilflatError):
    """Two-form fails the cocycle (closedness) condition.

    ``witness`` holds the 1-based ordered triple (i, j, k) and ``defect`` the
    nonzero cyclic sum in that orientation.
    """


class NotIntegral(NilflatError):
    """Structure constants or cocycle values that are not integers.

    ``witness`` holds the 1-based triple (i, j, k) of a structure constant or
    the pair (i, j) of a cocycle value, and ``defect`` that value.
    """


class NotPositiveDefinite(NilflatError):
    """Metric matrix is not symmetric positive definite."""


class BoundViolated(NilflatError):
    """Measured curvature exceeded the certified bound (internal bug canary)."""

    def __init__(self, message: str, t: float, value: float, bound: float):
        super().__init__(message)
        self.t = t
        self.value = value
        self.bound = bound


class BudgetNotMet(NilflatError):
    """Certification refinement loop failed to bring curvature under budget."""


class _Frozen:
    """Base of the records that compare by identity (see the module
    docstring)."""

    _fields: Tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


class _Record(_Frozen):
    """Base of the records that compare by their `_fields`; hashing one
    hashes the tuple of its fields, so it fails where a field is a dict."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)


class ValidationReport(_Record):
    """Outcome of a report-valued check.

    ``witness`` uses 1-based basis indices (e_1, ..., e_n) so it can be shown
    to users verbatim; ``defect`` is check-specific (a vector of rationals for
    bracket identities, a scalar for cocycle sums, coordinates for lattice
    failures).
    """

    _fields = ("ok", "check", "message", "witness", "defect")

    def __init__(self, ok: bool, check: str, message: str = "",
                 witness: Optional[tuple] = None, defect: Any = None):
        self.__dict__.update(ok=ok, check=check, message=message,
                             witness=witness, defect=defect)

    def __bool__(self) -> bool:
        return self.ok

    def require(self) -> None:
        """Return on a passing report; raise the error of a failed check."""
        if not self.ok:
            raise _CHECK_ERRORS[self.check](
                self.message, witness=self.witness, defect=self.defect)


_CHECK_ERRORS = {"jacobi": JacobiViolated, "class": NotNilpotent,
                 "adapted": BasisNotAdapted, "integer_constants": NotIntegral,
                 "closed": NotClosed, "integral": NotIntegral}
