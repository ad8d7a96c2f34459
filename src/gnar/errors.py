"""Exception types shared across the package."""


class GnarError(ValueError):
    """Base class for all domain errors raised by this package.  ``at`` is the field and
    0-based index of the item a record blames, if there is one: ``("edges", 3)``, or a panel
    cell's ``("values", j, t)``.  Readers turn it into a line (:func:`textfile.located`)."""

    def __init__(self, message: str, at: tuple | None = None):
        super().__init__(message)
        self.at = at


class NetworkError(GnarError):
    """Malformed network input."""


class OrderError(GnarError):
    """Model order or coefficient shapes are inconsistent."""


class DesignError(GnarError):
    """A design matrix cannot be built from the given panel and order."""


class RankDeficiencyError(DesignError):
    """The design matrix is rank deficient; carries the dependent columns."""

    def __init__(self, message: str, dependent_columns: list[str]):
        super().__init__(message)
        self.dependent_columns = dependent_columns


class CovarianceError(GnarError):
    """A covariance matrix is not symmetric positive definite."""


class DataError(GnarError):
    """Input data files are malformed or incomplete."""


class SizeError(DataError, DesignError, NetworkError, OrderError):
    """Inputs that must cover the same nodes do not; raised by :func:`check_size` only."""


def check_size(a: str, n: int | tuple[int, ...], b: str, m: int) -> None:
    """The one size rule: ``a`` covers ``b``'s m nodes, with n nodes or an m x m shape."""
    if isinstance(n, tuple) and n != (m, m):
        raise SizeError(f"{a} has shape {n}, {b} has {m} nodes")
    if not isinstance(n, tuple) and n != m:
        raise SizeError(f"{a} has {n} nodes, {b} has {m}")
