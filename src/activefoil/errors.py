"""Exception and warning types shared across the package."""


class ActivefoilError(Exception):
    """Base class for every error this library raises on purpose."""


class ContractViolation(ActivefoilError, ValueError):
    """An argument violated a documented precondition."""


class DomainError(ActivefoilError, ValueError):
    """A parameter value lies outside its admissible domain."""


class SingularityError(DomainError):
    """Evaluation requested exactly at a singular point (round-nose slope at the leading edge)."""


class OutOfBoxError(DomainError):
    """A coordinate falls outside the parameter box it is being normalized against."""

    def __init__(self, message, coordinate=None):
        super().__init__(message)
        self.coordinate = coordinate


class DegenerateIntervalError(DomainError):
    """A requested box interval collapses to a point (zero centre with multiplicative bounds)."""


class IllPosedFitError(ActivefoilError, RuntimeError):
    """A least-squares design matrix is rank deficient."""

    def __init__(self, message, rank=None, required=None):
        super().__init__(message)
        self.rank = rank
        self.required = required


class ConditioningError(ActivefoilError, RuntimeError):
    """A constraint system is numerically too ill-conditioned to trust."""


class NoStructureError(ActivefoilError, RuntimeError):
    """An eigenvalue sequence carries no usable gap (all entries at the floor)."""


class EvaluationError(ActivefoilError, RuntimeError):
    """A quantity-of-interest evaluation failed for a specific sample."""

    def __init__(self, message, index=None, report=None):
        super().__init__(message)
        self.index = index
        self.report = report


class DatasetError(ActivefoilError, ValueError):
    """A dataset file is malformed or internally inconsistent."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class SampleSizeWarning(UserWarning):
    """Fewer samples than the recommended multiple of the coefficient count."""
