"""Exception hierarchy.

``exit_code`` drives the CLI: 1 for domain/numerical failures, 2 for
IO, file-format and configuration errors.
"""


class FluxRecError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class InvalidGeometryError(FluxRecError):
    """Mesh parameters or mesh topology violate a geometric invariant."""


class MissingTagError(FluxRecError):
    """Requested boundary tag is not present in the mesh."""


class DegenerateTriangleError(FluxRecError):
    """A triangle area fell below the assembly threshold."""


class TagMismatchError(FluxRecError):
    """A boundary vector carries the wrong component tag."""


class DimensionMismatchError(FluxRecError):
    """Array length does not match the expected boundary/mesh size."""


class SolverFailureError(FluxRecError):
    """A direct solve failed: an asymmetric system, a failed LU or SVD, a block residual
    above 1e-10, a non-finite field or solution, or a noise draw that is zero twice."""


class EigensolverFailureError(FluxRecError):
    """Boundary eigendecomposition failed or violated its postconditions."""


class BracketFailureError(FluxRecError):
    """Discrepancy bisection could not bracket the residual target."""


class ParameterDomainError(FluxRecError):
    """A parameter or a data value lies outside its domain (e.g. non-finite data)."""


class InadmissibleSampleError(FluxRecError):
    """A sample violates the admissible-set constraint."""


class FitFailureError(FluxRecError):
    """The VSC constants could not be fitted to the calibration ensemble."""


class DegenerateEnsembleError(FluxRecError):
    """Ensemble carries no usable signal (e.g. all trace norms zero)."""


class InsufficientDataError(FluxRecError):
    """Too few successful rows to fit the rate model."""


class MalformedFileError(FluxRecError):
    """A data file failed to parse; carries the offending line number."""

    exit_code = 2

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"{message} (line {line_number})"
        super().__init__(message)
        self.line_number = line_number


class SchemaError(FluxRecError):
    """Config value failed validation; carries the key path."""

    exit_code = 2

    def __init__(self, key: str, message: str):
        super().__init__(f"config key '{key}': {message}")
        self.key = key


class UnknownKeyError(SchemaError):
    """Config file contains a key the schema does not define."""

    def __init__(self, key: str):
        super().__init__(key, "unknown key")
