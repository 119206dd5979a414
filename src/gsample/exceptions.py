"""Exception types shared across the package."""


class GSampleError(Exception):
    """Base class for all library errors."""


class GraphConnectivityError(GSampleError, ValueError):
    """A graph is not connected, or a generator drew none that was."""


class EdgeListFormatError(GSampleError):
    """An edge-list file is malformed; carries the offending line number."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"{message} (line {line_number})"
        super().__init__(message)
        self.line_number = line_number


class SingularInformationMatrix(GSampleError):
    """The information matrix is numerically singular; the criterion is undefined."""


class RankDeficientSampling(GSampleError):
    """The sampled rows of the bandlimited basis do not determine the coefficients."""


class FallbackExhausted(GSampleError):
    """Budget-shifting could not restore invertibility of the quantized design."""
