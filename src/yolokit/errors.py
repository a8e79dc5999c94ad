"""Exception types shared across the kit."""


class YoloKitError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(YoloKitError):
    """A tensor or kernel argument has an incompatible shape."""


class TapeError(YoloKitError):
    """Gradient tape misuse, e.g. backward before a recorded forward."""


class CfgParseError(YoloKitError):
    """Malformed network-definition text. Carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class GraphValidationError(YoloKitError):
    """A parsed graph violates a structural or shape constraint."""


class WeightsFileError(YoloKitError):
    """Weight-file bytes do not match the graph (truncated, trailing, non-finite)."""


class AnnotationError(YoloKitError):
    """Malformed annotation or prediction text. Carries the 1-based line number,
    and the file's name when the text came from a file."""

    def __init__(self, message: str, line: int | None = None, path=None):
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line = line
        self.path = path


def undecodable(exc: UnicodeDecodeError) -> str:
    """What a text reader says of bytes that ``exc`` could not decode."""
    return f"not UTF-8 text: {exc.reason} 0x{exc.object[exc.start]:02x}"


class NumericError(YoloKitError):
    """Non-finite values where finite ones are required (loss, training)."""


class ValidationError(YoloKitError):
    """Input data violates a documented contract (ranges, class indices)."""


class UsageError(YoloKitError):
    """API or CLI misuse: bad argument combinations, unparameterized network."""
