"""Exception types shared across the toolkit, and how messages quote input."""


def shorten(value, limit: int = 40) -> str:
    """repr(value) for an error message, its middle cut out past ``limit``."""
    text = repr(value)
    if len(text) <= limit:
        return text
    return f"{text[:limit // 2]}...{text[3 - limit // 2:]}"


class BytecodeEnergyError(Exception):
    """Base class for all toolkit errors."""


class UnknownPattern(BytecodeEnergyError):
    """A statement or descriptor matches no catalog entry."""


class AmbiguousPattern(BytecodeEnergyError):
    """A mnemonic sequence matches more than one catalog entry."""


class IllegalTriple(BytecodeEnergyError):
    """An (operation, dtype, dsize) combination outside the catalog."""


class DomainError(BytecodeEnergyError):
    """Numeric input outside a function's domain (non-finite, bad range)."""


class SchemaError(BytecodeEnergyError):
    """Malformed measurement file. Carries the offending row number."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


class MissingBaseline(BytecodeEnergyError):
    """A device has measurement records but no baseline records."""

    def __init__(self, device: str):
        super().__init__(f"no baseline records for device {device!r}")
        self.device = device


class UnknownLevel(BytecodeEnergyError):
    """A pattern key refers to a level the model does not define."""


class DataError(BytecodeEnergyError):
    """Dataset keys cannot be mapped onto the model's level sets."""


class DegenerateChains(BytecodeEnergyError):
    """Chain draws have zero total variance; diagnostics are undefined."""


class EmptyManifest(BytecodeEnergyError):
    """A program manifest contains no statements."""
