"""Exception hierarchy for the forecasting harness."""


class TsfError(Exception):
    """Base class for all harness errors."""


# --- dataset ---

class MissingColumn(TsfError):
    pass


class NonUniformSampling(TsfError):
    pass


class NonNumericValue(TsfError):
    def __init__(self, row: int, column: str, raw: str):
        self.row = row
        self.column = column
        self.raw = raw
        super().__init__(f"non-numeric value {raw!r} at row {row}, column {column!r}")


class EmptyFile(TsfError):
    pass


class SeriesTooShort(TsfError):
    pass


class NonFiniteValue(TsfError):
    pass


# --- patching ---

class WindowTooLarge(TsfError):
    pass


class InvalidClockTime(TsfError):
    pass


# --- neighbors ---

class EmptyPool(TsfError):
    pass


class LengthMismatch(TsfError):
    """Sequences that must align differ in length (neighbors, evaluation)."""


# --- prompting ---

class UnboundPlaceholder(TsfError):
    pass


class EmptyNeighborSet(TsfError):
    pass


class MissingNeighbors(TsfError):
    pass


class UnexpectedNeighbors(TsfError):
    pass


# --- llm gateway ---

class TransportError(TsfError):
    pass


class HttpStatusError(TsfError):
    def __init__(self, status: int, body: str):
        self.status = status
        self.body = body
        super().__init__(f"HTTP {status}: {body[:500]}")


class ReplayMiss(TsfError):
    pass


# --- parsing ---

class NoListFound(TsfError):
    pass


class WrongCount(TsfError):
    def __init__(self, found: int, expected: int):
        self.found = found
        self.expected = expected
        super().__init__(f"expected {expected} values, found {found}")


class NonNumericElement(TsfError):
    pass


# --- evaluation ---

class NoParsedWindows(TsfError):
    pass


class MismatchedRuns(TsfError):
    pass


class ZeroBaseline(TsfError):
    pass


class NoOverlap(TsfError):
    pass


# --- cli ---

class ConfigError(TsfError):
    pass
