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


class DuplicateSeries(TsfError):
    """Two series of one dataset, two columns of a header, or a value column
    and the timestamp column share a name."""


# --- neighbors ---

class EmptyPool(TsfError):
    pass


class LengthMismatch(TsfError):
    """Sequences that must align differ in length (a forecast and its truth)."""


# --- prompting ---

class UnboundPlaceholder(TsfError):
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


class MalformedAnswer(TsfError):
    """An HTTP 200 answer whose body is not JSON with a string at choices[0].message.content,
    or whose usage is not an object of token counts that are integers >= 0."""


class MalformedFixture(TsfError):
    """A line of a replay fixture file that is not a JSON object with string hash
    and text, integer token counts >= 0 and a finite latency >= 0."""


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
