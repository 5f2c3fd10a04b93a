"""Exception taxonomy shared across the toolkit.

Errors are split by the stage that raises them so the CLI can map them
to exit codes without string matching.
"""


class HeraError(Exception):
    """Base class for every error raised by this package."""

    def __reduce__(self):
        # Pickled as its message and attributes, not as __init__ arguments,
        # which differ per subclass: an error raised in a worker process
        # then reaches the parent unchanged.
        return _rebuild, (type(self), self.args, self.__dict__)


def _rebuild(cls, args, state):
    error = cls.__new__(cls, *args)
    error.__dict__.update(state)
    return error


def _where(path) -> str:
    """The prefix naming the file an error is in, if it is known."""
    return "" if path is None else f"{path}: "


EXCERPT_CHARS = 200


def excerpt(value) -> str:
    """`repr(value)` for a message, kept short whatever the input holds:
    a string longer than EXCERPT_CHARS is quoted as its first
    EXCERPT_CHARS characters and its full length, any other value as the
    first EXCERPT_CHARS characters of its repr and the number of its
    items. Text under the cap is quoted exactly as repr() quotes it."""
    if isinstance(value, str):
        if len(value) <= EXCERPT_CHARS:
            return repr(value)
        return f"{value[:EXCERPT_CHARS]!r}... ({len(value)} characters)"
    text = repr(value)
    if len(text) <= EXCERPT_CHARS:
        return text
    return f"{text[:EXCERPT_CHARS]}... ({len(value)} items)"


class InputFormatError(HeraError):
    """Input bytes or text do not conform to the expected format."""


class CaptureError(InputFormatError):
    """Problems with a PCAP capture file."""


class BadMagic(CaptureError):
    """File does not start with a recognized magic number."""


class TruncatedHeader(CaptureError):
    """File ends inside the global header."""


class UnsupportedLinktype(CaptureError):
    """Capture uses a link layer this reader does not decode."""

    def __init__(self, linktype: int, path=None):
        super().__init__(f"{_where(path)}unsupported linktype {linktype}")
        self.linktype = linktype


class OversizedRecord(CaptureError):
    """A record header claims more bytes than any capture record can hold."""

    def __init__(self, name: str, record_index: int, length: int, limit: int):
        super().__init__(f"{name}: record {record_index} claims {length} bytes, "
                         f"more than the {limit}-byte limit")
        self.record_index = record_index
        self.length = length


class TruncatedRecord(CaptureError):
    """A record header claims more bytes than remain in the file."""

    def __init__(self, name: str, record_index: int):
        super().__init__(f"{name}: record {record_index} truncated at end of file")
        self.record_index = record_index


class FlowFileError(InputFormatError):
    """Problems with a .hera flow file."""


class FlowFileBadMagic(FlowFileError):
    """First line is not the expected magic line."""


class UnsupportedVersion(FlowFileError):
    """Flow file declares a version this reader does not understand."""

    def __init__(self, version: str, path=None):
        super().__init__(f"{_where(path)}unsupported flow file version {excerpt(version)}")
        self.version = version


class CorruptRecord(FlowFileError):
    """A record or header line cannot be parsed."""

    def __init__(self, line_number: int, reason: str, path=None):
        super().__init__(f"{_where(path)}line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason


class GroundTruthError(InputFormatError):
    """Problems with a ground-truth CSV."""


class MissingLabelColumn(GroundTruthError):
    """Ground truth has no Label column."""


class EmptyLabelCell(GroundTruthError):
    """A ground-truth row has an empty label."""

    def __init__(self, row_number: int, path=None):
        super().__init__(f"{_where(path)}row {row_number}: empty label cell")
        self.row_number = row_number


class MalformedTimestamp(GroundTruthError):
    """A ground-truth timestamp cell cannot be parsed."""

    def __init__(self, row_number: int, value: str, path=None):
        super().__init__(f"{_where(path)}row {row_number}: malformed timestamp {excerpt(value)}")
        self.row_number = row_number
        self.value = value


class MalformedField(GroundTruthError):
    """A ground-truth cell holds a value of the wrong shape."""

    def __init__(self, row_number: int, column: str, value: str, path=None):
        super().__init__(f"{_where(path)}row {row_number}: bad {column} value {excerpt(value)}")
        self.row_number = row_number
        self.column = column
        self.value = value


class MalformedDatasetCell(InputFormatError):
    """A match cell of a dataset being labelled is missing or unreadable."""

    def __init__(self, line_number: int, column: str, reason: str, path=None):
        super().__init__(f"{_where(path)}line {line_number}, column {column!r}: {reason}")
        self.line_number = line_number
        self.column = column
        self.reason = reason


class MissingMatchField(HeraError):
    """A dataset being labelled lacks a column needed for matching."""

    def __init__(self, column: str, path=None):
        super().__init__(f"{_where(path)}dataset is missing required column {column!r}")
        self.column = column


class UsageError(HeraError):
    """Bad command-line or config value, detected before any IO."""


class UnknownFeature(UsageError):
    """A requested feature name is not in the catalog."""

    def __init__(self, name: str):
        super().__init__(f"unknown feature {excerpt(name)}")
        self.name = name


class UnreadableLine(InputFormatError):
    """A line of a text input cannot be read: bytes that are not UTF-8,
    or a CSV field the csv module rejects."""

    def __init__(self, path, line_number: int, reason: str, column: int | None = None):
        where = f"line {line_number}" if column is None else f"line {line_number}, column {column}"
        super().__init__(f"{path}: {where}: {reason}")
        self.line_number = line_number
        self.column = column


def not_utf8(path) -> InputFormatError:
    """The error naming the first line of `path` that is not UTF-8, for a
    reader whose text decode of `path` failed. Only then are the bytes
    read again, so readers can keep decoding their input as a stream."""
    with open(path, "rb") as fp:
        for line_number, raw in enumerate(fp, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return UnreadableLine(path, line_number, "bytes are not UTF-8",
                                      column=exc.start + 1)
    return InputFormatError(f"{path}: file changed while it was read")
