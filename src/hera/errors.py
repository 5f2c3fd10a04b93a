"""The two errors hera reports, and the helpers their messages share.

An error is its message; its class is its exit code. `HeraError` is a
malformed input (exit 2), its message `path: place: reason` written
where it is raised (the path left out where the caller gave none, the
place where the reason is about the whole input); `UsageError` is a
bad command-line or config value, found before any IO (exit 1).
Neither takes more than its message, so an error raised in a `--jobs`
worker process reaches the parent pickled as it was raised.
"""


class HeraError(Exception):
    """A malformed input: bytes or text not in the format expected."""


class UsageError(HeraError):
    """Bad command-line or config value, detected before any IO."""


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


def not_utf8(path) -> HeraError:
    """The error naming the first line of `path` that is not UTF-8, for a
    reader whose text decode of `path` failed. Only then are the bytes
    read again, so readers can keep decoding their input as a stream."""
    with open(path, "rb") as fp:
        for line_number, raw in enumerate(fp, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return HeraError(f"{path}: line {line_number}, column {exc.start + 1}: "
                                 "bytes are not UTF-8")
    return HeraError(f"{path}: file changed while it was read")
