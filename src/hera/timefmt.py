"""Integers and microsecond times in their text form.

All timestamps and durations are carried as integer microseconds so that
flow arithmetic is exact and emitted files are reproducible byte for byte.
Text form is seconds with exactly six decimal places. Integers are read
from ASCII decimal digits only, the only form hera writes.
"""

from __future__ import annotations

from .errors import excerpt


def text_to_int(text: str) -> int:
    """Parse ASCII `-?[0-9]+`; unlike int(), reject signs other than a
    leading '-', underscores, whitespace and non-ASCII digits."""
    if text.isascii() and (text.isdigit() or text[:1] == "-" and text[1:].isdigit()):
        return int(text)
    raise ValueError(f"invalid literal for int() with base 10: {excerpt(text)}")


# The written form of a time, as a regular expression: exactly the texts
# us_to_text writes. `[0-9]`, not `\d`, which also matches digits outside
# ASCII. The integer the digits of a written time spell without the dot
# is its value in microseconds.
WRITTEN_TIME = r"-?[0-9]+\.[0-9]{6}"


def us_to_text(us: int | None) -> str:
    """Render integer microseconds as seconds with six decimals ('' for None)."""
    if us is None:
        return ""
    sign = "-" if us < 0 else ""
    mag = abs(us)
    return f"{sign}{mag // 1_000_000}.{mag % 1_000_000:06d}"


def text_to_us(text: str) -> int:
    """Parse a decimal-seconds string to integer microseconds.

    Accepts an optional sign, an integer part, and up to six fractional
    digits, all ASCII; anything beyond six digits is truncated, matching
    the precision used everywhere else.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty timestamp")
    sign = 1
    if s[0] in "+-":
        if s[0] == "-":
            sign = -1
        s = s[1:]
    whole, _, frac = s.partition(".")
    if (not s.isascii() or (whole and not whole.isdigit())
            or (frac and not frac.isdigit()) or not (whole or frac)):
        raise ValueError(f"malformed timestamp {excerpt(text)}")
    return sign * (int(whole or "0") * 1_000_000 + int(frac[:6].ljust(6, "0")))


def seconds_to_us(seconds: float) -> int:
    """Convert a float seconds value (e.g. a CLI flag) to microseconds."""
    return round(seconds * 1_000_000)
