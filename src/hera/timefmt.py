"""Integers, microsecond times and IP addresses in their text form.

All timestamps and durations are carried as integer microseconds so that
flow arithmetic is exact and emitted files are reproducible byte for byte.
Text form is seconds with exactly six decimal places. Integers are read
from ASCII decimal digits only, the only form hera writes. Every number
hera reads, in any file, holds at most MAX_DIGITS digits. An address
is written as `ipaddress` writes it, with one fixed form for IPv4-mapped
IPv6 addresses on every Python.
"""

from __future__ import annotations

from math import inf

from .errors import excerpt


# The most digits an integer, or a time in microseconds, that hera reads
# may have, leading zeros aside. A capture's counts and times fit 64
# bits, and the largest value a record derives from them, `ipsq`, a sum
# of squared gaps, stays below the square of the record's span, so under
# 39 digits. Sums and products of two such values stay far inside a
# float's range and far under the 4,300 digits Python turns into text,
# so every feature of a record that reads is computed without an
# overflow.
MAX_DIGITS = 40

# The written forms of an integer and of a time within MAX_DIGITS, as
# regular expressions: exactly the texts hera writes of such values.
# `[0-9]`, not `\d`, which also matches digits outside ASCII. The integer
# the digits of a written time spell without the dot is its value in
# microseconds.
WRITTEN_INT = f"-?[0-9]{{1,{MAX_DIGITS}}}"
WRITTEN_TIME = rf"-?[0-9]{{1,{MAX_DIGITS - 6}}}\.[0-9]{{6}}"


def text_to_int(text: str) -> int:
    """Parse ASCII `-?[0-9]+` of at most MAX_DIGITS digits after its
    leading zeros; unlike int(), reject signs other than a leading '-',
    underscores, whitespace and non-ASCII digits."""
    if text.isascii() and (text.isdigit() or text[:1] == "-" and text[1:].isdigit()):
        digits = text.lstrip("-0")
        if len(digits) > MAX_DIGITS:
            raise ValueError(f"value over {MAX_DIGITS} digits {excerpt(text)}")
        value = int(digits or "0")
        return -value if text[0] == "-" else value
    raise ValueError(f"invalid literal for int() with base 10: {excerpt(text)}")


def us_to_text(us: int | None) -> str:
    """Render integer microseconds as seconds with six decimals ('' for None)."""
    if us is None:
        return ""
    sign = "-" if us < 0 else ""
    mag = abs(us)
    return f"{sign}{mag // 1_000_000}.{mag % 1_000_000:06d}"


def text_to_us(text: str) -> int:
    """Parse a decimal-seconds string to integer microseconds.

    Accepts surrounding whitespace, an optional sign, an integer part,
    and up to six fractional digits, all ASCII; anything beyond six
    digits is truncated, matching the precision used everywhere else. A
    value of more than MAX_DIGITS digits in microseconds is refused.
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
    whole = whole.lstrip("0")
    if len(whole) > MAX_DIGITS - 6:  # the value's digits in microseconds
        raise ValueError(f"value over {MAX_DIGITS} digits {excerpt(text)}")
    return sign * (int(whole or "0") * 1_000_000 + int(frac[:6].ljust(6, "0")))


def seconds_to_us(seconds: float) -> int:
    """Convert a finite float seconds value (e.g. a CLI flag) to
    microseconds; one whose product overflows a float to the exact
    product of its integer value."""
    us = seconds * 1_000_000
    return round(us) if abs(us) != inf else int(seconds) * 1_000_000


def address_to_text(address) -> str:
    """The text of an `ipaddress` address: `str(address)`, except that an
    IPv4-mapped IPv6 address stays in hex groups (`::ffff:102:304`), as
    `ipaddress` writes it before Python 3.13 (3.13 writes `::ffff:1.2.3.4`)."""
    if address.version == 6 and address.ipv4_mapped is not None:
        low = int(address) & 0xFFFF_FFFF
        text = f"::ffff:{low >> 16:x}:{low & 0xFFFF:x}"
        return f"{text}%{address.scope_id}" if address.scope_id else text
    return str(address)
