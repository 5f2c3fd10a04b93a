import pytest
from hypothesis import given, strategies as st

from hera.timefmt import seconds_to_us, text_to_int, text_to_us, us_to_text


def test_zero():
    assert us_to_text(0) == "0.000000"


def test_exact_six_decimals():
    assert us_to_text(1_000_000) == "1.000000"
    assert us_to_text(1_234_567) == "1.234567"
    assert us_to_text(999) == "0.000999"


def test_negative_gap():
    assert us_to_text(-50_000) == "-0.050000"
    assert text_to_us("-0.050000") == -50_000


def test_none_renders_empty():
    assert us_to_text(None) == ""


def test_parse_integer_seconds():
    assert text_to_us("42") == 42_000_000


def test_parse_short_fraction_pads():
    assert text_to_us("1.5") == 1_500_000


def test_parse_excess_fraction_truncates():
    assert text_to_us("1.2345678") == 1_234_567


def test_parse_leading_dot():
    assert text_to_us(".25") == 250_000


@pytest.mark.parametrize("bad", ["", ".", "-", "1.2.3", "abc", "1e3", "1.-2",
                                 "\u0661.0", "1.\u0665"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        text_to_us(bad)


def test_text_to_int_reads_ascii_decimals():
    assert [text_to_int(text) for text in ("0", "80", "-7", "007")] == [0, 80, -7, 7]


@pytest.mark.parametrize("bad", ["", "-", "--5", "5-", "+5", " 5", "5 ", "8_0", "1.0",
                                 "\u0665\u0663", "\uff15"])
def test_text_to_int_rejects_all_but_ascii_decimals(bad):
    with pytest.raises(ValueError, match="invalid literal for int"):
        text_to_int(bad)


def test_seconds_to_us_rounds():
    assert seconds_to_us(60) == 60_000_000
    assert seconds_to_us(0.0000015) == 2


@given(st.integers(min_value=-(2**62), max_value=2**62))
def test_round_trip(us):
    assert text_to_us(us_to_text(us)) == us


@given(st.integers(min_value=0, max_value=2**62))
def test_text_is_sortable_for_nonnegative(us):
    """Equal-width fractions make lexicographic and numeric order agree
    whenever the integer part has equal width."""
    text = us_to_text(us)
    whole, frac = text.split(".")
    assert len(frac) == 6
    assert whole.isdigit() and frac.isdigit()
