import ipaddress

import pytest
from hypothesis import given, strategies as st

from hera.timefmt import address_to_text, seconds_to_us, text_to_int, text_to_us, us_to_text


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


@pytest.mark.parametrize("address, text", [
    ("::ffff:1.2.3.4", "::ffff:102:304"),
    ("::ffff:0.0.0.0", "::ffff:0:0"),
    ("::ffff:0.0.0.1", "::ffff:0:1"),
    ("::ffff:255.255.255.255", "::ffff:ffff:ffff"),
    ("::ffff:1.2.3.4%eth0", "::ffff:102:304%eth0"),
])
def test_mapped_address_text_is_hex_groups_on_every_python(address, text):
    assert address_to_text(ipaddress.ip_address(address)) == text


@given(st.one_of(st.ip_addresses(), st.integers(0, 2**32 - 1).map(
    lambda low: ipaddress.IPv6Address(0xFFFF << 32 | low))))
def test_address_text_is_ipaddress_text_but_for_mapped_addresses(address):
    text = address_to_text(address)
    assert ipaddress.ip_address(text) == address
    if address.version == 6 and address.ipv4_mapped is not None:
        assert "." not in text and text.startswith("::ffff:")
    else:
        assert text == str(address)
