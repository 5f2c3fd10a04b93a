"""Byte-level builders for classic capture files used by the tests.

Everything here is assembled with struct and hand-computed offsets so
the tests do not depend on the code under test for their inputs.
"""

from __future__ import annotations

import struct

MAGIC_MICRO = 0xA1B2C3D4
MAGIC_NANO = 0xA1B23C4D

LINKTYPE_ETHERNET = 1
LINKTYPE_RAW_IP = 101

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_IPV6 = 0x86DD
ETHERTYPE_VLAN = 0x8100
ETHERTYPE_QINQ = 0x88A8

# TCP flag bits in wire order.
FIN = 0x01
SYN = 0x02
RST = 0x04
PSH = 0x08
ACK = 0x10
URG = 0x20


def global_header(
    magic: int = MAGIC_MICRO,
    endian: str = "<",
    linktype: int = LINKTYPE_ETHERNET,
    snaplen: int = 65535,
) -> bytes:
    return struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, snaplen, linktype)


def record(
    ts_us: int,
    frame: bytes,
    endian: str = "<",
    nano: bool = False,
    incl_len: int | None = None,
    orig_len: int | None = None,
) -> bytes:
    ts_sec, rem = divmod(ts_us, 1_000_000)
    frac = rem * 1000 if nano else rem
    if incl_len is None:
        incl_len = len(frame)
    if orig_len is None:
        orig_len = len(frame)
    return struct.pack(endian + "IIII", ts_sec, frac, incl_len, orig_len) + frame


def ethernet(payload: bytes, ethertype: int, src=b"\x02\x00\x00\x00\x00\x01", dst=b"\x02\x00\x00\x00\x00\x02") -> bytes:
    return dst + src + struct.pack("!H", ethertype) + payload


def vlan_tag(inner_ethertype: int, payload: bytes, vlan_id: int = 7, tpid: int = ETHERTYPE_VLAN) -> tuple[int, bytes]:
    """Returns (outer ethertype, tag + inner payload) for splicing into ethernet()."""
    tci = vlan_id & 0x0FFF
    return tpid, struct.pack("!HH", tci, inner_ethertype) + payload


def ipv4(
    src: str,
    dst: str,
    proto: int,
    payload: bytes,
    ttl: int = 64,
    tos: int = 0,
    ident: int = 0,
    flags_frag: int = 0,
    total_length: int | None = None,
    ihl_words: int = 5,
    options: bytes = b"",
) -> bytes:
    header_len = ihl_words * 4
    if total_length is None:
        total_length = header_len + len(payload)
    ver_ihl = (4 << 4) | ihl_words
    header = struct.pack(
        "!BBHHHBBH4s4s",
        ver_ihl,
        tos,
        total_length,
        ident,
        flags_frag,
        ttl,
        proto,
        0,
        _ip4(src),
        _ip4(dst),
    )
    return header + options + payload


def ipv6(
    src: str,
    dst: str,
    next_header: int,
    payload: bytes,
    hop_limit: int = 64,
    traffic_class: int = 0,
    ext_headers: list[tuple[int, bytes]] | None = None,
) -> bytes:
    """ext_headers: list of (header type, body) inserted before the payload.

    Each extension body is padded so its length is 8*(n+1) bytes with the
    standard (next header, hdr ext len) prefix. The length field counts
    8-octet units minus 1, or for an Authentication Header (51) 4-octet
    units minus 2.
    """
    chain = payload
    inner_next = next_header
    for ext_type, body in reversed(ext_headers or []):
        padded = body + b"\x00" * ((-(len(body) + 2)) % 8)
        size = len(padded) + 2
        units = size // 4 - 2 if ext_type == 51 else size // 8 - 1
        full = struct.pack("!BB", inner_next, units) + padded
        chain = full + chain
        inner_next = ext_type
    ver_tc_flow = (6 << 28) | (traffic_class << 20)
    header = struct.pack("!IHBB", ver_tc_flow, len(chain), inner_next, hop_limit)
    return header + _ip6(src) + _ip6(dst) + chain


def tcp(
    sport: int,
    dport: int,
    flags: int,
    seq: int = 1000,
    ack: int = 0,
    window: int = 8192,
    payload: bytes = b"",
    data_offset_words: int = 5,
    options: bytes = b"",
) -> bytes:
    off_flags = (data_offset_words << 12) | flags
    header = struct.pack("!HHIIHHHH", sport, dport, seq, ack, off_flags, window, 0, 0)
    return header + options + payload


def udp(sport: int, dport: int, payload: bytes = b"") -> bytes:
    return struct.pack("!HHHH", sport, dport, 8 + len(payload), 0) + payload


def icmp(icmp_type: int, code: int, payload: bytes = b"") -> bytes:
    return struct.pack("!BBH", icmp_type, code, 0) + payload


def pcap(records: list[bytes], endian: str = "<", magic: int = MAGIC_MICRO, linktype: int = LINKTYPE_ETHERNET, snaplen: int = 65535) -> bytes:
    return global_header(magic, endian, linktype, snaplen) + b"".join(records)


def write(path, records: list[bytes], **kwargs) -> str:
    data = pcap(records, **kwargs)
    with open(path, "wb") as fp:
        fp.write(data)
    return str(path)


def tcp4_frame(src: str, dst: str, sport: int, dport: int, flags: int, payload: bytes = b"", ttl: int = 64, tos: int = 0, window: int = 8192, seq: int = 1000) -> bytes:
    seg = tcp(sport, dport, flags, payload=payload, window=window, seq=seq)
    return ethernet(ipv4(src, dst, 6, seg, ttl=ttl, tos=tos), ETHERTYPE_IPV4)


def udp4_frame(src: str, dst: str, sport: int, dport: int, payload: bytes = b"", ttl: int = 64, tos: int = 0) -> bytes:
    return ethernet(ipv4(src, dst, 17, udp(sport, dport, payload), ttl=ttl, tos=tos), ETHERTYPE_IPV4)


def icmp4_frame(src: str, dst: str, icmp_type: int, code: int, payload: bytes = b"", ttl: int = 64) -> bytes:
    return ethernet(ipv4(src, dst, 1, icmp(icmp_type, code, payload), ttl=ttl), ETHERTYPE_IPV4)


def _ip4(text: str) -> bytes:
    return bytes(int(part) for part in text.split("."))


def _ip6(text: str) -> bytes:
    import ipaddress

    return ipaddress.IPv6Address(text).packed
