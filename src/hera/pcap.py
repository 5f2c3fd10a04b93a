"""Classic PCAP capture reading and per-packet decoding.

Handles the four classic magic numbers (both byte orders, microsecond and
nanosecond resolution), Ethernet (with a single VLAN tag) and raw-IP link
layers, IPv4/IPv6, and the TCP/UDP/ICMP transports. Undecodable records
are reported as skips with a reason; they never abort the capture. Only
a record header that claims more bytes than the file holds, or than any
record may hold, does.
"""

from __future__ import annotations

import ipaddress
import struct
from collections import Counter
from dataclasses import dataclass

from .errors import (
    BadMagic,
    OversizedRecord,
    TruncatedHeader,
    TruncatedRecord,
    UnsupportedLinktype,
)

MAGIC_MICRO = 0xA1B2C3D4
MAGIC_NANO = 0xA1B23C4D

# No record may claim more than max(snaplen, this) bytes, as in libpcap,
# so a corrupt length cannot ask for an unbounded read.
MAX_RECORD_BYTES = 262144

LINKTYPE_ETHERNET = 1
LINKTYPE_RAW_IP = 101

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806
ETHERTYPE_VLAN = 0x8100
ETHERTYPE_QINQ = 0x88A8
ETHERTYPE_IPV6 = 0x86DD

TCP_FLAG_BITS = (
    (0x02, "S"),
    (0x10, "A"),
    (0x01, "F"),
    (0x04, "R"),
    (0x08, "P"),
    (0x20, "U"),
)

PROTO_NAMES = {6: "tcp", 17: "udp", 1: "icmp", 58: "icmp"}

# IPv6 extension headers we step over to reach the transport.
_V6_EXTENSIONS = {0, 43, 60}
_V6_FRAGMENT = 44
_V6_AUTH = 51

SKIP_NON_IP = "non-ip"
SKIP_TRUNCATED_FRAME = "truncated-frame"
SKIP_ENCAPSULATION = "unsupported-encapsulation"


@dataclass(frozen=True)
class CaptureHeader:
    byte_order: str  # "big" or "little"
    ts_resolution: str  # "micro" or "nano"
    linktype: int
    snaplen: int


@dataclass(frozen=True)
class DecodedPacket:
    ts_us: int  # epoch microseconds; nanosecond inputs are truncated
    src_addr: str
    dst_addr: str
    src_port: int
    dst_port: int
    proto: str  # "tcp", "udp", "icmp", or the decimal protocol number
    ip_bytes: int  # on-wire IP length per the IP header when sane
    payload_bytes: int  # transport payload length, never negative
    ttl: int
    tos: int
    ip_version: int
    is_fragment: bool = False  # non-first fragment: ports are (0, 0)
    tcp_flags: frozenset[str] | None = None  # present iff proto == "tcp"
    tcp_window: int | None = None
    tcp_seq: int | None = None
    vlan_id: int | None = None


@dataclass(frozen=True)
class SkippedRecord:
    record_index: int
    reason: str


def decode_icmp_ports(icmp_type: int, icmp_code: int) -> tuple[int, int]:
    """ICMP messages have no ports; type and code stand in for them."""
    return icmp_type, icmp_code


def proto_name(number: int) -> str:
    return PROTO_NAMES.get(number, str(number))


def tcp_flag_set(bits: int) -> frozenset[str]:
    return frozenset(letter for bit, letter in TCP_FLAG_BITS if bits & bit)


class CaptureReader:
    """Sequential reader over one classic PCAP file.

    `next_packet()` returns a DecodedPacket, a SkippedRecord, or None at
    end of capture. Skips are tallied by reason in `self.skipped`.
    """

    def __init__(self, fp, name: str = "<capture>"):
        self._fp = fp
        self.name = name
        self.header = self._read_global_header()
        self.record_index = 0  # index of the next record to read
        self.skipped: Counter[str] = Counter()

    def close(self) -> None:
        self._fp.close()

    def __enter__(self) -> "CaptureReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _read_global_header(self) -> CaptureHeader:
        raw = self._fp.read(24)
        if len(raw) < 4:
            raise TruncatedHeader(f"{self.name}: file shorter than a magic number")
        magic_be = struct.unpack(">I", raw[:4])[0]
        magic_le = struct.unpack("<I", raw[:4])[0]
        if magic_be == MAGIC_MICRO:
            order, resolution = "big", "micro"
        elif magic_le == MAGIC_MICRO:
            order, resolution = "little", "micro"
        elif magic_be == MAGIC_NANO:
            order, resolution = "big", "nano"
        elif magic_le == MAGIC_NANO:
            order, resolution = "little", "nano"
        else:
            raise BadMagic(f"{self.name}: magic {raw[:4].hex()} is not classic PCAP")
        if len(raw) < 24:
            raise TruncatedHeader(f"{self.name}: file shorter than the global header")
        endian = ">" if order == "big" else "<"
        _, _, _, _, snaplen, linktype = struct.unpack(endian + "HHiIII", raw[4:])
        if linktype not in (LINKTYPE_ETHERNET, LINKTYPE_RAW_IP):
            raise UnsupportedLinktype(linktype)
        self._endian = endian
        self._record_limit = max(snaplen, MAX_RECORD_BYTES)
        return CaptureHeader(order, resolution, linktype, snaplen)

    def next_packet(self) -> DecodedPacket | SkippedRecord | None:
        head = self._fp.read(16)
        if not head:
            return None
        index = self.record_index
        if len(head) < 16:
            raise TruncatedRecord(index)
        ts_sec, ts_frac, incl_len, orig_len = struct.unpack(self._endian + "IIII", head)
        if incl_len > self._record_limit:
            raise OversizedRecord(self.name, index, incl_len, self._record_limit)
        data = self._fp.read(incl_len)
        if len(data) < incl_len:
            raise TruncatedRecord(index)
        self.record_index += 1
        if self.header.ts_resolution == "nano":
            ts_us = ts_sec * 1_000_000 + ts_frac // 1000
        else:
            ts_us = ts_sec * 1_000_000 + ts_frac
        result = self._decode_frame(ts_us, data, orig_len)
        if isinstance(result, str):
            self.skipped[result] += 1
            return SkippedRecord(index, result)
        return result

    def __iter__(self):
        """Yield decoded packets only; skips are tallied silently."""
        while True:
            item = self.next_packet()
            if item is None:
                return
            if isinstance(item, DecodedPacket):
                yield item

    # -- frame decoding ------------------------------------------------

    def _decode_frame(self, ts_us: int, data: bytes, orig_len: int):
        vlan_id = None
        if self.header.linktype == LINKTYPE_ETHERNET:
            if len(data) < 14:
                return SKIP_TRUNCATED_FRAME
            ethertype = struct.unpack(">H", data[12:14])[0]
            offset = 14
            if ethertype in (ETHERTYPE_VLAN, ETHERTYPE_QINQ):
                if len(data) < 18:
                    return SKIP_TRUNCATED_FRAME
                vlan_id = struct.unpack(">H", data[14:16])[0] & 0x0FFF
                ethertype = struct.unpack(">H", data[16:18])[0]
                offset = 18
                if ethertype in (ETHERTYPE_VLAN, ETHERTYPE_QINQ):
                    return SKIP_ENCAPSULATION
            if ethertype == ETHERTYPE_IPV4:
                version = 4
            elif ethertype == ETHERTYPE_IPV6:
                version = 6
            else:
                return SKIP_NON_IP
        else:  # raw IP: the IP version nibble picks the parser
            if not data:
                return SKIP_TRUNCATED_FRAME
            version = data[0] >> 4
            offset = 0
            if version not in (4, 6):
                return SKIP_NON_IP
        wire_ip_len = max(orig_len - offset, 0)
        if version == 4:
            return self._decode_ipv4(ts_us, data[offset:], wire_ip_len, vlan_id)
        return self._decode_ipv6(ts_us, data[offset:], wire_ip_len, vlan_id)

    def _decode_ipv4(self, ts_us, ip, wire_ip_len, vlan_id):
        if len(ip) < 20:
            return SKIP_TRUNCATED_FRAME
        ver_ihl = ip[0]
        if ver_ihl >> 4 != 4:
            return SKIP_NON_IP
        ihl = (ver_ihl & 0x0F) * 4
        if ihl < 20 or len(ip) < ihl:
            return SKIP_TRUNCATED_FRAME
        tos = ip[1]
        total_len = struct.unpack(">H", ip[2:4])[0]
        frag_word = struct.unpack(">H", ip[6:8])[0]
        frag_offset = (frag_word & 0x1FFF) * 8
        ttl = ip[8]
        proto_num = ip[9]
        src = str(ipaddress.IPv4Address(ip[12:16]))
        dst = str(ipaddress.IPv4Address(ip[16:20]))
        # Prefer the header's claim for the on-wire size; captures cut by
        # a small snaplen still report the true length there.
        ip_bytes = total_len if total_len >= ihl else wire_ip_len
        return self._decode_transport(
            ts_us, 4, src, dst, proto_num, ip[ihl:], ip_bytes, ihl,
            frag_offset > 0, ttl, tos, vlan_id,
        )

    def _decode_ipv6(self, ts_us, ip, wire_ip_len, vlan_id):
        if len(ip) < 40:
            return SKIP_TRUNCATED_FRAME
        first_word = struct.unpack(">I", ip[:4])[0]
        if first_word >> 28 != 6:
            return SKIP_NON_IP
        tos = (first_word >> 20) & 0xFF
        payload_len = struct.unpack(">H", ip[4:6])[0]
        next_header = ip[6]
        ttl = ip[7]
        src = str(ipaddress.IPv6Address(ip[8:24]))
        dst = str(ipaddress.IPv6Address(ip[24:40]))
        ip_bytes = 40 + payload_len if payload_len else wire_ip_len
        offset = 40
        is_fragment = False
        while True:
            if next_header in _V6_EXTENSIONS or next_header == _V6_AUTH:
                if len(ip) < offset + 2:
                    return SKIP_TRUNCATED_FRAME
                ext_len = (
                    (ip[offset + 1] + 2) * 4
                    if next_header == _V6_AUTH
                    else (ip[offset + 1] + 1) * 8
                )
                next_header = ip[offset]
                offset += ext_len
            elif next_header == _V6_FRAGMENT:
                if len(ip) < offset + 8:
                    return SKIP_TRUNCATED_FRAME
                frag_word = struct.unpack(">H", ip[offset + 2 : offset + 4])[0]
                is_fragment = is_fragment or (frag_word >> 3) > 0
                next_header = ip[offset]
                offset += 8
            else:
                break
            if len(ip) < offset:
                return SKIP_TRUNCATED_FRAME
        return self._decode_transport(
            ts_us, 6, src, dst, next_header, ip[offset:], ip_bytes, offset,
            is_fragment, ttl, tos, vlan_id,
        )

    def _decode_transport(
        self, ts_us, version, src, dst, proto_num, transport, ip_bytes,
        header_len, is_fragment, ttl, tos, vlan_id,
    ):
        proto = proto_name(proto_num)
        common = dict(
            ts_us=ts_us, src_addr=src, dst_addr=dst, proto=proto,
            ip_bytes=ip_bytes, ttl=ttl, tos=tos, ip_version=version,
            vlan_id=vlan_id,
        )
        if is_fragment:
            # Later fragments carry no transport header; they flow-key on
            # addresses and protocol with zeroed ports.
            return DecodedPacket(
                src_port=0, dst_port=0, is_fragment=True,
                payload_bytes=max(ip_bytes - header_len, 0),
                tcp_flags=frozenset() if proto == "tcp" else None,
                **common,
            )
        if proto == "tcp":
            if len(transport) < 20:
                return SKIP_TRUNCATED_FRAME
            sport, dport, seq = struct.unpack(">HHI", transport[:8])
            data_off = (transport[12] >> 4) * 4
            flags = tcp_flag_set(transport[13])
            window = struct.unpack(">H", transport[14:16])[0]
            payload = max(ip_bytes - header_len - data_off, 0)
            return DecodedPacket(
                src_port=sport, dst_port=dport, payload_bytes=payload,
                tcp_flags=flags, tcp_window=window, tcp_seq=seq, **common,
            )
        if proto == "udp":
            if len(transport) < 8:
                return SKIP_TRUNCATED_FRAME
            sport, dport = struct.unpack(">HH", transport[:4])
            payload = max(ip_bytes - header_len - 8, 0)
            return DecodedPacket(
                src_port=sport, dst_port=dport, payload_bytes=payload, **common,
            )
        if proto == "icmp":
            if len(transport) < 4:
                return SKIP_TRUNCATED_FRAME
            sport, dport = decode_icmp_ports(transport[0], transport[1])
            payload = max(ip_bytes - header_len - 8, 0)
            return DecodedPacket(
                src_port=sport, dst_port=dport, payload_bytes=payload, **common,
            )
        return DecodedPacket(
            src_port=0, dst_port=0,
            payload_bytes=max(ip_bytes - header_len, 0), **common,
        )


def open_capture(path) -> CaptureReader:
    """Open a classic PCAP file and return a reader positioned at record 0."""
    fp = open(path, "rb")
    try:
        return CaptureReader(fp, name=str(path))
    except Exception:
        fp.close()
        raise
