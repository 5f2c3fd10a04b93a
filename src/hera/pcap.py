"""Classic PCAP capture reading and per-packet decoding.

Handles the four classic magic numbers (both byte orders, microsecond and
nanosecond resolution), Ethernet (with a single VLAN tag) and raw-IP link
layers, IPv4/IPv6, and the TCP/UDP/ICMP transports. `next_packet` reads
records until one decodes and returns that packet, and `_decode` turns
a record's frame into a packet in one pass, reading each header at its
offset into the record's bytes. A TCP segment's flags are the six
classic bits of its flag byte, as one int. An undecodable record is
tallied as a skip by its reason; it never aborts the capture. Only a
record header that claims more bytes than the file holds, or than any
record may hold, does.
"""

from __future__ import annotations

import functools
import ipaddress
import struct
from collections import Counter
from typing import NamedTuple

from .errors import HeraError
from .timefmt import address_to_text

MAGIC_MICRO = 0xA1B2C3D4
MAGIC_NANO = 0xA1B23C4D

# magic bytes -> (byte order, timestamp resolution)
_MAGICS = {
    struct.pack(">I", MAGIC_MICRO): ("big", "micro"),
    struct.pack("<I", MAGIC_MICRO): ("little", "micro"),
    struct.pack(">I", MAGIC_NANO): ("big", "nano"),
    struct.pack("<I", MAGIC_NANO): ("little", "nano"),
}

# No record may claim more than max(snaplen, this) bytes, as in libpcap,
# and a longer record is read this many bytes at a time, so a corrupt
# length cannot ask for an unbounded read.
MAX_RECORD_BYTES = 262144

LINKTYPE_ETHERNET = 1
LINKTYPE_RAW_IP = 101

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_VLAN = 0x8100
ETHERTYPE_QINQ = 0x88A8
ETHERTYPE_IPV6 = 0x86DD

PROTO_NAMES = {6: "tcp", 17: "udp", 1: "icmp", 58: "icmp"}
_PROTO_TEXT = tuple(PROTO_NAMES.get(number) or str(number) for number in range(256))

# From the IPv4 header's start: tos, total length, fragment word, ttl,
# protocol, source and destination address
_IPV4 = struct.Struct(">xBHxxHBBxx4s4s")
# version/class/flow word, payload length, next header, hop limit, addresses
_IPV6 = struct.Struct(">IHBB16s16s")
# sport, dport, seq, data offset byte, flag byte, window (the ack is skipped)
_TCP = struct.Struct(">HHI4xBBH")
_PORTS = struct.Struct(">HH")

# IPv6 extension headers we step over to reach the transport: hop-by-hop,
# routing, fragment, authentication and destination options.
_V6_FRAGMENT = 44
_V6_AUTH = 51
_V6_EXTENSIONS = frozenset((0, 43, _V6_FRAGMENT, _V6_AUTH, 60))


# A capture holds far fewer distinct addresses than packets, so each
# address is turned into text once; the bound caps the cache's memory.
@functools.lru_cache(maxsize=4096)
def address_text(raw: bytes) -> str:
    """The text of a 4- or 16-byte address (`timefmt.address_to_text`)."""
    return address_to_text(ipaddress.ip_address(raw))


SKIP_NON_IP = "non-ip"
SKIP_TRUNCATED_FRAME = "truncated-frame"
SKIP_ENCAPSULATION = "unsupported-encapsulation"


class DecodedPacket(NamedTuple):
    ts_us: int  # epoch microseconds; nanosecond inputs are truncated
    src_addr: str
    dst_addr: str
    src_port: int  # ICMP: the message type
    dst_port: int  # ICMP: the message code
    proto: str  # "tcp", "udp", "icmp", or the decimal protocol number
    ip_bytes: int  # on-wire IP length per the IP header when sane
    payload_bytes: int  # transport payload length, never negative
    ttl: int
    tos: int
    ip_version: int
    is_fragment: bool = False  # non-first fragment: ports are (0, 0)
    # The six classic TCP flag bits (flows.FIN ... flows.URG; NS, CWR and
    # ECE dropped), 0 for a non-first fragment; present iff proto == "tcp".
    tcp_flags: int | None = None
    tcp_window: int | None = None
    tcp_seq: int | None = None
    vlan_id: int | None = None


class CaptureReader:
    """Sequential reader over one classic PCAP file.

    `next_packet()` returns the next DecodedPacket, or None at the end of
    the capture. The records it skips on the way are tallied by reason in
    `self.skipped`.
    """

    def __init__(self, fp, name: str = "<capture>"):
        self._fp = fp
        self.name = name
        self._read_global_header()
        self.record_index = 0  # index of the next record to read
        self.skipped: Counter[str] = Counter()

    def close(self) -> None:
        self._fp.close()

    def __enter__(self) -> "CaptureReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _read_global_header(self) -> None:
        """Check the global header and keep what reading the records
        needs: their byte order, time resolution, link type and length limit."""
        raw = self._fp.read(24)
        if len(raw) < 4:
            raise HeraError(f"{self.name}: file shorter than a magic number")
        try:
            order, resolution = _MAGICS[raw[:4]]
        except KeyError:
            raise HeraError(f"{self.name}: magic {raw[:4].hex()} is not classic PCAP") from None
        if len(raw) < 24:
            raise HeraError(f"{self.name}: file shorter than the global header")
        endian = ">" if order == "big" else "<"
        _, _, _, _, snaplen, linktype = struct.unpack(endian + "HHiIII", raw[4:])
        if linktype not in (LINKTYPE_ETHERNET, LINKTYPE_RAW_IP):
            raise HeraError(f"{self.name}: unsupported linktype {linktype}")
        self._record_head = struct.Struct(endian + "IIII")
        self._frac_per_us = 1000 if resolution == "nano" else 1
        self._ethernet = linktype == LINKTYPE_ETHERNET
        self._record_limit = max(snaplen, MAX_RECORD_BYTES)

    def next_packet(self) -> DecodedPacket | None:
        while head := self._fp.read(16):
            if len(head) < 16:
                raise self._truncated()
            ts_sec, ts_frac, incl_len, orig_len = self._record_head.unpack(head)
            if incl_len > self._record_limit:
                raise HeraError(f"{self.name}: record {self.record_index} claims {incl_len} "
                                f"bytes, more than the {self._record_limit}-byte limit")
            if incl_len <= MAX_RECORD_BYTES:
                data = self._fp.read(incl_len)
            else:
                data = self._read_in_chunks(incl_len)
            if len(data) < incl_len:
                raise self._truncated()
            self.record_index += 1
            ts_us = ts_sec * 1_000_000 + ts_frac // self._frac_per_us
            result = self._decode(ts_us, data, orig_len)
            if not isinstance(result, str):
                return result
            self.skipped[result] += 1
        return None

    def _truncated(self) -> HeraError:
        return HeraError(f"{self.name}: record {self.record_index} truncated at end of file")

    def _read_in_chunks(self, size: int) -> bytes:
        """`size` bytes read at most MAX_RECORD_BYTES at a time, so a
        length the file cannot back never costs more than one chunk; the
        first short chunk means the file ended, and what was read is
        returned."""
        chunks = []
        while size:
            want = min(size, MAX_RECORD_BYTES)
            chunks.append(self._fp.read(want))
            if len(chunks[-1]) < want:
                break
            size -= want
        return b"".join(chunks)

    def __iter__(self):
        return iter(self.next_packet, None)

    # -- frame decoding ------------------------------------------------

    def _decode(self, ts_us: int, data: bytes, orig_len: int):
        """The DecodedPacket of one frame, or the reason it is skipped.
        Each header is read at its offset into `data`: `offset` is where
        the IP header starts and `header_len` how far it and the
        headers after it reach."""
        size = len(data)
        vlan_id = None
        if self._ethernet:
            if size < 14:
                return SKIP_TRUNCATED_FRAME
            ethertype = data[12] << 8 | data[13]
            offset = 14
            if ethertype == ETHERTYPE_VLAN or ethertype == ETHERTYPE_QINQ:
                if size < 18:
                    return SKIP_TRUNCATED_FRAME
                vlan_id = (data[14] & 0x0F) << 8 | data[15]
                ethertype = data[16] << 8 | data[17]
                offset = 18
                if ethertype == ETHERTYPE_VLAN or ethertype == ETHERTYPE_QINQ:
                    return SKIP_ENCAPSULATION
            if ethertype == ETHERTYPE_IPV4:
                version = 4
            elif ethertype == ETHERTYPE_IPV6:
                version = 6
            else:
                return SKIP_NON_IP
        else:  # raw IP: the IP version nibble picks the parser
            if not size:
                return SKIP_TRUNCATED_FRAME
            version = data[0] >> 4
            offset = 0
            if version != 4 and version != 6:
                return SKIP_NON_IP
        if version == 4:
            if size < offset + 20:
                return SKIP_TRUNCATED_FRAME
            ver_ihl = data[offset]
            if ver_ihl >> 4 != 4:
                return SKIP_NON_IP
            header_len = (ver_ihl & 0x0F) * 4
            if header_len < 20 or size < offset + header_len:
                return SKIP_TRUNCATED_FRAME
            tos, total_len, frag_word, ttl, proto_num, src, dst = _IPV4.unpack_from(data, offset)
            # Prefer the header's claim for the on-wire size; captures cut by
            # a small snaplen still report the true length there.
            ip_bytes = total_len if total_len >= header_len else max(orig_len - offset, 0)
            is_fragment = frag_word & 0x1FFF > 0  # a non-zero offset, in 8-byte units
        else:
            if size < offset + 40:
                return SKIP_TRUNCATED_FRAME
            first_word, payload_len, proto_num, ttl, src, dst = _IPV6.unpack_from(data, offset)
            if first_word >> 28 != 6:
                return SKIP_NON_IP
            tos = first_word >> 20 & 0xFF
            ip_bytes = 40 + payload_len if payload_len else max(orig_len - offset, 0)
            header_len = 40
            is_fragment = False
            while proto_num in _V6_EXTENSIONS:
                at = offset + header_len
                if proto_num == _V6_FRAGMENT:
                    if size < at + 8:
                        return SKIP_TRUNCATED_FRAME
                    if (data[at + 2] << 8 | data[at + 3]) >> 3:  # a non-zero offset
                        is_fragment = True
                    header_len += 8
                else:
                    if size < at + 2:
                        return SKIP_TRUNCATED_FRAME
                    units = data[at + 1]
                    header_len += (units + 2) * 4 if proto_num == _V6_AUTH else (units + 1) * 8
                proto_num = data[at]
                if size < offset + header_len:
                    return SKIP_TRUNCATED_FRAME
        at = offset + header_len  # the transport header
        proto = _PROTO_TEXT[proto_num]
        sport = dport = 0
        flags = window = seq = None
        if is_fragment:
            # Later fragments carry no transport header; they flow-key on
            # addresses and protocol with zeroed ports.
            if proto == "tcp":
                flags = 0
        elif proto == "tcp":
            if size < at + 20:
                return SKIP_TRUNCATED_FRAME
            sport, dport, seq, data_off, flag_bits, window = _TCP.unpack_from(data, at)
            header_len += (data_off >> 4) * 4
            flags = flag_bits & 0x3F
        elif proto == "udp":
            if size < at + 8:
                return SKIP_TRUNCATED_FRAME
            sport, dport = _PORTS.unpack_from(data, at)
            header_len += 8
        elif proto == "icmp":  # no ports: type and code stand in for them
            if size < at + 4:
                return SKIP_TRUNCATED_FRAME
            sport = data[at]
            dport = data[at + 1]
            header_len += 8
        payload = ip_bytes - header_len
        return tuple.__new__(DecodedPacket, (
            ts_us, address_text(src), address_text(dst), sport, dport, proto, ip_bytes,
            payload if payload > 0 else 0, ttl, tos, version, is_fragment, flags, window, seq,
            vlan_id))


def open_capture(path) -> CaptureReader:
    """Open a classic PCAP file and return a reader positioned at record 0."""
    fp = open(path, "rb")
    try:
        return CaptureReader(fp, name=str(path))
    except Exception:
        fp.close()
        raise
