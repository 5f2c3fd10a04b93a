"""Shortcuts several test modules share: orienting a flow's key or a
record, running packets through a fresh flow table, reading one `.hera`
record line or the field table of one, copying a record with some
fields changed, and labelling rows without changing them."""

from typing import NamedTuple

from hera import herafile
from hera.flows import (
    ENDPOINT_FIELDS,
    RECORD_FIELDS,
    EndpointStats,
    ExportConfig,
    FlowKey,
    FlowRecord,
    FlowTable,
)
from hera.labelling import DEFAULT_BENIGN_LABEL, GroundTruth, LabelSummary, labelled_rows


def canonical_key(saddr: str, sport: int, daddr: str, dport: int,
                  proto: str) -> tuple[FlowKey, str]:
    """The key of a flow from (saddr, sport) to (daddr, dport) and which
    endpoint ('a' or 'b') is its source, as export and the `.hera`
    reader orient it: the lower (address, port) endpoint is a."""
    if (saddr, sport) <= (daddr, dport):
        return FlowKey(saddr, sport, daddr, dport, proto), "a"
    return FlowKey(daddr, dport, saddr, sport, proto), "b"


class Oriented(NamedTuple):
    """A record's endpoints from its source's side: the source's and the
    destination's EndpointStats, addresses and ports."""

    src: EndpointStats
    dst: EndpointStats
    saddr: str
    sport: int
    daddr: str
    dport: int


def oriented(rec: FlowRecord) -> Oriented:
    """The record's source and destination, read from its key and
    initiator: the initiator names the key's endpoint ('a', the first,
    or 'b') that sent the episode's first packet."""
    k = rec.key
    a = (rec.a, k.addr_a, k.port_a)
    b = (rec.b, k.addr_b, k.port_b)
    (src, saddr, sport), (dst, daddr, dport) = (a, b) if rec.initiator == "a" else (b, a)
    return Oriented(src, dst, saddr, sport, daddr, dport)


def collect_flows(packets, config: ExportConfig) -> list[FlowRecord]:
    """One-shot aggregation: feed packets through a fresh table and flush."""
    table = FlowTable(config)
    for packet in packets:
        table.assign(packet)
    return table.flush()


def parse_line(line: str, line_number: int = 1) -> FlowRecord:
    """The record of one `.hera` record line, read as `read_hera` reads
    it: by position when the line is in the form `format_record` writes,
    by field name otherwise."""
    return herafile._written_line()(line) or herafile._parse_general(line, line_number)


def record_field_kinds() -> list[tuple[str, str]]:
    """The (name, value kind) of each field of a v1 record line, in order."""
    return [(name, kind) for name, kind, *_ in herafile._LINE]


def record_field_names() -> list[str]:
    """The full field order of a v1 record line."""
    return [name for name, *_ in herafile._LINE]


def field_names(cls) -> tuple[str, ...]:
    """The fields of FlowRecord or EndpointStats in constructor order, as
    their declarations list them."""
    return tuple(name for name, _ in {FlowRecord: RECORD_FIELDS,
                                      EndpointStats: ENDPOINT_FIELDS}[cls])


def replace(obj, **changes):
    """A new FlowRecord or EndpointStats with obj's fields but `changes`;
    like dataclasses.replace, it shares obj's values, not copies of them."""
    names = field_names(type(obj))
    assert changes.keys() <= set(names), changes
    return type(obj)(**{name: changes.get(name, getattr(obj, name)) for name in names})


def label_rows(header, rows, entries, benign_label=DEFAULT_BENIGN_LABEL,
               bidirectional=False) -> tuple[list[str], LabelSummary]:
    """One label per row plus the summary, against the entries in a new
    `GroundTruth`; the rows are left as they were."""
    counts = {}
    numbered = ((row, None, number) for number, row in enumerate(rows, start=2))
    labels = [label for _, label in labelled_rows(header, numbered, GroundTruth(entries), counts,
                                                  benign_label, bidirectional)]
    return labels, LabelSummary(len(labels), benign_label, counts)
