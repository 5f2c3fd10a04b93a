"""Shortcuts several test modules share: running packets through a fresh
flow table, reading the field table of a `.hera` record line, copying a
record with some fields changed, and labelling rows without changing
them."""

from hera import herafile
from hera.flows import (
    ENDPOINT_FIELDS,
    RECORD_FIELDS,
    EndpointStats,
    ExportConfig,
    FlowRecord,
    FlowTable,
)
from hera.labelling import DEFAULT_BENIGN_LABEL, GroundTruth, LabelSummary, labelled_rows


def collect_flows(packets, config: ExportConfig) -> list[FlowRecord]:
    """One-shot aggregation: feed packets through a fresh table and flush."""
    table = FlowTable(config)
    for packet in packets:
        table.assign(packet)
    return table.flush()


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
    `GroundTruth`; each row gets its label appended and then taken off
    again, so the rows are left as they were."""
    counts = {}
    labels = [row.pop() for row in labelled_rows(header, rows, GroundTruth(entries), counts,
                                                 benign_label, bidirectional)]
    return labels, LabelSummary(len(labels), benign_label, counts)
