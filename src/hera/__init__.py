"""PCAP to labelled flow-dataset toolkit.

Pipeline: classic PCAP captures -> bidirectional flow records (.hera
files) -> feature CSV datasets -> ground-truth labelled datasets. Each
stage is importable on its own; the `hera` console script chains them.
"""

from .dataset import (
    StatsReport,
    build_dataset,
    cluster,
    compute_connection_counts,
    compute_stats,
    write_csv,
    write_stats,
)
from .errors import HeraError, UnknownFeature, UsageError
from .features import (
    ALWAYS_ON,
    CATALOG,
    CATALOG_SIZE,
    DEFAULT_FEATURES,
    PRESETS,
    flow_id,
    select_feature_set,
    service_of,
)
from .flows import (
    EndpointStats,
    ExportConfig,
    FlowKey,
    FlowRecord,
    FlowTable,
    collect_flows,
    flow_key,
    make_management_record,
)
from .herafile import HeraFile, HeraHeader, read_hera, write_hera
from .labelling import (
    GroundTruthEntry,
    LabelSummary,
    label_dataset,
    label_rows,
    parse_ground_truth,
    write_label_summary,
)
from .pcap import CaptureHeader, CaptureReader, DecodedPacket, SkippedRecord, open_capture

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
