"""The labelled CSV as the csv module makes it: the reference for the
line path of `hera label`, which splits each dataset line only up to its
last match column and writes it back with one label cell.

Every row of the dataset is read by csv.reader, labelled by
`label_dataset` (the list form of the labelling loop, with the same
ground truth and options) and written back, with the header and its
Label column, by csv.writer(lineterminator="\\n")."""

from __future__ import annotations

import csv
import io

from hera.labelling import format_label_summary, label_dataset, parse_ground_truth


def labelled_csv(dataset: str, ground_truth, benign_label: str,
                 bidirectional: bool) -> tuple[str, str]:
    """(labelled CSV, label summary) of the dataset text against the
    ground-truth file, or the HeraError labelling raises."""
    rows = list(csv.reader(io.StringIO(dataset, newline="")))
    header = rows.pop(0) if rows else []
    header, rows, summary = label_dataset(header, rows, parse_ground_truth(ground_truth),
                                          benign_label, bidirectional)
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue(), format_label_summary(summary)
