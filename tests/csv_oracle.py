"""Row-by-row CSV writing and per-word labels.

The reference for ``pslab.cli._write_csv`` and
``pslab.matgroup.GroupPresentation.word_labels``: each row goes through
``csv.writer`` in its default dialect, with floats formatted one at a time
at 17 significant digits and bools as true/false, and each word is labelled
letter by letter.  The columnar writer and the array labeler must reproduce
these bytes and strings exactly.
"""

import csv

import numpy as np


def fmt(x):
    """17 significant digits for floats; everything else verbatim."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return x


def write_csv(path, header, rows):
    """Write the header and each row through csv.writer, cell by cell through fmt."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(x) for x in row])


def word_label(labels, word):
    """A word's letters named by the generator labels, primed for inverses, joined by "."."""
    parts = []
    for letter in word:
        lab = labels[abs(letter) - 1]
        parts.append(lab if letter > 0 else lab + "'")
    return ".".join(parts) or "e"
