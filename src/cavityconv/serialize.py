"""Deterministic serialization of result documents.

Result documents are JSON with keys sorted and every float rounded to 12
significant digits, so identical configs produce byte-identical text on one
platform.  Tables (time series, phase-space grids) serialize to CSV with a
header row and %.12g fields.
"""

from __future__ import annotations

import json

import numpy as np


def round_sig(x: float, digits: int = 12) -> float:
    """Round to a fixed number of significant digits (keeps JSON compact)."""
    if x == 0.0 or not np.isfinite(x):
        return float(x)
    return float(f"{x:.{digits}g}")


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return round_sig(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        c = complex(obj)
        if c.imag == 0.0:
            return round_sig(c.real)
        return [round_sig(c.real), round_sig(c.imag)]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    return obj


def result_to_json(doc: dict) -> str:
    """Canonical JSON text for a result document (trailing newline included)."""
    return json.dumps(_jsonify(doc), sort_keys=True, indent=2) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    if isinstance(value, (complex, np.complexfloating)):
        c = complex(value)
        return f"{c.real:.12g}{c.imag:+.12g}j"
    return str(value)


def table_to_csv(columns: list[str], rows) -> str:
    """Header row plus one record per line, %.12g float fields."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"
