"""JSON/TSV serialization for reports. All output is deterministic."""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction


def rat_json(x):
    """Exact rationals as {"num", "den"}; infinities as "inf"."""
    if x is None:
        return None
    if x == math.inf:
        return "inf"
    f = Fraction(x)
    return {"num": f.numerator, "den": f.denominator}


def rat_from_json(obj) -> Fraction | float:
    if obj == "inf":
        return math.inf
    return Fraction(obj["num"], obj["den"])


def cochain_json(A) -> dict:
    return {"k": A.k, "faces": sorted(A.indices())}


def _any_int_size(write, *args, **kwargs):
    """write(*args, **kwargs) with Python's limit on int-to-str digits (3.10.7
    and later) lifted, and restored after: exact integers of any size print."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return write(*args, **kwargs)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return write(*args, **kwargs)
    finally:
        sys.set_int_max_str_digits(old)


def json_dumps(obj) -> str:
    return _any_int_size(json.dumps, obj, indent=2, sort_keys=True) + "\n"


def _flatten(obj, prefix: str, rows: list) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(obj[key], f"{prefix}.{key}" if prefix else str(key), rows)
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            _flatten(item, f"{prefix}[{i}]", rows)
    else:
        rows.append((prefix, json.dumps(obj)))


def tsv_dumps(obj) -> str:
    rows: list = []
    _any_int_size(_flatten, obj, "", rows)
    return "".join(f"{key}\t{value}\n" for key, value in rows)
