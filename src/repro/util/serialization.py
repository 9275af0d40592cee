"""JSON serialization of experiment results.

Experiment runners return frozen-ish dataclasses; this module turns them
into plain JSON-compatible structures so results can be archived, diffed
across runs, and post-processed outside Python.  Dataclasses nest
arbitrarily; numpy scalars/arrays and dict keys that are not strings (loss
rates, state tuples) are converted to JSON-safe forms.
"""

from __future__ import annotations

import dataclasses
from typing import Any

import numpy as np


def to_jsonable(value: Any) -> Any:
    """Recursively convert ``value`` into JSON-compatible structures."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            **{
                field.name: to_jsonable(getattr(value, field.name))
                for field in dataclasses.fields(value)
            },
        }
    if isinstance(value, np.ndarray):
        return [to_jsonable(item) for item in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, dict):
        return {_key_to_string(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, float) and (value != value or value in (float("inf"), float("-inf"))):
        return repr(value)  # JSON has no NaN/Inf; store a readable token
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot serialize {type(value).__name__}: {value!r}")


def _key_to_string(key: Any) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, (bool, int, float, np.integer, np.floating)):
        return str(key)
    if isinstance(key, tuple):
        return ",".join(_key_to_string(part) for part in key)
    raise TypeError(f"cannot use {type(key).__name__} as a JSON key: {key!r}")

