"""The ``head:key=value:…`` clause that ``--faults`` and ``--tenants``
share (DESIGN.md §8, §12).

Each grammar keeps its own heads, keys, defaults, ranges and aliases;
this module reads the ``key=value`` parts and checks a number, and each
refusal names the clause.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Optional


def read_fields(parts: Iterable[str], clause: str,
                aliases: Optional[Mapping[str, str]] = None
                ) -> Dict[str, str]:
    """``key=value`` parts → ``{key: raw value}``, the key stripped and
    read as its ``aliases`` entry; refuses a part with no ``=`` and a
    key given twice."""
    fields: Dict[str, str] = {}
    for part in parts:
        key, eq, raw = part.partition("=")
        key = key.strip()
        key = aliases.get(key, key) if aliases else key
        if not eq:
            raise ValueError(f"malformed parameter {part!r} in {clause!r} "
                             f"(expected key=value)")
        if key in fields:
            raise ValueError(f"{key} is given twice in {clause!r}")
        fields[key] = raw
    return fields


def number(key: str, raw: str, clause: str, low: float = -math.inf,
           high: float = math.inf, whole: bool = False) -> float:
    """``raw`` as a finite number in [``low``, ``high``], whole if
    ``whole``."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and low <= value <= high
            and not (whole and value % 1)):
        span = (f" in [{low:g}, {high:g}]" if high < math.inf
                else f" >= {low:g}" if low > -math.inf else "")
        raise ValueError(f"{key}={raw} in {clause!r} must be a "
                         f"{'whole' if whole else 'finite'} number{span}")
    return value
