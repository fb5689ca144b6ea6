"""Resource caps, overridable through the HOPFCOMM_CAP environment variable.

HOPFCOMM_CAP accepts either a single integer (applied to every cap) or a
comma list like ``enum=1000000,dim=64``.  It is the one way to set a cap: no
function takes one as an argument.
"""

from __future__ import annotations

import os

DEFAULT_ENUM_CAP = 10 ** 8   # tuples in G^r a counted word ranges over, whatever the route
DEFAULT_DIM_CAP = 1024       # largest allowed algebra dimension


def _parse(raw: str) -> dict:
    # ASCII digits only: str.isdigit() alone also takes '²', which int()
    # refuses, and the digits of other scripts, which int() reads
    raw = raw.strip()
    if not raw:
        return {}
    if raw.isascii() and raw.isdigit():
        n = int(raw)
        return {"enum": n, "dim": n}
    out = {}
    for part in raw.split(","):
        key, _, val = part.partition("=")
        key, val = key.strip(), val.strip()
        if key in ("enum", "dim") and val.isascii() and val.isdigit():
            out[key] = int(val)
        else:
            raise ValueError(f"bad HOPFCOMM_CAP entry: {part!r}")
    return out


def enum_cap() -> int:
    return _parse(os.environ.get("HOPFCOMM_CAP", "")).get("enum", DEFAULT_ENUM_CAP)


def dim_cap() -> int:
    return _parse(os.environ.get("HOPFCOMM_CAP", "")).get("dim", DEFAULT_DIM_CAP)
