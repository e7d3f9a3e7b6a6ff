"""Registry of named platforms and the Table-I report generator."""

from __future__ import annotations

from repro.errors import ConfigError
from repro.platforms.base import PlatformSpec
from repro.platforms.dcc import DCC
from repro.platforms.ec2 import EC2
from repro.platforms.vayu import VAYU

_REGISTRY: dict[str, PlatformSpec] = {
    "vayu": VAYU,
    "dcc": DCC,
    "ec2": EC2,
}


def get_platform(name: str) -> PlatformSpec:
    """Look up a platform spec by (case-insensitive) name."""
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise ConfigError(
            f"unknown platform {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def all_platforms() -> list[PlatformSpec]:
    """All registered platforms in the paper's column order (DCC, EC2, Vayu)."""
    return [DCC, EC2, VAYU]


def platform_table(specs: list[PlatformSpec] | None = None) -> str:
    """Render the paper's Table I for ``specs`` (default: all platforms)."""
    specs = specs if specs is not None else all_platforms()
    rows = [spec.table1_row() for spec in specs]
    fields = list(rows[0].keys())
    lines: list[str] = []
    # First column is the field name, then one column per platform.
    name_w = max(len(f) for f in fields)
    col_ws = [max(len(r[f]) for f in fields) for r in rows]
    for f in fields:
        cells = [r[f].ljust(w) for r, w in zip(rows, col_ws)]
        lines.append(f"{f.ljust(name_w)}  " + "  ".join(cells))
    return "\n".join(lines)
