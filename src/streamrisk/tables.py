"""CSV emission and parsing for the result schemas.

Floats are written in shortest round-trip form (Python repr), so rerunning a
deterministic experiment reproduces files byte for byte and parsing recovers
exact values.  Header comments are lines prefixed with '# '.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


def fmt_value(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if v is None:
        return "n/a"
    return repr(float(v))


def render_csv(header: Sequence[str], rows: Iterable[Sequence], comments: Sequence[str] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(fmt_value(v) for v in row))
    return "\n".join(lines) + "\n"


def write_csv(
    path: str | Path,
    header: Sequence[str],
    rows: Iterable[Sequence],
    comments: Sequence[str] = (),
) -> Path:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(render_csv(header, rows, comments))
    return p


def read_csv(path: str | Path) -> tuple[list[str], list[str], list[list[str]]]:
    """Return (comment lines without '# ', header fields, data rows as strings)."""
    comments: list[str] = []
    header: list[str] | None = None
    rows: list[list[str]] = []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            comments.append(line[1:].strip())
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    if header is None:
        raise ValueError(f"{path}: no header row found")
    return comments, header, rows
