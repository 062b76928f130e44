"""Console reporting helpers shared by the CLI, the benchmark harness and examples."""

from __future__ import annotations

from typing import List, Optional, Sequence

__all__ = ["emit_block", "format_percentage", "format_table"]


def emit_block(title: str, body: str) -> None:
    """Print a clearly delimited result block: the CLI's tables and the
    examples' own output."""
    bar = "=" * 78
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")


def format_percentage(value: float) -> str:
    return f"{100.0 * value:5.1f}%"


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render rows as an aligned plain-text table."""
    rendered_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(header.ljust(widths[column]) for column, header in enumerate(headers)))
    lines.append("  ".join("-" * widths[column] for column in range(len(headers))))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[column]) for column, cell in enumerate(row)))
    return "\n".join(lines)
