"""The plain-text table a report is printed as with ``--output table``:
one ``key: value`` line per scalar, in sorted key order, nested values
indented under their key and list items marked ``-``."""

from __future__ import annotations


def render_table(value, indent: int = 0, lines: list[str] | None = None) -> list[str]:
    if lines is None:
        lines = []
    pad = "  " * indent
    if isinstance(value, dict):
        for key in sorted(value):
            item = value[key]
            if isinstance(item, (dict, list, tuple)) and item:
                lines.append(f"{pad}{key}:")
                render_table(item, indent + 1, lines)
            else:
                lines.append(f"{pad}{key}: {_scalar(item)}")
    elif isinstance(value, (list, tuple)):
        for item in value:
            if isinstance(item, (dict, list, tuple)):
                lines.append(f"{pad}-")
                render_table(item, indent + 1, lines)
            else:
                lines.append(f"{pad}- {_scalar(item)}")
    return lines


def _scalar(item) -> str:
    if isinstance(item, (list, tuple)) and not item:
        return "[]"
    if isinstance(item, dict) and not item:
        return "{}"
    if item is None:
        return "null"
    if item is True:
        return "true"
    if item is False:
        return "false"
    return str(item)
