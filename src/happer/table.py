"""The schema=1 CSV text of every table the package writes."""

from typing import Sequence


def _csv_text(columns: Sequence[str], rows: Sequence[Sequence], notes: Sequence[str] = ()) -> str:
    """``# schema=1``, one ``# `` line per note, the header, then one line per row.

    Strings are written as they are and every other value as %.12g, by one
    template taken from the first row; an empty table is its header alone.
    """
    lines = ["# schema=1", *(f"# {n}" for n in notes), ",".join(columns)]
    if rows:
        template = ",".join("%s" if isinstance(v, str) else "%.12g" for v in rows[0])
        lines += [template % tuple(row) for row in rows]
    return "\n".join(lines) + "\n"
