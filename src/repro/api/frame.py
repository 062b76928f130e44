"""A typed columnar result container shared by every experiment.

:class:`ResultFrame` is the unit of analysis in :mod:`repro.api.experiment`:
the sweep engine's rows land in one frame, experiments derive their metrics
as new columns, claim checks read the same frame, and export writes it out
with sorted keys so artifacts diff cleanly across runs.  It is deliberately
dependency-free (no pandas) — a dict of equal-length column lists with the
handful of relational operations the experiments actually need:

    frame = ResultFrame.from_sweep(sweep_result)
    derived = frame.derive(
        eta=lambda row: row["summary"]["reports"]["buy"]["success_rate"]
    )
    derived.pivot(index="buys_per_set", columns="scenario", values="eta")
    derived.to_markdown("figure2.md")

Columns hold plain Python values; scalar columns (numbers, strings, bools,
``None``) export to CSV/Markdown, while structured columns (the raw
``summary`` dicts) are kept for analysis and dropped from flat exports.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Union

__all__ = ["ResultFrame", "mean"]

Row = Dict[str, Any]
_SCALAR_TYPES = (int, float, str, bool)


# -- aggregation helper ------------------------------------------------------------------


def mean(values: Sequence[float]) -> Optional[float]:
    """Arithmetic mean; ``None`` for an empty selection (never a ZeroDivisionError)."""
    values = [value for value in values if value is not None]
    if not values:
        return None
    return sum(values) / len(values)


class ResultFrame:
    """An immutable-by-convention columnar table of experiment results.

    Every operation returns a new frame; the receiver is never mutated, so
    intermediate frames can be shared freely between claims and exports.
    """

    def __init__(self, columns: Optional[Dict[str, Sequence[Any]]] = None) -> None:
        self._columns: Dict[str, List[Any]] = {}
        length: Optional[int] = None
        for name, values in (columns or {}).items():
            values = list(values)
            if length is None:
                length = len(values)
            elif len(values) != length:
                raise ValueError(
                    f"column {name!r} has {len(values)} values; expected {length}"
                )
            self._columns[name] = values
        self._length = length or 0

    # -- construction -------------------------------------------------------------------

    @classmethod
    def from_records(
        cls, records: Iterable[Row], columns: Optional[Sequence[str]] = None
    ) -> "ResultFrame":
        """Build a frame from row dicts; missing keys fill with ``None``.

        Column order is the declaration order (or first-seen order across
        the records when ``columns`` is not given).
        """
        records = list(records)
        if columns is None:
            names: List[str] = []
            for record in records:
                for key in record:
                    if key not in names:
                        names.append(key)
        else:
            names = list(columns)
        data = {name: [record.get(name) for record in records] for name in names}
        return cls(data)

    @classmethod
    def from_sweep(cls, sweep_result: Any) -> "ResultFrame":
        """Flatten a :class:`~repro.api.sweep.SweepResult` into a frame.

        One row per sweep row: the tag columns, the headline metrics
        (``efficiency``, ``blocks_produced``, ``simulated_seconds``), and the
        full ``summary`` dict as a structured column for ``derive`` to mine.
        """
        records = []
        for row in sweep_result:
            record: Row = dict(sorted(row.tags.items()))
            record["efficiency"] = row.summary.get("efficiency")
            record["blocks_produced"] = row.summary.get("blocks_produced")
            record["simulated_seconds"] = row.summary.get("simulated_seconds")
            record["summary"] = row.summary
            records.append(record)
        return cls.from_records(records)

    # -- shape --------------------------------------------------------------------------

    @property
    def column_names(self) -> List[str]:
        return list(self._columns)

    def column(self, name: str) -> List[Any]:
        """The values of one column (a copy — frames are not mutated in place)."""
        if name not in self._columns:
            raise KeyError(f"no column {name!r}; available: {self.column_names}")
        return list(self._columns[name])

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Row]:
        return self.rows()

    def rows(self) -> Iterator[Row]:
        for index in range(self._length):
            yield {name: values[index] for name, values in self._columns.items()}

    def row(self, index: int) -> Row:
        return {name: values[index] for name, values in self._columns.items()}

    def unique(self, name: str) -> List[Any]:
        """Distinct values of a column, in first-appearance order."""
        seen: List[Any] = []
        for value in self.column(name):
            if value not in seen:
                seen.append(value)
        return seen

    # -- relational operations ----------------------------------------------------------

    def filter(
        self, predicate: Optional[Callable[[Row], bool]] = None, **eq: Any
    ) -> "ResultFrame":
        """Rows matching every ``column=value`` pair (and ``predicate``, if given)."""
        for name in eq:
            if name not in self._columns:
                raise KeyError(f"no column {name!r}; available: {self.column_names}")
        kept = [
            row
            for row in self.rows()
            if all(row[name] == value for name, value in eq.items())
            and (predicate is None or predicate(row))
        ]
        return ResultFrame.from_records(kept, columns=self.column_names)

    def select(self, *names: str) -> "ResultFrame":
        return ResultFrame({name: self.column(name) for name in names})

    def drop(self, *names: str) -> "ResultFrame":
        return ResultFrame(
            {
                name: values
                for name, values in self._columns.items()
                if name not in names
            }
        )

    def derive(self, **derivations: Callable[[Row], Any]) -> "ResultFrame":
        """Append computed columns; each function maps a row dict to a value."""
        data = {name: list(values) for name, values in self._columns.items()}
        for name, function in derivations.items():
            data[name] = [function(row) for row in self.rows()]
        return ResultFrame(data)

    def pivot(
        self,
        index: str,
        columns: str,
        values: str,
        aggregate: Callable[[Sequence[Any]], Any] = mean,
    ) -> "ResultFrame":
        """A wide table: one row per ``index`` value, one column per distinct
        ``columns`` value, cells aggregated from ``values``."""
        column_labels = self.unique(columns)
        records: List[Row] = []
        for index_value in self.unique(index):
            record: Row = {index: index_value}
            for label in column_labels:
                cell = [
                    row[values]
                    for row in self.rows()
                    if row[index] == index_value and row[columns] == label
                ]
                record[str(label)] = aggregate(cell) if cell else None
            records.append(record)
        return ResultFrame.from_records(
            records, columns=[index] + [str(label) for label in column_labels]
        )

    def mean(self, name: str, **eq: Any) -> Optional[float]:
        """Mean of a column over an (optionally filtered) selection."""
        frame = self.filter(**eq) if eq else self
        return mean(frame.column(name))

    # -- export -------------------------------------------------------------------------

    def _scalar_columns(self) -> List[str]:
        names = []
        for name, values in self._columns.items():
            if all(value is None or isinstance(value, _SCALAR_TYPES) for value in values):
                names.append(name)
        return names

    def to_records(self) -> List[Row]:
        """All rows as plain dicts (structured columns included)."""
        return list(self.rows())

    def to_json(self, path: Optional[Union[str, Path]] = None) -> str:
        """Records as sorted-key JSON; written to ``path`` if given."""
        text = json.dumps(self.to_records(), indent=2, sort_keys=True) + "\n"
        return _deliver(text, path)

    def to_csv(self, path: Optional[Union[str, Path]] = None) -> str:
        """Scalar columns as CSV (structured columns are dropped)."""
        names = self._scalar_columns()
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(names)
        for row in self.rows():
            writer.writerow(["" if row[name] is None else row[name] for name in names])
        return _deliver(buffer.getvalue(), path)

    def to_markdown(self, path: Optional[Union[str, Path]] = None) -> str:
        """Scalar columns as a GitHub-style Markdown table."""
        names = self._scalar_columns()
        lines = [
            "| " + " | ".join(names) + " |",
            "| " + " | ".join("---" for _ in names) + " |",
        ]
        for row in self.rows():
            cells = []
            for name in names:
                value = row[name]
                if value is None:
                    cells.append("")
                elif isinstance(value, float):
                    cells.append(f"{value:.4g}")
                else:
                    cells.append(str(value))
            lines.append("| " + " | ".join(cells) + " |")
        return _deliver("\n".join(lines) + "\n", path)

    def __repr__(self) -> str:
        return f"ResultFrame({self._length} rows x {len(self._columns)} columns)"


def _deliver(text: str, path: Optional[Union[str, Path]]) -> str:
    if path is not None:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
    return text
