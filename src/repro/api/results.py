"""First-class result containers for simulation and scenario output.

Engines used to hand back bare lists of row dicts; :class:`ResultSet`
replaces that at the API boundary with a container that knows its own
column schema:

* **Declared columns, stable order** — the schema is explicit (or
  inferred once, first-seen across all rows) and every exporter emits
  columns in exactly that order, so CSV headers and JSON key order
  never depend on which row happened to come first.
* **Uniform exporters** — ``to_records()`` (plain dicts),
  ``to_json()`` (schema + rows), ``to_csv()`` (spreadsheet-ready), and
  ``column()`` for analysis.
* **Cells may be missing** — a row without a column exports ``None``
  (empty CSV cell); a row with an *undeclared* column is an error,
  because silently dropping data is how regressions hide.

Engines assemble results column-wise through :class:`ColumnarBuilder`:
producers append cell values to typed column lists (absent cells are
the :data:`MISSING` sentinel, *not* ``None`` — ``None`` is a real cell
that exports as JSON ``null``), and rows materialize exactly once, at
:meth:`ResultSet.from_columns` time.  That keeps result assembly free
of per-row dict building and per-row schema validation: writers are
checked against the schema when bound.
"""

from __future__ import annotations

import csv
import io
import json
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.errors import ReproError


class ResultSchemaError(ReproError):
    """Rows and the declared column schema disagree."""


class _Missing:
    """The type of :data:`MISSING`."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "MISSING"


#: Column-cell sentinel for "this row has no value for this column".
#: Distinct from ``None``: a ``None`` cell is present (JSON ``null``),
#: a ``MISSING`` cell is absent from the materialized row entirely.
MISSING = _Missing()


class ResultRow(Mapping[str, object]):
    """One result row: a read-only mapping in declared column order.

    Iteration and ``keys()`` follow the owning :class:`ResultSet`'s
    column order, skipping columns this row has no value for.
    """

    __slots__ = ("_columns", "_cells")

    def __init__(
        self, columns: Tuple[str, ...], cells: Mapping[str, object]
    ) -> None:
        self._columns = columns
        self._cells = dict(cells)

    @classmethod
    def _adopt(
        cls, columns: Tuple[str, ...], cells: Dict[str, object]
    ) -> "ResultRow":
        """Trusted constructor: take ownership of ``cells``, no copy.

        Only for callers that built ``cells`` themselves against a
        validated schema (:meth:`ResultSet.from_columns`).
        """
        row = cls.__new__(cls)
        row._columns = columns
        row._cells = cells
        return row

    def __getitem__(self, key: str) -> object:
        return self._cells[key]

    def __iter__(self) -> Iterator[str]:
        return (name for name in self._columns if name in self._cells)

    def __len__(self) -> int:
        return len(self._cells)

    def get(self, key: str, default: object = None) -> object:
        return self._cells.get(key, default)

    def to_dict(self) -> Dict[str, object]:
        """Plain dict, keys in declared column order."""
        return {name: self._cells[name] for name in self}

    def __repr__(self) -> str:
        cells = ", ".join(f"{k}={v!r}" for k, v in self.to_dict().items())
        return f"ResultRow({cells})"


class ResultSet:
    """An ordered collection of result rows with a declared schema.

    Args:
        columns: The column names, in export order.
        rows: Row mappings; every key must appear in ``columns``.

    Rows keep their input order — for sweeps that is axis order, which
    the executors already guarantee serial/parallel identical.
    """

    def __init__(
        self,
        columns: Sequence[str],
        rows: Sequence[Mapping[str, object]] = (),
    ) -> None:
        names = tuple(columns)
        if len(set(names)) != len(names):
            raise ResultSchemaError(f"duplicate column names in {names!r}")
        for name in names:
            if not isinstance(name, str) or not name:
                raise ResultSchemaError(
                    f"column names must be non-empty strings, got {name!r}"
                )
        self.columns: Tuple[str, ...] = names
        self._rows: List[ResultRow] = []
        for index, row in enumerate(rows):
            extra = sorted(set(row) - set(names))
            if extra:
                raise ResultSchemaError(
                    f"row {index} has undeclared column(s) {extra}; "
                    f"declared: {list(names)}"
                )
            self._rows.append(ResultRow(self.columns, row))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(
        cls,
        columns: Sequence[str],
        data: Mapping[str, Sequence[object]],
        length: int,
    ) -> "ResultSet":
        """Materialize rows once from column lists (the columnar path).

        ``data`` maps every name in ``columns`` to a list of ``length``
        cell values; :data:`MISSING` cells are dropped from their row.
        The schema was validated when the columns were assembled (see
        :class:`ColumnarBuilder`), so no per-row checks run here.
        """
        result = cls(columns)
        names = result.columns
        cols = [data[name] for name in names]
        adopt = ResultRow._adopt
        append = result._rows.append
        for index in range(length):
            cells: Dict[str, object] = {}
            for position, column in enumerate(cols):
                value = column[index]
                if value is not MISSING:
                    cells[names[position]] = value
            append(adopt(names, cells))
        return result

    @classmethod
    def from_records(
        cls,
        records: Sequence[Mapping[str, object]],
        *,
        columns: Optional[Sequence[str]] = None,
    ) -> "ResultSet":
        """Build from row dicts, inferring the schema when not given.

        Inferred column order is first-seen across all rows, so later
        rows may introduce columns (they sort after earlier ones) but
        can never reorder established ones.
        """
        if columns is None:
            seen: Dict[str, None] = {}
            for record in records:
                for key in record:
                    seen.setdefault(key, None)
            columns = list(seen)
        return cls(columns, records)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[ResultRow]:
        return iter(self._rows)

    def __getitem__(self, index: int) -> ResultRow:
        return self._rows[index]

    def __bool__(self) -> bool:
        return bool(self._rows)

    def column(self, name: str) -> List[object]:
        """One column across all rows (missing cells → ``None``)."""
        if name not in self.columns:
            raise ResultSchemaError(
                f"unknown column {name!r}; declared: {list(self.columns)}"
            )
        return [row.get(name) for row in self._rows]

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------
    def to_records(self) -> List[Dict[str, object]]:
        """Rows as plain dicts, keys in declared column order."""
        return [row.to_dict() for row in self._rows]

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """JSON document carrying the schema and the rows.

        Shape: ``{"columns": [...], "rows": [{...}, ...]}`` — rows are
        objects (not arrays) so the output is self-describing even when
        cells are missing.
        """
        return json.dumps(
            {"columns": list(self.columns), "rows": self.to_records()},
            indent=indent,
            sort_keys=False,
        )

    def to_csv(self) -> str:
        """CSV with the declared header, missing cells left empty."""
        buffer = io.StringIO()
        writer = csv.DictWriter(
            buffer, fieldnames=list(self.columns), lineterminator="\n"
        )
        writer.writeheader()
        for row in self._rows:
            writer.writerow(
                {name: row.get(name, "") for name in self.columns}
            )
        return buffer.getvalue()

    def __repr__(self) -> str:
        return (
            f"ResultSet(columns={list(self.columns)!r}, "
            f"rows={len(self._rows)})"
        )


#: A positional row appender bound to a fixed column subset; see
#: :meth:`ColumnarBuilder.row_writer`.
RowWriter = Callable[..., None]


class ColumnarBuilder:
    """Column-wise assembly of a :class:`ResultSet`.

    Producers bind a :meth:`row_writer` for the column subset their
    rows carry and append cell values positionally; columns outside the
    subset receive :data:`MISSING` for that row, and :meth:`build`
    materializes every row exactly once.

    Schema validation happens when a writer is bound: unknown columns
    fail there, never per row.
    """

    __slots__ = ("columns", "_data")

    def __init__(self, columns: Sequence[str]) -> None:
        self.columns: Tuple[str, ...] = tuple(columns)
        if len(set(self.columns)) != len(self.columns):
            raise ResultSchemaError(
                f"duplicate column names in {self.columns!r}"
            )
        self._data: Dict[str, List[object]] = {
            name: [] for name in self.columns
        }

    def __len__(self) -> int:
        """Rows appended so far."""
        if not self.columns:
            return 0
        return len(self._data[self.columns[0]])

    def row_writer(self, names: Sequence[str]) -> RowWriter:
        """A positional appender over ``names`` (one call = one row).

        The returned callable takes exactly ``len(names)`` cell values
        in ``names`` order and appends :data:`MISSING` to every other
        declared column, keeping all columns the same length.
        """
        subset = tuple(names)
        unknown = sorted(set(subset) - set(self.columns))
        if unknown:
            raise ResultSchemaError(
                f"writer names undeclared column(s) {unknown}; "
                f"declared: {list(self.columns)}"
            )
        if len(set(subset)) != len(subset):
            raise ResultSchemaError(f"duplicate writer columns in {subset!r}")
        present = [self._data[name].append for name in subset]
        absent = [
            self._data[name].append
            for name in self.columns
            if name not in subset
        ]
        arity = len(present)

        def write(*values: object) -> None:
            if len(values) != arity:
                raise ResultSchemaError(
                    f"row writer over {list(subset)} takes {arity} "
                    f"value(s), got {len(values)}"
                )
            for append, value in zip(present, values):
                append(value)
            for append in absent:
                append(MISSING)

        return write

    def build(self) -> ResultSet:
        """Materialize the assembled columns into a :class:`ResultSet`."""
        return ResultSet.from_columns(self.columns, self._data, len(self))

    def __repr__(self) -> str:
        return (
            f"ColumnarBuilder(columns={list(self.columns)!r}, "
            f"rows={len(self)})"
        )
