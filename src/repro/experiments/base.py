"""Common experiment scaffolding.

Every experiment module's ``merge`` folds its sweep cells into an
:class:`ExperimentResult` (``runner.run_experiment(name)`` runs the
whole sweep): the experiment id (paper table/figure), the scaling
applied relative to the paper's testbed, and rows/series shaped like
the paper's presentation.  ``print_result`` renders them the way
the paper's tables read, so benchmark logs double as the
EXPERIMENTS.md evidence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

__all__ = ["ExperimentResult", "print_result", "result_to_dict",
           "results_to_json"]


@dataclass
class ExperimentResult:
    """Structured output of one table/figure reproduction."""

    experiment_id: str               # e.g. "figure-4a"
    title: str
    columns: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    scaling: Optional[str] = None    # how the paper's params were scaled

    def add_row(self, **values: Any) -> None:
        self.rows.append(values)

    def column(self, name: str) -> List[Any]:
        return [row.get(name) for row in self.rows]


def _format(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.2f}"
    return str(value)


def result_to_dict(result: ExperimentResult) -> Dict[str, Any]:
    """A plain-dict view of one result, for JSON export."""
    return {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "scaling": result.scaling,
        "columns": list(result.columns),
        "rows": [dict(row) for row in result.rows],
        "notes": list(result.notes),
    }


def results_to_json(results: Iterable[ExperimentResult]) -> str:
    """Serialize results to JSON with a stable key order.

    ``sort_keys`` makes the document byte-stable for diffing; non-finite
    floats (fig4b's untriggered-timeout markers are ``inf``) use
    Python's ``Infinity`` literal extension.
    """
    return json.dumps([result_to_dict(r) for r in results],
                      indent=2, sort_keys=True)


def print_result(result: ExperimentResult) -> str:
    """Render (and return) a paper-style text table."""
    lines = [f"== {result.experiment_id}: {result.title} =="]
    if result.scaling:
        lines.append(f"   scaling: {result.scaling}")
    widths = {
        col: max(len(col), *(len(_format(r.get(col, ""))) for r in result.rows))
        if result.rows else len(col)
        for col in result.columns
    }
    header = "  ".join(col.ljust(widths[col]) for col in result.columns)
    lines.append(header)
    lines.append("-" * len(header))
    for row in result.rows:
        lines.append(
            "  ".join(_format(row.get(col, "")).ljust(widths[col])
                      for col in result.columns)
        )
    for note in result.notes:
        lines.append(f"   note: {note}")
    text = "\n".join(lines)
    print(text)
    return text
