"""§6.3 — programming complexity, measured in lines of code.

The paper's argument: pin-down caches are application/middleware code
that exists *only because* NPFs are unavailable (Firehose alone is
~8.5 K LOC; the paper's MPI backend carries thousands); porting tgt to
NPFs took ~40 LOC.  This module counts the equivalent split inside this
repository: the registration machinery a pinning world forces on users
vs what an ODP world needs.

One cell per counted module; the totals are computed at merge time.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, List, Sequence

from .base import ExperimentResult
from .cells import Cell, cell

__all__ = ["cells", "merge", "count_loc", "cell_count"]

_CORE = Path(__file__).resolve().parent.parent / "core"

#: registration machinery applications must carry without NPFs
PINNING_MODULES = ("pin_down_cache.py", "pinning.py")
#: what an application needs with NPFs: one registration call (the ODP
#: MR class itself is driver-side, not app code, but count it anyway as
#: the most conservative comparison)
NPF_MODULES = ("regions.py",)


def count_loc(path: Path) -> int:
    """Non-blank, non-comment source lines."""
    lines = 0
    in_docstring = False
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line:
            continue
        if in_docstring:
            if line.endswith('"""') or line.endswith("'''"):
                in_docstring = False
            continue
        if line.startswith('"""') or line.startswith("'''"):
            if not (line.endswith('"""') and len(line) > 3) and not (
                line.endswith("'''") and len(line) > 3
            ):
                in_docstring = True
            continue
        if line.startswith("#"):
            continue
        lines += 1
    return lines


def cell_count(name: str, pinning: bool) -> dict:
    """Count one core module's LOC; ``pinning`` tags its role."""
    return {"name": name, "pinning": pinning, "loc": count_loc(_CORE / name)}


def cells() -> List[Cell]:
    out: List[Cell] = []
    for name in PINNING_MODULES:
        out.append(cell("sec63", len(out), cell_count, name=name,
                        pinning=True))
    for name in NPF_MODULES:
        out.append(cell("sec63", len(out), cell_count, name=name,
                        pinning=False))
    return out


def merge(sweep: Sequence[Cell], fragments: List[Any]) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="section-6.3",
        title="Programming complexity: LOC of pinning machinery vs NPF usage",
        columns=["component", "loc", "role"],
        scaling="counted on this repository's own implementations",
    )
    pinning_total = 0
    for fragment in (f for f in fragments if f["pinning"]):
        pinning_total += fragment["loc"]
        result.add_row(component=f"core/{fragment['name']}",
                       loc=fragment["loc"],
                       role="pinning machinery apps must carry")
    for fragment in (f for f in fragments if not f["pinning"]):
        result.add_row(component=f"core/{fragment['name']}",
                       loc=fragment["loc"],
                       role="MR layer incl. ODP (driver-side)")
    result.add_row(component="TOTAL pinning-only", loc=pinning_total,
                   role="deletable once NPFs exist")
    result.add_row(component="app-side NPF code", loc=1,
                   role="one register_odp_implicit() call")
    result.notes.append(
        "paper: Firehose ~8.5K LOC; thousands of LOC disabled in their MPI "
        "backend; tgt port took ~40 LOC"
    )
    return result
