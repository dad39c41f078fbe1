#!/usr/bin/env python
"""Docs-consistency guard for CI.

Three checks, all cheap and dependency-free:

1. **Dead relative links.** Every markdown link in ``README.md`` and
   ``docs/*.md`` whose target is a relative path must resolve to a file
   in the repository (fragments are stripped; absolute URLs and
   ``mailto:`` are skipped).  A docs split or file rename that leaves a
   dangling ``[page](old.md)`` fails here instead of 404ing for the
   next reader.
2. **Tier-1 command consistency.** The test command CI actually runs
   (the ``Run tier-1 suite`` step in ``.github/workflows/ci.yml``) must
   be the same command README and ROADMAP tell a human to run.  Doc
   drift on the one command everyone copy-pastes is the most expensive
   kind.
3. **Knob tables.** Every row of a docs "Knobs" table that names a
   ``DagConfig`` knob — a table introduced as living on ``DagConfig``,
   or a row whose "Where" column says so — must name a field of
   ``DagConfig`` with the default the table states (read from
   ``src/repro/fl/config.py`` with ``ast``, nothing is imported).

Usage::

    python tools/check_docs.py

Exits 1 with one line per violation.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# [text](target) — but not images' alt brackets differently, and not
# footnote-style links; good enough for this repo's plain markdown.
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")

TIER1 = "python -m pytest -x -q"


def iter_doc_files():
    yield ROOT / "README.md"
    yield from sorted((ROOT / "docs").glob("*.md"))


def check_links() -> list[str]:
    failures = []
    for doc in iter_doc_files():
        text = doc.read_text()
        for match in LINK.finditer(text):
            target = match.group(1)
            if target.startswith(SKIP_PREFIXES):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (doc.parent / path).resolve()
            if not resolved.exists():
                failures.append(
                    f"{doc.relative_to(ROOT)}: dead link -> {target}"
                )
    return failures


def check_tier1_command() -> list[str]:
    failures = []
    workflow = ROOT / ".github" / "workflows" / "ci.yml"
    if TIER1 not in workflow.read_text():
        failures.append(
            f"{workflow.relative_to(ROOT)}: tier-1 step no longer runs "
            f"`{TIER1}` — update TIER1 in tools/check_docs.py and the "
            "docs together"
        )
    for doc in (ROOT / "README.md", ROOT / "ROADMAP.md"):
        if TIER1 not in doc.read_text():
            failures.append(
                f"{doc.relative_to(ROOT)}: does not quote the tier-1 "
                f"command `{TIER1}` that CI runs"
            )
    return failures


def dag_config_defaults(source: str) -> dict[str, object]:
    """``DagConfig``'s fields and literal defaults, from its source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == "DagConfig":
            return {
                field.target.id: ast.literal_eval(field.value)
                for field in node.body
                if isinstance(field, ast.AnnAssign) and field.value is not None
            }
    raise ValueError("no DagConfig class found")


def _cells(line: str) -> list[str]:
    return [cell.strip() for cell in line.strip().strip("|").split("|")]


def knob_table_failures(name: str, text: str, defaults: dict[str, object]) -> list[str]:
    """Violations among the ``DagConfig`` rows of ``text``'s Knobs table."""
    lines = text.partition("## Knobs")[2].splitlines()
    start = next((i for i, line in enumerate(lines) if line.startswith("|")), None)
    if start is None:
        return []
    # A table without a "Where" column belongs to the config class its
    # introduction names ("... knobs live on `DagConfig`").
    owner = re.search(r"`(\w+Config)`", " ".join(lines[:start]))
    header = _cells(lines[start])
    failures = []
    for line in lines[start + 2 :]:  # past the header and its |---| rule
        if not line.startswith("|"):
            break
        row = dict(zip(header, _cells(line)))
        where = row.get("Where") or (owner and f"`{owner.group(1)}`")
        if where != "`DagConfig`":
            continue
        knob, stated = row["Knob"].strip("`"), row["Default"].strip("`")
        if knob not in defaults:
            failures.append(f"{name}: knob table names `{knob}`, not a DagConfig field")
        elif ast.literal_eval(stated) != defaults[knob]:
            failures.append(
                f"{name}: knob table says `{knob}` defaults to {stated}, "
                f"DagConfig says {defaults[knob]!r}"
            )
    return failures


def check_knob_tables() -> list[str]:
    defaults = dag_config_defaults(
        (ROOT / "src" / "repro" / "fl" / "config.py").read_text()
    )
    return [
        failure
        for doc in sorted((ROOT / "docs").glob("*.md"))
        for failure in knob_table_failures(
            str(doc.relative_to(ROOT)), doc.read_text(), defaults
        )
    ]


def main() -> int:
    failures = check_links() + check_tier1_command() + check_knob_tables()
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    if failures:
        print(f"\n{len(failures)} docs-consistency violation(s)", file=sys.stderr)
        return 1
    docs = list(iter_doc_files())
    print(
        f"docs ok: {len(docs)} files, links resolve, tier-1 command "
        "consistent, knob tables match DagConfig"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
