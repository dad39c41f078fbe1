#!/usr/bin/env python
"""Docs-consistency guard for CI.

Four checks, all cheap and dependency-free:

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
   ``*Config`` knob — a table whose introduction says it lives on
   ``XConfig`` (``module``), or a row whose "Where" column names
   ``XConfig`` — must name a field of that class with the default the
   table states.  Defaults are read from the module's source with
   ``ast`` (nothing is imported); a row ``a / b`` pairs with a default
   ``x / y``, and a non-literal default on either side (``exp(1)``, a
   ``field(default_factory=...)``) only has its field name checked.  A
   "Where" row finds its class's module through any docs introduction
   that names both.
4. **Constructor keywords.** Every backticked ``Name(kw=…)`` in
   ``README.md`` and ``docs/*.md`` whose ``Name`` is a class under
   ``src/repro`` must pass only keywords that class accepts: the
   parameters of its own ``__init__``, or its fields when it is a
   dataclass, read with ``ast``.  A class that takes ``**kwargs`` or has
   a base other than ``object`` is skipped, and so is a name
   ``src/repro`` does not define.

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


#: A default that is not a Python literal: the field exists, its value
#: is not compared.
NON_LITERAL = object()

# "... live on `GatewayConfig` (`repro.service.gateway`)"
OWNER = re.compile(r"`(\w+Config)`(?: \(`([\w.]+)`\))?")


def _literal(text_or_node) -> object:
    try:
        return ast.literal_eval(text_or_node)
    except (ValueError, SyntaxError):
        return NON_LITERAL


def config_defaults(source: str, name: str) -> dict[str, object]:
    """Class ``name``'s annotated fields and their literal defaults."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return {
                field.target.id: NON_LITERAL if field.value is None else _literal(field.value)
                for field in node.body
                if isinstance(field, ast.AnnAssign)
                and isinstance(field.target, ast.Name)
            }
    raise ValueError(f"no {name} class found")


def dag_config_defaults(source: str) -> dict[str, object]:
    """``DagConfig``'s fields and literal defaults, from its source."""
    return config_defaults(source, "DagConfig")


def _cells(line: str) -> list[str]:
    return [cell.strip() for cell in line.strip().strip("|").split("|")]


def knob_rows(text: str):
    """``(owner, module, knob, stated default)`` for every ``*Config``
    row of ``text``'s Knobs section (``module`` is None when the owner
    comes from a "Where" cell)."""
    lines = text.partition("## Knobs")[2].partition("\n## ")[0].splitlines()
    intro: list[str] = []
    header = None
    for line in lines:
        if not line.startswith("|"):
            header = None
            intro.append(line)
            continue
        if header is None:
            header, owner = _cells(line), OWNER.search(" ".join(intro))
            intro = []
            continue
        if not line.strip("|-: "):
            continue  # the |---| rule under the header
        row = dict(zip(header, _cells(line)))
        found = OWNER.fullmatch(row["Where"]) if "Where" in row else owner
        if not found:
            continue
        knobs = [knob.strip("` ") for knob in row["Knob"].split(" / ")]
        stated = [value.strip("` ") for value in row["Default"].split(" / ")]
        if len(stated) != len(knobs):
            raise ValueError(f"knob row {row['Knob']} has {len(stated)} defaults")
        for knob, value in zip(knobs, stated):
            yield found.group(1), found.group(2), knob, value


def knob_table_failures(
    name: str, text: str, defaults: dict[str, object], owner: str = "DagConfig"
) -> list[str]:
    """Violations among the ``owner`` rows of ``text``'s Knobs tables."""
    failures = []
    for row_owner, _, knob, stated in knob_rows(text):
        if row_owner != owner:
            continue
        if knob not in defaults:
            failures.append(f"{name}: knob table names `{knob}`, not a {owner} field")
            continue
        value = _literal(stated)
        if NON_LITERAL not in (value, defaults[knob]) and value != defaults[knob]:
            failures.append(
                f"{name}: knob table says `{knob}` defaults to {stated}, "
                f"{owner} says {defaults[knob]!r}"
            )
    return failures


def check_knob_tables() -> list[str]:
    docs = {
        str(doc.relative_to(ROOT)): doc.read_text()
        for doc in sorted((ROOT / "docs").glob("*.md"))
    }
    modules = {
        owner: module
        for text in docs.values()
        for owner, module, _, _ in knob_rows(text)
        if module
    }
    failures = []
    for name, text in docs.items():
        for owner in sorted({row[0] for row in knob_rows(text)}):
            try:
                path = ROOT / "src" / Path(*modules[owner].split(".")).with_suffix(".py")
                defaults = config_defaults(path.read_text(), owner)
            except (KeyError, OSError, ValueError):
                failures.append(
                    f"{name}: `{owner}` is not in the module a docs intro names"
                )
                continue
            failures += knob_table_failures(name, text, defaults, owner)
    return failures


#: A class whose constructor may take any keyword (``**kwargs``, or a base).
ANY_KEYWORD = None

CODE_SPAN = re.compile(r"`([^`]+)`")
FENCE = re.compile(r"```.*?```", re.S)
# An opening call paren (with the callee's name), a closing paren, or a
# keyword argument.
CALL_TOKEN = re.compile(r"(\w+)?\(|\)|(\w+)\s*=(?!=)")


def _accepted(node: ast.ClassDef) -> set[str] | None:
    """The keywords one class's constructor accepts: its ``__init__``'s
    parameters, else its annotated fields; ``ANY_KEYWORD`` when it takes
    ``**kwargs`` or derives from anything but ``object``."""
    if any(ast.unparse(base) != "object" for base in node.bases):
        return ANY_KEYWORD
    for item in node.body:
        if isinstance(item, ast.FunctionDef) and item.name == "__init__":
            args = item.args
            if args.kwarg is not None:
                return ANY_KEYWORD
            names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            return set(names[1:])
    return {
        item.target.id
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    }


def class_parameters(sources) -> dict[str, set[str] | None]:
    """Class name -> the keywords its constructor accepts, over every
    class ``sources`` (module texts) define."""
    return {
        node.name: _accepted(node)
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
    }


def call_keywords(code: str):
    """``(callee, keyword)`` for every keyword argument in ``code``,
    each credited to the innermost call it is passed to."""
    callees: list[str | None] = []
    for match in CALL_TOKEN.finditer(code):
        callee, keyword = match.groups()
        if match.group() == ")":
            if callees:
                callees.pop()
        elif keyword is not None:
            if callees and callees[-1] is not None:
                yield callees[-1], keyword
        else:
            callees.append(callee)


def keyword_failures(
    name: str, text: str, parameters: dict[str, set[str] | None]
) -> list[str]:
    """Keywords ``text``'s backticked calls pass to a class of
    ``parameters`` that its constructor does not accept."""
    failures = []
    for span in CODE_SPAN.finditer(FENCE.sub("", text)):
        for callee, keyword in call_keywords(span.group(1)):
            accepted = parameters.get(callee, ANY_KEYWORD)
            if accepted is not ANY_KEYWORD and keyword not in accepted:
                failures.append(
                    f"{name}: `{span.group(1)}` passes `{keyword}`, which "
                    f"{callee} does not take"
                )
    return failures


def check_constructor_keywords() -> list[str]:
    parameters = class_parameters(
        path.read_text() for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
    )
    failures = []
    for doc in iter_doc_files():
        failures += keyword_failures(
            str(doc.relative_to(ROOT)), doc.read_text(), parameters
        )
    return failures


def main() -> int:
    failures = (
        check_links()
        + check_tier1_command()
        + check_knob_tables()
        + check_constructor_keywords()
    )
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    if failures:
        print(f"\n{len(failures)} docs-consistency violation(s)", file=sys.stderr)
        return 1
    docs = list(iter_doc_files())
    print(
        f"docs ok: {len(docs)} files, links resolve, tier-1 command "
        "consistent, knob tables match their config classes, constructor "
        "keywords exist"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
