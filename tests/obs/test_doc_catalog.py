"""Doc/code drift guard for the observability catalog.

``docs/ARCHITECTURE.md`` lists the spans, instants and slab counters
the code emits.  Every listed name must still be a string literal under
``src/repro`` — so deleting an emitter cannot leave its row behind.
(Docs → code only: an emitter without a row is not caught here.)
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[2]
DOC = ROOT / "docs" / "ARCHITECTURE.md"

#: the tables' header rows, by first column
TABLES = ("name", "counter")


def documented_names() -> list[str]:
    """First-column names of the Observability section's tables."""
    text = DOC.read_text(encoding="utf-8")
    section = text.split("\n## Observability\n", 1)[1].split("\n## ", 1)[0]
    names, inside = [], False
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if not line.startswith("|"):
            inside = False
        elif cells[0] in TABLES:
            inside = True
        elif inside and not set(cells[0]) <= set("-"):
            names.append(re.fullmatch(r"`(.+)`", cells[0]).group(1))
    return names


def source_literals() -> set[str]:
    """Every string constant under ``src/repro`` — the constant parts
    of f-strings included."""
    literals = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                literals.add(node.value)
    return literals


def emitted(name: str, literals: set[str]) -> bool:
    """``name`` — up to its ``[...]``/``{...}`` parameter — is spelled
    by a literal: exactly, or as the start of one that goes on with the
    parameter."""
    head, bracket, _rest = re.fullmatch(r"([^\[{]+)([\[{]?)(.*)", name).groups()
    if not bracket:
        return head in literals
    if bracket == "[":
        head += "["
    return any(literal.startswith(head) for literal in literals)


def test_the_tables_are_found():
    names = documented_names()
    assert {"parse", "pass:{name}", "simulate[tier]", "msg.startup"} <= set(names)
    assert "slab.fetch_runs[loop=S..]" in names
    assert len(names) == len(set(names)) >= 11


def test_every_documented_name_is_emitted():
    literals = source_literals()
    missing = [n for n in documented_names() if not emitted(n, literals)]
    assert missing == [], f"documented but emitted nowhere under src/repro: {missing}"


def test_a_deleted_emitter_is_caught():
    literals = source_literals()
    assert not emitted("nonesuch.instant", literals)
    assert not emitted("slab.nonesuch[loop=S..]", literals)
    assert emitted("slab.takeover", literals)
    assert emitted("slab.takeover[loop=S..]", literals)
