"""Doc/code drift guard for the observability catalog.

``docs/ARCHITECTURE.md`` lists the spans, instants and counters the
code emits: in the Observability section's tables, in that section's
prose and in the sweep engine's "Fallback ladder" paragraph.  Every
listed name must still be a string literal under ``src/repro`` — so
deleting an emitter cannot leave its row or its mention behind.
Code → docs is checked for one family so far: every ``compile.`` name
the source spells must have its row (an emitter of another family
without a row is not caught here).
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[2]
DOC = ROOT / "docs" / "ARCHITECTURE.md"

#: the tables' header rows, by first column
TABLES = ("name", "counter")

#: first components of the metric, counter and instant names; a
#: back-ticked dotted token of the prose is one of those names when it
#: starts with one (``repro.obs`` and ``tracer.enabled`` do not)
NAMESPACES = (
    "compile", "lowering", "msg", "seq", "sim", "slab", "sweep", "tier",
)


def _observability() -> str:
    text = DOC.read_text(encoding="utf-8")
    return text.split("\n## Observability\n", 1)[1].split("\n## ", 1)[0]


def documented_names() -> list[str]:
    """First-column names of the Observability section's tables."""
    names, inside = [], False
    for line in _observability().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if not line.startswith("|"):
            inside = False
        elif cells[0] in TABLES:
            inside = True
        elif inside and not set(cells[0]) <= set("-"):
            names.append(re.fullmatch(r"`(.+)`", cells[0]).group(1))
    return names


def prose_names() -> list[str]:
    """Back-ticked dotted names under :data:`NAMESPACES` in the
    Observability section and the Fallback ladder paragraph, wherever
    a line break fell inside the back-ticks."""
    (ladder,) = (
        block
        for block in DOC.read_text(encoding="utf-8").split("\n\n")
        if block.startswith("**Fallback ladder.**")
    )
    prose = re.sub(r"```.*?```", "", _observability() + ladder, flags=re.S)
    spans = re.findall(r"`([^`]+)`", prose)
    return sorted(
        {
            span
            for span in (" ".join(span.split()) for span in spans)
            if re.fullmatch(r"(%s)\.\S+" % "|".join(NAMESPACES), span)
        }
    )


def _source_nodes():
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        yield from ast.walk(ast.parse(path.read_text(encoding="utf-8")))


def source_literals() -> set[str]:
    """Every string constant under ``src/repro`` — the constant parts
    of f-strings included."""
    return {
        node.value
        for node in _source_nodes()
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def source_names(prefix: str) -> set[str]:
    """The names starting with ``prefix`` that ``src/repro`` spells,
    an f-string's ``{...}`` fields rendered as ``NAME``."""
    names = set()
    for node in _source_nodes():
        if isinstance(node, ast.JoinedStr):
            name = "".join(
                part.value if isinstance(part, ast.Constant) else "NAME"
                for part in node.values
            )
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        # an f-string's leading constant is walked on its own too
        if name.startswith(prefix) and not name.endswith("["):
            names.add(name)
    return names


def emitted(name: str, literals: set[str]) -> bool:
    """``name`` — up to its ``[...]``/``{...}`` parameter or its
    trailing ``*`` — is spelled by a literal: exactly, or as the start
    of one that goes on with the parameter.  A parameter given a value
    (``[reason=estimate]``, not ``[reason=<rung>]`` or ``[loop=S..]``)
    needs that value spelled by a literal too."""
    head, bracket, rest = re.fullmatch(r"([^\[{*]+)([\[{*]?)(.*)", name).groups()
    if not bracket:
        return head in literals
    if bracket == "[":
        head += "["
    value = re.fullmatch(r"\w+=([a-z][a-z0-9_-]*)\]", rest)
    if value is not None and value.group(1) not in literals:
        return False
    return any(literal.startswith(head) for literal in literals)


def test_the_tables_are_found():
    names = documented_names()
    assert {"parse", "pass:{name}", "simulate[tier]", "msg.startup"} <= set(names)
    assert "slab.fetch_runs[loop=S..]" in names
    assert len(names) == len(set(names)) >= 11


def test_the_prose_names_are_found():
    names = prose_names()
    assert {
        "sim.*", "lowering.closures_built", "slab.fetch_runs[loop=...]",
        "sweep.batched_fallbacks", "sweep.lane_fallback[reason=estimate]",
    } <= set(names)
    assert not {"repro.obs", "tracer.enabled"} & set(names)


def test_every_documented_name_is_emitted():
    literals = source_literals()
    names = documented_names() + prose_names()
    missing = [n for n in names if not emitted(n, literals)]
    assert missing == [], f"documented but emitted nowhere under src/repro: {missing}"


def test_every_compile_gauge_has_its_row():
    gauges = source_names("compile.")
    assert {"compile.cache.hits", "compile.pass[NAME].seconds"} <= gauges
    assert "compile.cache.invalidations" not in gauges
    assert gauges - set(documented_names()) == set()


def test_a_deleted_emitter_is_caught():
    literals = source_literals()
    assert not emitted("nonesuch.instant", literals)
    assert not emitted("slab.nonesuch[loop=S..]", literals)
    assert emitted("slab.takeover", literals)
    assert emitted("slab.takeover[loop=S..]", literals)
    # the names this guard was extended for, after their emitters went
    assert not emitted("lowering.cache.*", literals)
    assert emitted("lowering.closures_*", literals)
    assert not emitted("sweep.lane_fallback[reason=estimate-fuse]", literals)
    assert emitted("sweep.lane_fallback[reason=estimate]", literals)
    assert emitted("sweep.lane_fallback[reason=<rung>]", literals)
