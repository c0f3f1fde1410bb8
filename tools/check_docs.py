#!/usr/bin/env python
"""Documentation health checks (run by the CI ``docs`` job).

Six passes; the first five are stdlib-only, the sixth imports the
``repro`` CLI parser from src/:

1. **Links** — every relative markdown link target in README.md and
   docs/*.md must exist on disk.
2. **Snippets** — every ``repro run <path>`` / ``python <path>`` file
   reference inside fenced code blocks of those documents must exist,
   and every spec under examples/experiments/ must be mentioned by at
   least one document.
3. **Docstrings** — the documented public API surface
   (repro/__init__.py, sim/__init__.py, batch/compiler.py,
   experiments/*, core/pipeline/*) must keep module docstrings and
   docstrings on every public class/function (AST-based, mirrors the
   ruff D gate).
4. **Pass table** — docs/compilation.md documents the pass pipeline;
   every registered compiler pass (``name =`` declarations in
   core/pipeline/passes.py) must appear in its pass table, so a new
   pass cannot land without documenting what it reads and writes.
5. **Robustness contract** — docs/robustness.md must name (in
   backticks) every export of repro/errors.py and every fault site in
   repro/testing/faults.py, so the failure taxonomy and injection
   surface cannot drift from their documentation.
6. **Service contract** — docs/service.md must name (in backticks)
   every HTTP route in repro/service/routes.py ROUTE_PATHS plus the
   ``serve``/``submit`` CLI commands, every ``--flag`` of ``repro
   serve``, and no ``--flag`` that neither ``serve`` nor ``submit``
   accepts, so the service surface cannot change without its protocol
   document following.

Exit status is the number of problems found.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOCS = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]
DOCSTRING_SURFACE = [
    REPO / "src/repro/__init__.py",
    REPO / "src/repro/sim/__init__.py",
    REPO / "src/repro/batch/compiler.py",
    *sorted((REPO / "src/repro/experiments").glob("*.py")),
    *sorted((REPO / "src/repro/core/pipeline").glob("*.py")),
    *sorted((REPO / "src/repro/service").glob("*.py")),
]

_LINK = re.compile(r"\[[^\]]+\]\(([^)#\s]+)(?:#[^)]*)?\)")
_SNIPPET_PATH = re.compile(
    r"(?:repro run|python)\s+((?:examples|benchmarks|tools)/[\w./-]+)"
)


def check_links(problems: list) -> None:
    """Pass 1: relative markdown link targets must exist."""
    for doc in DOCS:
        text = doc.read_text(encoding="utf-8")
        for match in _LINK.finditer(text):
            target = match.group(1)
            if "://" in target or target.startswith("mailto:"):
                continue
            resolved = (doc.parent / target).resolve()
            if not resolved.is_relative_to(REPO):
                continue  # repo-external (e.g. the GitHub badge URL)
            if not resolved.exists():
                problems.append(f"{doc.relative_to(REPO)}: broken link {target}")


def check_snippets(problems: list) -> None:
    """Pass 2: file paths referenced by command snippets must exist."""
    corpus = ""
    for doc in DOCS:
        text = doc.read_text(encoding="utf-8")
        corpus += text
        for match in _SNIPPET_PATH.finditer(text):
            target = match.group(1)
            if not (REPO / target).exists():
                problems.append(
                    f"{doc.relative_to(REPO)}: snippet references missing "
                    f"file {target}"
                )
    for spec in sorted((REPO / "examples/experiments").glob("*.yaml")):
        rel = str(spec.relative_to(REPO))
        if rel not in corpus:
            problems.append(f"{rel}: example spec not mentioned in any doc")


def _missing_docstrings(path: Path) -> list:
    """Public defs in ``path`` lacking docstrings (module included)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    missing = []
    if not ast.get_docstring(tree):
        missing.append("(module)")
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        if node.name.startswith("_"):
            continue
        if not ast.get_docstring(node):
            missing.append(f"{node.name} (line {node.lineno})")
    return missing


def check_docstrings(problems: list) -> None:
    """Pass 3: the documented API surface keeps its docstrings."""
    for path in DOCSTRING_SURFACE:
        for item in _missing_docstrings(path):
            problems.append(
                f"{path.relative_to(REPO)}: missing docstring on {item}"
            )


_PASS_NAME = re.compile(r'^\s*name = "([a-z_]+)"$', re.MULTILINE)


def check_pass_table(problems: list) -> None:
    """Pass 4: every registered compiler pass is documented.

    docs/compilation.md owns the pass table, so each pass name declared
    in core/pipeline/passes.py must appear there (in a backticked table
    cell).
    """
    passes_py = REPO / "src/repro/core/pipeline/passes.py"
    contract = REPO / "docs/compilation.md"
    if not contract.exists():
        problems.append("docs/compilation.md: missing (pass table)")
        return
    text = contract.read_text(encoding="utf-8")
    for name in _PASS_NAME.findall(passes_py.read_text(encoding="utf-8")):
        if f"`{name}`" not in text:
            problems.append(
                f"docs/compilation.md: registered pass {name!r} missing "
                "from the pass table"
            )


def _ast_string_list(path: Path, target: str) -> list:
    """The string elements assigned to ``target`` at module level."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == target
            for t in node.targets
        ):
            continue
        if isinstance(node.value, (ast.List, ast.Tuple)):
            return [
                element.value
                for element in node.value.elts
                if isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            ]
    return []


def check_robustness_doc(problems: list) -> None:
    """Pass 5: the failure taxonomy and fault sites stay documented.

    docs/robustness.md owns the fault-tolerance contract: every name
    exported by repro/errors.py and every fault site declared in
    repro/testing/faults.py must appear there inside a backticked
    span, so neither can change without the document following.
    """
    doc = REPO / "docs/robustness.md"
    if not doc.exists():
        problems.append("docs/robustness.md: missing (taxonomy contract)")
        return
    text = doc.read_text(encoding="utf-8")
    # Drop fenced code blocks first — a ``` fence has an odd backtick
    # count and would desynchronize the inline-span pairing below.
    prose = re.sub(r"```.*?```", " ", text, flags=re.DOTALL)
    spans = re.findall(r"`([^`]+)`", prose)
    documented = " ".join(spans)
    for origin, names in (
        (
            "repro/errors.py __all__",
            _ast_string_list(REPO / "src/repro/errors.py", "__all__"),
        ),
        (
            "repro/testing/faults.py FAULT_SITES",
            _ast_string_list(
                REPO / "src/repro/testing/faults.py", "FAULT_SITES"
            ),
        ),
    ):
        for name in names:
            if name not in documented:
                problems.append(
                    f"docs/robustness.md: {name!r} from {origin} is "
                    "not documented"
                )


def _cli_flags(command: str) -> set:
    """The ``--long`` option strings ``repro <command>`` accepts."""
    sys.path.insert(0, str(REPO / "src"))
    from repro.cli import build_parser

    subcommands = next(
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    options = subcommands.choices[command]._option_string_actions
    return {flag for flag in options if flag.startswith("--")} - {"--help"}


def check_service_doc(problems: list) -> None:
    """Pass 6: the HTTP and CLI surface stays documented.

    docs/service.md owns the service protocol: every route declared in
    repro/service/routes.py ROUTE_PATHS and both service CLI commands
    must appear there inside a backticked span, so an endpoint cannot
    be added or renamed without the protocol document following.  It
    must also name every ``repro serve`` flag, and every ``--flag`` it
    names must exist on the ``serve`` or ``submit`` parser, so a
    removed flag cannot stay in the document.
    """
    doc = REPO / "docs/service.md"
    if not doc.exists():
        problems.append("docs/service.md: missing (service protocol)")
        return
    text = doc.read_text(encoding="utf-8")
    prose = re.sub(r"```.*?```", " ", text, flags=re.DOTALL)
    documented = " ".join(re.findall(r"`([^`]+)`", prose))
    routes = _ast_string_list(
        REPO / "src/repro/service/routes.py", "ROUTE_PATHS"
    )
    if not routes:
        problems.append(
            "src/repro/service/routes.py: ROUTE_PATHS not extractable"
        )
    for name in routes + ["repro serve", "repro submit"]:
        if name not in documented:
            problems.append(
                f"docs/service.md: {name!r} from the service surface is "
                "not documented"
            )
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text))
    serve = _cli_flags("serve")
    for flag in sorted(named - serve - _cli_flags("submit")):
        problems.append(
            f"docs/service.md: names {flag}, which neither 'repro serve' "
            "nor 'repro submit' accepts"
        )
    for flag in sorted(serve - named):
        problems.append(
            f"docs/service.md: 'repro serve {flag}' is not documented"
        )


def main() -> int:
    """Run all passes; print problems; return their count."""
    problems: list = []
    check_links(problems)
    check_snippets(problems)
    check_docstrings(problems)
    check_pass_table(problems)
    check_robustness_doc(problems)
    check_service_doc(problems)
    for problem in problems:
        print(f"docs-check: {problem}", file=sys.stderr)
    if not problems:
        print(
            f"docs-check: {len(DOCS)} documents, "
            f"{len(DOCSTRING_SURFACE)} API modules — all clean"
        )
    return len(problems)


if __name__ == "__main__":
    sys.exit(main())
