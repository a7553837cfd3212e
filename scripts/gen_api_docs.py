#!/usr/bin/env python
"""Generate docs/api.md from the package's docstrings.

Walks ``src/repro`` with :mod:`ast` (no imports, no side effects, so
the output is a pure function of the source tree), and emits one
markdown section per module: the module docstring's first paragraph,
then every public class and function with its signature and docstring
summary line.

Usage::

    python scripts/gen_api_docs.py           # (re)write docs/api.md
    python scripts/gen_api_docs.py --check   # exit 1 if docs/api.md is stale

CI runs ``--check`` so the committed reference can never drift from
the code; regenerate and commit when it fails.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
OUT = REPO / "docs" / "api.md"

HEADER = """\
# API reference

Auto-generated from docstrings by `scripts/gen_api_docs.py` — do not
edit by hand.  Regenerate with:

```
python scripts/gen_api_docs.py
```

CI fails if this file is stale (`python scripts/gen_api_docs.py --check`).
"""


def _first_paragraph(docstring: str | None) -> str:
    if not docstring:
        return "*(no docstring)*"
    paragraph = docstring.strip().split("\n\n")[0]
    return " ".join(line.strip() for line in paragraph.splitlines())


def _summary_line(docstring: str | None) -> str:
    if not docstring:
        return "*(no docstring)*"
    return docstring.strip().splitlines()[0].strip()


def _signature(node: ast.FunctionDef | ast.AsyncFunctionDef) -> str:
    """Best-effort one-line signature from the AST."""
    args = node.args
    parts: list[str] = []
    positional = args.posonlyargs + args.args
    n_defaults = len(args.defaults)
    for index, arg in enumerate(positional):
        text = arg.arg
        default_index = index - (len(positional) - n_defaults)
        if default_index >= 0:
            text += "=" + ast.unparse(args.defaults[default_index])
        parts.append(text)
    if args.vararg:
        parts.append("*" + args.vararg.arg)
    elif args.kwonlyargs:
        parts.append("*")
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        text = arg.arg
        if default is not None:
            text += "=" + ast.unparse(default)
        parts.append(text)
    if args.kwarg:
        parts.append("**" + args.kwarg.arg)
    return f"{node.name}({', '.join(parts)})"


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _module_entries(tree: ast.Module) -> list[str]:
    lines: list[str] = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and _is_public(node.name):
            lines.append(
                f"- **class `{node.name}`** — "
                f"{_summary_line(ast.get_docstring(node))}"
            )
            for member in node.body:
                if (
                    isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and _is_public(member.name)
                    and ast.get_docstring(member)
                ):
                    lines.append(
                        f"  - `{_signature(member)}` — "
                        f"{_summary_line(ast.get_docstring(member))}"
                    )
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ) and _is_public(node.name):
            lines.append(
                f"- **`{_signature(node)}`** — "
                f"{_summary_line(ast.get_docstring(node))}"
            )
    return lines


def generate() -> str:
    sections: list[str] = [HEADER]
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        if any(part.startswith("_") and part != "__init__.py"
               for part in relative.parts):
            continue
        dotted = ".".join(("repro",) + relative.with_suffix("").parts)
        dotted = dotted.removesuffix(".__init__")
        tree = ast.parse(path.read_text())
        sections.append(f"## `{dotted}`")
        sections.append(_first_paragraph(ast.get_docstring(tree)))
        entries = _module_entries(tree)
        if entries:
            sections.append("\n".join(entries))
    return "\n\n".join(sections) + "\n"


def write_or_check(out: Path, text: str, argv: list[str] | None,
                   description: str) -> int:
    """Shared CLI of the doc generators: write ``text`` to ``out``, or
    with ``--check`` exit 1 if ``out`` does not already hold it."""
    name = out.relative_to(REPO)
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--check", action="store_true",
        help=f"fail (exit 1) if {name} is out of date",
    )
    if parser.parse_args(argv).check:
        if not out.exists() or out.read_text() != text:
            print(
                f"{name} is stale; regenerate with "
                f"`python scripts/{Path(sys.argv[0]).name}`",
                file=sys.stderr,
            )
            return 1
        print(f"{name} is up to date")
        return 0
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text)
    print(f"wrote {name} ({len(text.splitlines())} lines)")
    return 0


def main(argv: list[str] | None = None) -> int:
    return write_or_check(OUT, generate(), argv, __doc__.splitlines()[0])


if __name__ == "__main__":
    raise SystemExit(main())
