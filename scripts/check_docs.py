#!/usr/bin/env python
"""Markdown doc checks: relative links and anchors resolve.

Scans every tracked ``*.md`` file (repo root + docs/) for inline links
and validates the repo-relative ones:

- ``[text](path)`` — ``path`` must exist relative to the linking file;
- ``[text](path#anchor)`` / ``[text](#anchor)`` — the target file must
  contain a heading whose GitHub slug matches ``anchor``.

External links (http/https/mailto) are not fetched — CI must not
depend on the network.

Exit status 1 lists every broken link.

Usage::

    python scripts/check_docs.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: inline markdown links, skipping images; group 1 = target
_LINK = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_CODE_FENCE = re.compile(r"```.*?```", re.DOTALL)
#: an inline code span renders its brackets literally: ``GOLDEN[op](x)``
#: is code, not a link (a link whose text is code keeps its target)
_CODE_SPAN = re.compile(r"`[^`\n]*`")


def _slug(heading: str) -> str:
    """GitHub's anchor slug: lowercase, drop punctuation, dash spaces."""
    text = re.sub(r"[`*_]", "", heading.strip()).lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _anchors(path: Path) -> set[str]:
    text = _CODE_FENCE.sub("", path.read_text())
    return {_slug(m.group(1)) for m in _HEADING.finditer(text)}


def _markdown_files() -> list[Path]:
    files = sorted(REPO.glob("*.md"))
    docs = REPO / "docs"
    if docs.is_dir():
        files += sorted(docs.rglob("*.md"))
    return files


def link_targets(text: str) -> list[str]:
    """Targets of the inline links markdown ``text`` renders."""
    text = _CODE_SPAN.sub("", _CODE_FENCE.sub("", text))
    return [match.group(1) for match in _LINK.finditer(text)]


def check() -> list[str]:
    errors: list[str] = []
    for md_file in _markdown_files():
        for target in link_targets(md_file.read_text()):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, anchor = target.partition("#")
            if path_part:
                resolved = (md_file.parent / path_part).resolve()
                if not resolved.exists():
                    errors.append(
                        f"{md_file.relative_to(REPO)}: broken link "
                        f"-> {target}"
                    )
                    continue
            else:
                resolved = md_file
            if anchor and resolved.suffix == ".md":
                if anchor not in _anchors(resolved):
                    errors.append(
                        f"{md_file.relative_to(REPO)}: missing anchor "
                        f"-> {target}"
                    )
    return errors


def main() -> int:
    errors = check()
    for error in errors:
        print(error, file=sys.stderr)
    checked = len(_markdown_files())
    if errors:
        print(f"{len(errors)} broken link(s) across {checked} files",
              file=sys.stderr)
        return 1
    print(f"all relative links OK across {checked} markdown files")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
