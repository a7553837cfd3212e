#!/usr/bin/env python
"""Generate docs/experiments.md from the experiment registry.

One section per row of ``repro.analysis.experiments.EXPERIMENTS``: id,
title, the paper sentence reproduced, the smoke-scale kwargs and the
named claims ``python -m repro run <ID>`` checks.  Measured numbers stay
in EXPERIMENTS.md; this index only says what is claimed and where.

Usage::

    python scripts/gen_experiment_docs.py           # (re)write the index
    python scripts/gen_experiment_docs.py --check   # exit 1 if it is stale
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
OUT = REPO / "docs" / "experiments.md"
sys.path.insert(0, str(REPO / "src"))

from repro.analysis.experiments import EXPERIMENTS  # noqa: E402

HEADER = """\
# Experiment index

Auto-generated from `repro.analysis.experiments.EXPERIMENTS` by
`scripts/gen_experiment_docs.py` — do not edit by hand.  Every row runs
with `python -m repro run <ID>` (full scale: the runner's defaults) or
`python -m repro run <ID> --scale ci` (the smoke scale below); the exit
status is 1 unless every claim listed here holds.  Measured numbers are
in [EXPERIMENTS.md](../EXPERIMENTS.md).
"""


def generate() -> str:
    sections = [HEADER]
    for row_id, row in EXPERIMENTS.items():
        smoke = ", ".join(f"{k}={v!r}" for k, v in row.ci.items())
        claims = "\n".join(
            f"- `{claim.name}` — {claim.paper}" for claim in row.claims
        )
        sections.append(
            f"## {row_id} — {row.title}\n\n"
            f"Reproduces: {row.paper}\n\n"
            f"Runner: `{row.run.__module__}.{row.run.__name__}` · "
            f"smoke scale: {f'`{smoke}`' if smoke else 'same as full'}\n\n"
            f"{claims}"
        )
    return "\n\n".join(sections) + "\n"


def write_or_check(out: Path, text: str, argv: list[str] | None,
                   description: str) -> int:
    """Write ``text`` to ``out``, or with ``--check`` exit 1 if ``out``
    does not already hold it."""
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
