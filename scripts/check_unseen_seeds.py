#!/usr/bin/env python
"""Fast paths against the per-op reference path, at seeds nobody chose.

Every row of ``repro.analysis.experiments.EXPERIMENTS`` whose runner
takes ``seed`` runs at ``ci`` scale twice per drawn seed: once with the
kernels and credits on (``golden_cache(True)``) and once on the per-op
reference path (``golden_cache(False)``).  The two digests of the whole
result (its one JSON form, ``rendered`` included) must be equal; the
pinned digests only hold one seed per row, so a fast path exact at that
seed alone passes every other test.  The switch also selects the fleet
simulator's every-tick form, so F1, E1 and the other fleet rows hold
the lazy fleet tick (wake ticks, lazy ages, scalar channel draws)
against it here.

The seeds are drawn from ``GITHUB_RUN_ID`` (a fresh random draw when it
is unset) and printed first, so a failure replays with ``--seeds``.

Usage::

    python scripts/check_unseen_seeds.py              # K = 2 drawn seeds
    python scripts/check_unseen_seeds.py --seeds 101 202 --rows E5 A3

Exit status 1 names every row and seed whose two digests differ, or
whose run raised.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import secrets
import sys
import time
import traceback
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.analysis.experiments import EXPERIMENTS, result_json  # noqa: E402
from repro.silicon.golden import golden_cache  # noqa: E402

#: seeds drawn per run
K = 2
#: drawn seeds lie in [1, SEED_RANGE)
SEED_RANGE = 100_000


def draw_seeds(run_id: int, k: int = K) -> list[int]:
    """``k`` distinct row seeds, a pure function of ``run_id``."""
    rng = np.random.default_rng(run_id)
    return sorted(
        int(s) for s in rng.choice(np.arange(1, SEED_RANGE), k, replace=False)
    )


def seeded_rows() -> list[str]:
    """Registry rows whose runner takes a ``seed``, in registry order."""
    return [
        row_id for row_id, row in EXPERIMENTS.items()
        if "seed" in inspect.signature(row.run).parameters
    ]


def result_digest(row_id: str, seed: int, kernels: bool) -> str:
    """sha256 of one ``ci``-scale run's whole result as JSON, or what it
    raised."""
    row = EXPERIMENTS[row_id]
    try:
        with golden_cache(kernels):
            result = row.run(**{**row.ci, "seed": seed})
    except Exception as exc:  # a raise is a finding: report it, run on
        traceback.print_exc()
        return f"raised {type(exc).__name__}: {exc}"
    return hashlib.sha256(
        json.dumps(result_json(result), sort_keys=True).encode()
    ).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+",
                        help="replay these seeds instead of drawing them")
    parser.add_argument("--rows", nargs="+", help="only these row ids")
    args = parser.parse_args(argv)

    if args.seeds:
        seeds, source = sorted(args.seeds), "--seeds"
    else:
        run_id = os.environ.get("GITHUB_RUN_ID")
        source = f"GITHUB_RUN_ID={run_id}"
        if run_id is None:
            run_id = str(secrets.randbits(32))
            source = f"no GITHUB_RUN_ID; drew run id {run_id}"
        seeds = draw_seeds(int(run_id))
    print(f"seeds: {' '.join(map(str, seeds))} ({source})", flush=True)

    rows = seeded_rows()
    if args.rows:
        unknown = sorted(set(args.rows) - set(rows))
        if unknown:
            parser.error(f"not a seeded row: {', '.join(unknown)}")
        rows = [row_id for row_id in rows if row_id in args.rows]

    failures = []
    for row_id in rows:
        for seed in seeds:
            start, n_failed = time.perf_counter(), len(failures)
            kernels = result_digest(row_id, seed, True)
            reference = result_digest(row_id, seed, False)
            if kernels != reference:
                failures.append(
                    f"{row_id} seed {seed}: kernels {kernels} "
                    f"!= reference {reference}"
                )
            elif kernels.startswith("raised"):
                failures.append(f"{row_id} seed {seed}: {kernels}")
            print(
                f"{'FAIL' if len(failures) > n_failed else 'ok  '} {row_id} "
                f"seed {seed}: {kernels[:16]}  "
                f"[{time.perf_counter() - start:.1f}s]",
                flush=True,
            )
    if failures:
        print("\n".join(["", "failed:"] + failures))
        return 1
    print(f"{len(rows)} rows x {len(seeds)} seeds: kernels == reference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
