"""Documentation freshness and coverage gates.

Four contracts keep the operator docs honest:

- every metric family and span name declared in ``repro.obs.names``
  (which ``tests/test_invariants.py`` holds equal to what the source
  tree emits) is documented in OBSERVABILITY.md (the catalog is the
  interface);
- docs/experiments.md matches what scripts/gen_experiment_docs.py
  emits from the registry today;
- every relative markdown link (and anchor) in the repo resolves;
- every documented ``python -m repro …`` command parses with the real
  CLI parser, so a deleted subcommand or flag cannot stay documented.
"""

from __future__ import annotations

import importlib.util
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.obs import names

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

# Matches obs.metrics.counter("name", ...) / gauge / histogram, with the
# name literal on the same or the next line.
_METRIC_CALL = re.compile(
    r"metrics\.(?:counter|gauge|histogram)\(\s*\n?\s*\"([a-z0-9_]+)\"",
)
# Matches tracer.span("name", ...) — and self._tracer-style aliases.
_SPAN_CALL = re.compile(r"\.span\(\s*\n?\s*\"([a-z0-9_.]+)\"")


class TestObservabilityCatalog:
    """OBSERVABILITY.md covers the declared names;
    ``tests/test_invariants.py`` holds those equal to the emitted ones."""

    def test_source_actually_emits_metrics(self):
        # Guard the derivation itself: an empty declared set would make
        # the two tests below pass vacuously.
        assert len(names.METRIC_NAMES) >= 15
        assert "serving_requests_total" in names.METRIC_NAMES
        assert "fleet_ticks_total" in names.METRIC_NAMES

    def test_every_emitted_metric_is_documented(self):
        doc = (REPO / "OBSERVABILITY.md").read_text()
        missing = sorted(
            name for name in names.METRIC_NAMES if f"`{name}`" not in doc
        )
        assert not missing, (
            f"metrics declared but missing from OBSERVABILITY.md: {missing}"
        )

    def test_every_emitted_span_is_documented(self):
        doc = (REPO / "OBSERVABILITY.md").read_text()
        spans = names.SPAN_NAMES
        assert "engine.trial" in spans and "storage.put" in spans
        missing = sorted(
            name for name in spans if f"`{name}`" not in doc
        )
        assert not missing, (
            f"spans declared but missing from OBSERVABILITY.md: {missing}"
        )


class TestScreeningGuide:
    """SCREENING.md stays in step with the fleetscreen subsystem."""

    def _doc(self) -> str:
        return (REPO / "SCREENING.md").read_text()

    def test_fleetscreen_metrics_and_spans_documented(self):
        doc = self._doc()
        source = (SRC / "detection" / "fleetscreen.py").read_text()
        emitted = set(_METRIC_CALL.findall(source)) | set(
            _SPAN_CALL.findall(source)
        )
        assert emitted  # regex guard: the module really instruments
        missing = sorted(
            name for name in emitted if f"`{name}`" not in doc
        )
        assert not missing, (
            f"fleetscreen names missing from SCREENING.md: {missing}"
        )

    def test_screening_event_kinds_documented(self):
        doc = self._doc()
        for kind in ("FLEETSCREEN_FAIL", "RIDEALONG_SKIPPED"):
            assert f"`{kind}`" in doc

    def test_corpus_taxonomy_and_workflow_covered(self):
        doc = self._doc()
        # the two corpus species, the distillation entry points, and
        # the budget knob must all be named
        for needle in ("isa:", "lib:", "distill", "full_battery",
                       "budget_fraction", "E19"):
            assert needle in doc, f"SCREENING.md does not mention {needle!r}"

    def test_screening_guide_linked_from_readme(self):
        assert "SCREENING.md" in (REPO / "README.md").read_text()


class TestGeneratedDocs:
    def test_experiment_index_fresh(self):
        proc = subprocess.run(
            [sys.executable, "scripts/gen_experiment_docs.py", "--check"],
            cwd=REPO, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_markdown_links_resolve(self):
        proc = subprocess.run(
            [sys.executable, "scripts/check_docs.py"],
            cwd=REPO, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_code_is_not_a_link_and_a_link_to_code_is(self):
        spec = importlib.util.spec_from_file_location(
            "check_docs", REPO / "scripts" / "check_docs.py")
        check_docs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(check_docs)
        text = (
            "`GOLDEN[op](*operands)` [gone](missing.md) [`x`](DESIGN.md#y)\n"
            "```\n[fenced](nowhere.md)\n```\n"
        )
        assert check_docs.link_targets(text) == ["missing.md", "DESIGN.md#y"]

    def test_observability_linked_from_readme(self):
        assert "OBSERVABILITY.md" in (REPO / "README.md").read_text()


#: a command line as written in a doc: optional ``VAR=value`` prefixes,
#: then ``python -m repro`` and its arguments, then an optional comment
_REPRO_COMMAND = re.compile(
    r"^\s*(?:[A-Z_]+=\S+\s+)*python -m repro\b(?P<args>[^#]*)"
)
_COMMAND_DOCS = (
    "README.md", "CONTRIBUTING.md", "DESIGN.md", "EXPERIMENTS.md",
    "OBSERVABILITY.md", "SCREENING.md", "src/repro/cli.py",
)


def _documented_commands() -> list[tuple[str, str]]:
    found = set()
    for doc in _COMMAND_DOCS:
        for line in (REPO / doc).read_text().splitlines():
            match = _REPRO_COMMAND.match(line)
            if match:
                found.add((doc, match["args"].strip()))
    return sorted(found)


class TestDocumentedCommands:
    def test_readme_and_cli_docstring_document_commands(self):
        docs = {doc for doc, _ in _documented_commands()}
        assert {"README.md", "src/repro/cli.py"} <= docs

    @pytest.mark.parametrize("doc, args", _documented_commands())
    def test_command_parses(self, doc, args):
        try:
            cli.build_parser().parse_args(shlex.split(args))
        except SystemExit as exit_:
            pytest.fail(f"{doc}: `python -m repro {args}` does not parse "
                        f"(exit {exit_.code})")
