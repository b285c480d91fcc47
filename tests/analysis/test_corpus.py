"""The known-bug corpus gate: eleven wrong snippets, all caught.

Acceptance criterion for the flow engine: analyzing each corpus snippet
yields **exactly** the finding set its ``# expect`` markers declare —
every planted bug found, no extra noise on the surrounding code.
"""

from __future__ import annotations

import pytest

from repro.analysis import flow_paths

from tests.analysis.conftest import CORPUS, expected_findings

SNIPPETS = [
    "bad_rc_sum.py",
    "bad_tau_division.py",
    "bad_resonance_args.py",
    "bad_droop_ratio.py",
    "bad_campaign_seed.py",
    "bad_campaign_payload.py",
    "bad_result_timestamp.py",
    "bad_worker_rng_result.py",
    "bad_set_reduction.py",
    "bad_completion_order.py",
    "bad_env_cache_key.py",
]


def test_corpus_is_complete():
    found = {path.name for path in CORPUS.glob("*.py")}
    assert found == set(SNIPPETS)


@pytest.mark.parametrize("snippet", SNIPPETS)
def test_snippet_yields_exactly_the_expected_findings(snippet):
    expected = expected_findings(CORPUS / snippet)
    assert expected, f"{snippet} declares no expectations"
    actual = {(f.code, f.line) for f in flow_paths([str(CORPUS / snippet)])}
    assert actual == expected


def test_whole_corpus_as_one_project():
    """Co-analyzing all snippets neither loses nor invents findings."""
    expected = set()
    for snippet in SNIPPETS:
        expected |= {
            (str(CORPUS / snippet), code, line)
            for code, line in expected_findings(CORPUS / snippet)
        }
    actual = {
        (f.path, f.code, f.line) for f in flow_paths([str(CORPUS)])
    }
    assert actual == expected


@pytest.mark.parametrize("snippet", SNIPPETS)
def test_every_snippet_documents_its_bug(snippet):
    text = (CORPUS / snippet).read_text(encoding="utf-8")
    assert text.startswith('"""Known bug:'), snippet
