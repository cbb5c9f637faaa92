"""Every benchmark workload's CLI output matches the golden corpus.

tests/golden_corpus.py holds the invocations and the digests; regenerate
the map there when a change moves output on purpose.
"""

import re

import pytest

import golden_corpus


def test_workload_outputs_match_the_golden_corpus():
    stored = golden_corpus.load()
    # 11 operations and 4 sweeps x 5 seeds x 2 formats, table1 and sweep --axis N
    assert len(stored["digests"]) == 154
    assert golden_corpus.mismatches(stored, golden_corpus.compute()) == []


def test_one_changed_digit_fails_the_corpus():
    key = "mc-narrow/fixed-time/seed3/json"

    def one_digit_off(argv):
        code, out, err = golden_corpus.capture(argv)
        # the output's last digit, one up (9 -> 0)
        m = list(re.finditer(r"\d", out))[-1]
        digit = str((int(m.group()) + 1) % 10)
        return code, out[:m.start()] + digit + out[m.end():], err

    stored = golden_corpus.load()
    one = dict(stored, digests={key: stored["digests"][key]})
    assert golden_corpus.mismatches(one, golden_corpus.compute({key})) == []
    assert golden_corpus.mismatches(
        one, golden_corpus.compute({key}, run=one_digit_off)) == [key]


def test_another_numpy_version_fails_with_its_name():
    stored = golden_corpus.load()
    other = dict(stored, numpy="0.0.0")
    with pytest.raises(ValueError, match="made with numpy 0.0.0"):
        golden_corpus.mismatches(other, stored)
