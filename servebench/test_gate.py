"""The benchmark's correctness gate: it passes on the program's answers
and fails as soon as one reference answer is perturbed."""

from __future__ import annotations

import pytest

from servebench import gate, workloads
from servebench.run import execute


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)


def test_gate_passes_on_delivered_answers(tmp_path):
    run, _ = execute("cold-ttf", seed=3, seconds=0.3, traced=False, workdir=str(tmp_path))
    assert run.answers > 0
    assert run.failed == 0 and run.wrong_answers == 0


def test_gate_fails_when_a_reference_answer_is_perturbed(tmp_path, monkeypatch):
    reference = gate.reference

    def perturbed_reference(prepared, k):
        expected = reference(prepared, k)
        if expected:
            weight, output = expected[len(expected) // 2]
            wrong = (not weight) if isinstance(weight, bool) else weight + 1.0
            expected[len(expected) // 2] = (wrong, output)
        return expected

    monkeypatch.setattr(gate, "reference", perturbed_reference)
    run, _ = execute("cold-ttf", seed=3, seconds=0.3, traced=False, workdir=str(tmp_path))
    assert run.answers > 0
    assert run.failed > 0 and run.wrong_answers > 0


def test_short_or_long_pages_are_mismatches():
    head = ("x",)
    expected = [(1.0, (1,)), (2.0, (2,)), (3.0, (3,))]
    rows = [{"weight": 1.0, "assignment": {"x": 1}}]
    assert gate.mismatches(rows, head, expected, 0, 1) == 0
    assert gate.mismatches(rows, head, expected, 0, 2) == 1
    assert gate.mismatches(rows, head, expected, 1, 1) == 1
    assert gate.mismatches(rows + rows, head, expected, 2, 5) == 2
