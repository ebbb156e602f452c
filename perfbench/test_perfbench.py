"""Checks of the benchmark's own output checking.

    python3 -m pytest perfbench/test_perfbench.py -q

Run from the repository root (the end-to-end case runs a short
``salarydb-serve`` measurement, about 20 s).
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def _episode(digests, error_at=None):
    return {"ops": [
        {"digest": d, "error": "VMRuntimeError: boom" if i == error_at
         else None}
        for i, d in enumerate(digests)
    ]}


def test_matching_outputs_count_no_failure():
    ref = {"digests": ["a", "b"]}
    assert run.count_failures(_episode(["a", "b", "a", "b"]), ref) == 0


def test_corrupted_digest_counts_every_mismatch():
    ref = {"digests": ["a", "CORRUPT"]}
    assert run.count_failures(_episode(["a", "b", "a", "b"]), ref) == 2


def test_exception_counts_as_failure():
    ref = {"digests": ["a"]}
    assert run.count_failures(_episode(["a", None, "a"], error_at=1),
                              ref) == 1


def test_corrupted_reference_is_reported_not_raised(monkeypatch, capsys):
    """A wrong reference digest makes every operation a failure; the run
    still completes and prints its result line."""
    real = run.load_references

    def corrupted():
        refs = real()
        rec = refs.get(run.reference_key("salarydb-serve", 1))
        assert rec is not None, "committed salarydb-serve reference missing"
        return {run.reference_key("salarydb-serve", 1):
                dict(rec, digests=["0" * 16])}

    monkeypatch.setattr(run, "load_references", corrupted)
    code = run.main(["--workload", "salarydb-serve", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] >= 3 * 101
    assert result["failed"] == result["attempted"]
    assert set(result["metrics"]) == {
        m["name"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]
    }
