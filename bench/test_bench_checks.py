"""Tests of the benchmark's output checks.

The reference polynomials here come from a brute force over permutations
written in this file, so neither the checks nor these tests lean on the
program's own output.
"""

from __future__ import annotations

import json
import sys
from itertools import permutations
from math import factorial, prod
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import checks  # noqa: E402

SHAPES = [(1, 1), (2, 2), (1, 1, 1), (1, 2, 3), (2, 3), (3, 3), (1, 1, 1, 1, 1), (2, 2, 2), (4, 3)]


def brute(shape) -> list[int]:
    """Sum of a^cycles over the derangements of the shape, by enumeration."""
    block = [b for b, k in enumerate(shape) for _ in range(k)]
    counts = [0] * (len(block) + 1)
    for perm in permutations(range(len(block))):
        if any(block[i] == block[v] for i, v in enumerate(perm)):
            continue
        seen, cycles = set(), 0
        for start in range(len(perm)):
            if start not in seen:
                cycles += 1
                v = start
                while v not in seen:
                    seen.add(v)
                    v = perm[v]
        counts[cycles] += 1
    while counts and counts[-1] == 0:
        counts.pop()
    return counts


def altered(coeffs: list[int]):
    """Every copy of coeffs with one coefficient moved by +1 or -1."""
    for i in range(len(coeffs)):
        for delta in (1, -1):
            out = list(coeffs)
            out[i] += delta
            yield out


def test_counts_reproduce_the_derangement_numbers():
    expected = [1, 0, 1, 2, 9, 44, 265]
    assert [checks.rook_count([1] * n) for n in range(7)] == expected
    assert checks.derangement_numbers(6) == expected
    assert [r for r, _ in checks.equal_block_counts(1, 6)] == expected


def test_counts_reproduce_the_deck():
    assert len(str(checks.DECK_IDENTIFIED)) == 49
    assert checks.rook_count([4] * 13) == checks.DECK_IDENTIFIED * 24**13
    assert checks.identified_problems([4] * 13, checks.DECK_IDENTIFIED) == []
    assert checks.identified_problems([4] * 13, checks.DECK_IDENTIFIED + 1)


@pytest.mark.parametrize("shape", SHAPES)
def test_counts_match_brute_force(shape):
    poly = brute(shape)
    assert checks.rook_count(shape) == sum(poly)
    total = sum(shape)
    if total % 2 == 0:
        assert checks.matching_count(shape) == (poly[total // 2] if total // 2 < len(poly) else 0)
    assert checks.wder_problems(shape, poly) == []


@pytest.mark.parametrize("shape", SHAPES)
def test_wder_check_rejects_one_altered_coefficient(shape):
    for bad in altered(brute(shape)):
        assert checks.wder_problems(shape, bad), bad


def test_wder_check_rejects_broken_invariants():
    # same a=1 value, but a coefficient moved between powers of a
    assert checks.wder_problems((2, 2), [1, 1, 2])  # constant term
    assert checks.wder_problems((2, 2), [0, 3, 1])  # matching count
    assert checks.wder_problems((2, 2), [0, 2, 1, 1])  # degree
    assert checks.wder_problems((2, 2), [0, 5, -1])  # sign


@pytest.mark.parametrize("shape", [(2, 2), (1, 2, 3), (3, 3)])
def test_identified_and_alpha_checks_reject_altered_values(shape):
    poly = brute(shape)
    ident = sum(poly) // prod(factorial(k) for k in shape)
    assert checks.identified_problems(shape, ident) == []
    assert checks.identified_problems(shape, ident + 1)
    for alpha in (1, 2, 3):
        value = sum(c * alpha**m for m, c in enumerate(poly))
        assert checks.alpha_problems(shape, alpha, value, poly) == []
        assert checks.alpha_problems(shape, alpha, value + 1, poly)
    for bad in altered(poly):
        assert checks.alpha_problems(shape, 1, sum(bad))


@pytest.mark.parametrize("k, last", [(1, 7), (2, 4)])
def test_sequence_check_rejects_one_altered_coefficient(k, last):
    values = [brute((k,) * n) for n in range(1, last + 1)]
    assert checks.sequence_problems(k, 1, values) == []
    for i, poly in enumerate(values):
        for bad in altered(poly):
            assert checks.sequence_problems(k, 1, values[:i] + [bad] + values[i + 1:])


@pytest.mark.parametrize("k", [1, 2])
def test_operator_closed_form_is_the_shipped_operator(k):
    from multiderange.recurrence import builtin_operator, operator_to_record

    record = operator_to_record(builtin_operator(k))
    assert checks.operator_from_record(record) == checks.expected_operator(k)
    record["valid_from"] = 1
    assert checks.operator_problems(k, record, 1, 90) == []


@pytest.mark.parametrize("k", [1, 2])
def test_operator_checks_reject_one_altered_coefficient(k):
    ops = checks.expected_operator(k)
    assert checks.annihilation_problems(ops, k, 0, 90) == []
    for j, coeff in enumerate(ops):
        for key in coeff:
            bad = [dict(c) for c in ops]
            bad[j][key] += 1
            assert checks.annihilation_problems(bad, k, 1, 90), (j, key)
            record = {"order": len(bad) - 1, "valid_from": 1,
                      "coeffs": [[[p, q, str(c)] for (p, q), c in sorted(b.items())]
                                 for b in bad]}
            assert len(checks.operator_problems(k, record, 1, 90)) == 2


def test_harness_flags_a_corrupted_output(tmp_path):
    """A command whose printed polynomial is wrong makes the run incorrect."""
    import run

    def fake_main(argv):
        coeffs = [str(c) for c in brute((3, 3))]
        coeffs[1] = str(int(coeffs[1]) + 1)
        print(json.dumps({"command": "wder", "inputs": {}, "timing_ms": 1.0,
                          "result": {"variable": "a", "coeffs": coeffs}}, indent=2))
        return 0

    runner = run.Runner(SimpleNamespace(main=fake_main), tmp_path)
    _, ok = runner.run(0, run.Cmd("wder", ["wder", "3,3"], {"shape": [3, 3]}))
    assert ok, runner.failures
    oracle = SimpleNamespace(enumerate_derangements=lambda s: SimpleNamespace(
        coeffs=tuple(brute(s))))
    problems = run.check_outputs(runner, oracle)
    assert any("differs from the brute-force oracle" in p for p in problems)
    assert any("rook" in p for p in problems)


def test_harness_counts_a_failed_command(tmp_path):
    import run

    def failing_main(argv):
        print("error: boom", file=sys.stderr)
        return 2

    runner = run.Runner(SimpleNamespace(main=failing_main), tmp_path)
    _, ok = runner.run(0, run.Cmd("wder", ["wder", "2,3"], {"shape": [2, 3]}))
    assert not ok and runner.failures
