import json
import os
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import pytest

from multiderange import cli, enumerator, guesser, laguerre, polys, recurrence
from multiderange import selftest as selftest_mod
from multiderange.cli import parse_shape
from multiderange.polys import AlphaPoly
from multiderange.recurrence import builtin_operator, operator_to_record, save_operator


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_machine(capsys, *argv):
    rc, out, err = run_cli(capsys, *argv, "--format", "machine")
    return rc, (json.loads(out) if out.strip() else None), err


def test_parse_shape():
    assert parse_shape("1,1") == (1, 1)
    assert parse_shape("4^13") == (4,) * 13
    assert parse_shape("2,3^2,1") == (2, 3, 3, 1)
    assert parse_shape("0") == (0,)
    # only ASCII digits, as in the records' integers
    for bad in ("", "1,", "a", "2^", "-1", "1^2^3", "\u0664^\u0661\u0663", "\uff12,\uff12"):
        with pytest.raises(ValueError, match="bad shape component"):
            parse_shape(bad)


@pytest.mark.parametrize("text", ["4^1000000000", "0^1000000000", "1^10001", "5000,5001"])
def test_parse_shape_budget_fails_before_allocating(text):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="too large"):
            parse_shape(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_parse_shape_budget_boundary():
    limit = enumerator.MAX_GROUND_SET
    assert parse_shape(f"1^{limit}") == (1,) * limit
    assert parse_shape("0,5000,5000") == (0, 5000, 5000)


@pytest.mark.parametrize("text", [
    "1^10000", "1^10001", "0^10000", "0^10001", "5000,5000", "5000,5001",
    "0,5000,5000", "10000", "10001", "0^9999,10000", "0^9999,1,1", "2^5000", "2^5001",
])
def test_parse_shape_refuses_what_the_library_refuses(text):
    # one budget rule: the parser refuses a text, before expanding it,
    # exactly when normalize_shape refuses the expanded shape
    shape = []
    for part in text.split(","):
        k, _, reps = part.partition("^")
        shape += [int(k)] * int(reps or 1)
    try:
        enumerator.normalize_shape(shape)
    except ValueError as exc:
        with pytest.raises(ValueError) as parsed:
            parse_shape(text)
        assert str(parsed.value) == str(exc) == enumerator.SHAPE_TOO_LARGE
    else:
        assert parse_shape(text) == tuple(shape)


def test_oversized_shape_exit_code(capsys):
    rc, out, err = run_cli(capsys, "wder", "4^1000000000")
    assert rc == 2
    assert out == ""
    assert "shape too large" in err


def test_wder_machine_envelope(capsys):
    rc, env, _ = run_machine(capsys, "wder", "1,1")
    assert rc == 0
    assert env["command"] == "wder"
    assert env["inputs"] == {"shape": [1, 1], "alpha": None, "identified": False}
    assert env["result"] == {"variable": "a", "coeffs": ["0", "1"]}
    assert isinstance(env["timing_ms"], float)


def test_wder_zero_polynomial(capsys):
    rc, env, _ = run_machine(capsys, "wder", "2")
    assert rc == 0
    assert env["result"] == {"variable": "a", "coeffs": []}


def test_wder_alpha_evaluation(capsys):
    rc, env, _ = run_machine(capsys, "wder", "1,1,1,1", "--alpha", "1")
    assert rc == 0
    assert env["result"] == "9"


def test_wder_identified_requires_alpha_one(capsys):
    rc, _, err = run_cli(capsys, "wder", "2,2", "--identified", "--alpha", "2")
    assert rc == 2
    assert "identified" in err


def test_count_identified(capsys):
    rc, env, _ = run_machine(capsys, "count", "2,2,2", "--identified")
    assert rc == 0
    assert env["result"] == "10"


def test_wder_deck_identified(capsys):
    rc, env, _ = run_machine(capsys, "wder", "4^13", "--alpha", "1", "--identified")
    assert rc == 0
    assert env["result"] == "1493804444499093354916284290188948031229880469556"


@pytest.fixture
def enumerator_calls(monkeypatch):
    """Calls to the enumerator's polynomial and one-value functions, from
    the CLI or from inside the enumerator."""
    calls = {"weighted_derangement_poly": 0, "weighted_derangement_value": 0}
    for name in calls:
        real = getattr(enumerator, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(enumerator, name, counted)
        monkeypatch.setattr(cli, name, counted)
    return calls


@pytest.mark.parametrize(
    "argv, values",
    [
        (("wder", "4^13", "--identified"), 1),
        (("wder", "2,2", "--identified", "--alpha", "2"), 0),
    ],
)
def test_wder_identified_computes_the_enumerator_once(capsys, enumerator_calls, argv, values):
    # one value at a = 1, from one product: the polynomial is never built
    run_cli(capsys, *argv)
    assert enumerator_calls == {"weighted_derangement_poly": 0,
                                "weighted_derangement_value": values}


@pytest.mark.parametrize("argv, polys", [
    (("count", "4^13"), 0),
    (("count", "2,3,3", "--identified"), 0),
    (("wder", "4^13", "--alpha", "3"), 0),
    (("wder", "5,5", "--alpha", str(-(2**64 - 1))), 0),
    (("wder", "5,5", "--alpha", str(2**64)), 1),
])
def test_counts_and_alpha_values_take_one_product(capsys, enumerator_calls, argv, polys):
    # past 64-bit a the value is the polynomial's, built once
    run_cli(capsys, *argv)
    assert enumerator_calls == {"weighted_derangement_poly": polys,
                                "weighted_derangement_value": 1}


def test_bad_shape_exit_code(capsys):
    rc, _, err = run_cli(capsys, "wder", "2,x")
    assert rc == 2
    assert "bad shape" in err


def test_seq_values(capsys):
    rc, env, _ = run_machine(capsys, "seq", "1", "4")
    assert rc == 0
    assert env["inputs"]["engine"] == "recurrence"
    values = env["result"]["values"]
    assert values == [
        {"variable": "a", "coeffs": []},
        {"variable": "a", "coeffs": ["0", "1"]},
        {"variable": "a", "coeffs": ["0", "2"]},
        {"variable": "a", "coeffs": ["0", "6", "3"]},
    ]


def test_seq_k2_values(capsys):
    rc, env, _ = run_machine(capsys, "seq", "2", "3")
    assert rc == 0
    assert env["result"]["values"] == [
        {"variable": "a", "coeffs": []},
        {"variable": "a", "coeffs": ["0", "2", "2"]},
        {"variable": "a", "coeffs": ["0", "32", "40", "8"]},
    ]


@pytest.mark.parametrize("k", [1, 2])
def test_seq_engine_agreement(capsys, k):
    rc1, env1, _ = run_machine(capsys, "seq", str(k), "10", "--engine", "recurrence")
    rc2, env2, _ = run_machine(capsys, "seq", str(k), "10", "--engine", "direct")
    assert rc1 == rc2 == 0
    assert json.dumps(env1["result"]) == json.dumps(env2["result"])


@pytest.mark.parametrize("k, count", [(2, 1), (2, 2)])
def test_seq_count_within_the_seed(capsys, k, count):
    rc1, env1, _ = run_machine(capsys, "seq", str(k), str(count))
    rc2, env2, _ = run_machine(capsys, "seq", str(k), str(count), "--engine", "direct")
    assert rc1 == rc2 == 0
    assert env1["inputs"]["engine"] == "recurrence"
    assert env1["result"] == env2["result"]
    assert len(env1["result"]["values"]) == count


def test_seq_recurrence_unsupported_k(capsys):
    rc, _, err = run_cli(capsys, "seq", "3", "4", "--engine", "recurrence")
    assert rc == 2
    assert err == "error: k=3 has no built-in operator; supply --operator FILE\n"


@pytest.mark.parametrize(
    "argv",
    [("seq", "1" + "0" * 300, "1"), ("guess", "-k", "1" + "0" * 300, "--terms", "3")],
    ids=["seq", "guess"],
)
def test_block_size_past_the_budget_is_a_usage_error(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err == f"error: {enumerator.SHAPE_TOO_LARGE}\n"


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (("seq", "1000000", "1"), 2, "shape too large"),
        # F_k(0) = 1 needs no Laguerre factor, so a huge k is harmless there
        (("guess", "-k", "1" + "0" * 300, "--terms", "1"), 1, "no operator found"),
        (("guess", "-k", "1", "--terms", "10", "--max-deg-n", "100000",
          "--max-deg-a", "100000"), 2, "guess system too large"),
    ],
    ids=["seq", "guess-one-term", "guess-system"],
)
def test_block_size_budget_fails_before_allocating(capsys, argv, code, message):
    tracemalloc.start()
    try:
        rc, out, err = run_cli(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == code
    assert message in out + err
    assert peak < 1_000_000


@pytest.mark.parametrize("argv", [
    ("seq", "1", "10001"), ("seq", "2", "5001"), ("seq", "3", "3334"),
    ("seq", "1", "10001", "--operator", "K1"),
], ids=["recurrence-k1", "recurrence-k2", "direct", "operator-file"])
def test_seq_holds_every_engine_to_the_budget(capsys, tmp_path, argv):
    # one rule on every engine: k times the last index may not exceed
    # MAX_GROUND_SET; the recurrence engines used to run on for seconds
    out_file = tmp_path / "s.json"
    argv = [_K1 if a == "K1" else a for a in argv]
    t0 = time.perf_counter()
    rc, out, err = run_cli(capsys, *argv, "--out", str(out_file))
    assert time.perf_counter() - t0 < 1.0
    assert (rc, out) == (2, "")
    assert err == f"error: {enumerator.SHAPE_TOO_LARGE}\n"
    assert not out_file.exists()


def test_missing_operator_directory_is_an_error(capsys, monkeypatch, tmp_path):
    missing = tmp_path / "operators"
    monkeypatch.setattr(recurrence, "_OPERATORS", missing)
    builtin_operator.cache_clear()
    try:
        for k in ("2", "3"):
            rc, out, err = run_cli(capsys, "seq", k, "5")
            assert (rc, out) == (2, "")
            assert err.startswith("error: ") and str(missing) in err
    finally:
        monkeypatch.undo()
        builtin_operator.cache_clear()
    for k, engine in (("2", "recurrence"), ("3", "direct")):
        rc, env, _ = run_machine(capsys, "seq", k, "5")
        assert rc == 0
        assert env["inputs"]["engine"] == engine


def test_seq_direct_engine_for_large_k(capsys):
    rc, env, _ = run_machine(capsys, "seq", "3", "3")
    assert rc == 0
    assert env["inputs"]["engine"] == "direct"


def test_seq_one_huge_block(capsys):
    rc, env, _ = run_machine(capsys, "seq", "5000", "1")
    assert rc == 0
    assert env["result"]["values"] == [{"variable": "a", "coeffs": []}]


def test_commands_form_no_bivariate_product(capsys, monkeypatch):
    # the Laguerre product over Z[a] and the moment functional are the tests'
    # reference; every command takes its enumerators from the interpolation
    def refuse(*args):
        raise AssertionError("bivariate product formed")

    assert enumerator.moment_functional is laguerre.moment_functional
    monkeypatch.setattr(laguerre, "_mul", refuse)
    monkeypatch.setattr(laguerre, "moment_functional", refuse)
    monkeypatch.setattr(enumerator, "moment_functional", refuse)
    for argv in (("wder", "4^13"), ("seq", "3", "8"), ("seq", "2", "10", "--engine", "direct"),
                 ("seq", "1", "10"), ("guess", "-k", "1", "--terms", "12"),
                 ("verify", "--operator", _K2, "-k", "2", "--terms", "12")):
        assert run_cli(capsys, *argv)[0] == 0, argv


def test_seq_refuses_an_operator_with_the_direct_engine(capsys, tmp_path):
    # refused before the operator file is read
    missing = str(tmp_path / "missing.json")
    for op in (missing, _K1):
        rc, out, err = run_cli(capsys, "seq", "1", "8", "--engine", "direct", "--operator", op)
        assert (rc, out) == (2, "")
        assert err == "error: --engine direct cannot be combined with --operator\n"


@pytest.mark.parametrize("command", ["guess", "verify"])
@pytest.mark.parametrize("extra", [("-k", "3"), ("--terms", "4"), ("-k", "3", "--terms", "4")])
def test_sequence_file_refuses_k_and_terms(capsys, tmp_path, command, extra):
    # refused before the sequence file is read; it used to ignore -k and --terms
    seq_path = tmp_path / "s2.json"
    assert run_cli(capsys, "seq", "2", "12", "--out", str(seq_path))[0] == 0
    op = ("--operator", _K2) if command == "verify" else ()
    for path in (seq_path, tmp_path / "missing.json"):
        rc, out, err = run_cli(capsys, command, *op, "--file", str(path), *extra)
        assert (rc, out) == (2, "")
        assert err == "error: --file cannot be combined with -k or --terms\n"


def test_seq_with_operator_file(capsys, tmp_path):
    path = tmp_path / "op1.json"
    save_operator(builtin_operator(1), path)
    rc1, env1, _ = run_machine(capsys, "seq", "1", "8", "--operator", str(path))
    rc2, env2, _ = run_machine(capsys, "seq", "1", "8")
    assert rc1 == rc2 == 0
    assert env1["inputs"]["engine"] == "operator-file"
    assert env1["result"] == env2["result"]


SHIPPED = Path(recurrence.__file__).with_name("operators")


@pytest.mark.parametrize("k, bounds", [
    (1, ("--terms", "15", "--max-order", "2", "--max-deg-n", "1", "--max-deg-a", "1")),
    (2, ("--terms", "25")),
])
def test_shipped_operator_files_are_what_guess_writes(capsys, tmp_path, k, bounds):
    out = tmp_path / "op.json"
    rc, _, _ = run_machine(capsys, "guess", "-k", str(k), *bounds, "--out", str(out))
    assert rc == 0
    assert out.read_bytes() == (SHIPPED / f"k{k}.json").read_bytes()


@pytest.mark.parametrize("k", [1, 2])
def test_seq_with_shipped_operator_file(capsys, k):
    rc1, env1, _ = run_machine(capsys, "seq", str(k), "40",
                               "--operator", str(SHIPPED / f"k{k}.json"))
    rc2, env2, _ = run_machine(capsys, "seq", str(k), "40")
    assert rc1 == rc2 == 0
    assert (env1["inputs"].pop("engine"), env2["inputs"].pop("engine")) == (
        "operator-file", "recurrence")
    del env1["timing_ms"], env2["timing_ms"]
    assert env1 == env2


def test_seq_checks_an_operator_file_before_extending(capsys, tmp_path):
    """Every -1 or +2 edit of one monomial of c_0 or c_1 in k1.json keeps
    the leading coefficient 1, so every step divides exactly and the edited
    operator would extend F_1 with wrong values; seq refuses it on the direct
    terms first, with exit 1 and no --out file."""
    shipped = json.loads((SHIPPED / "k1.json").read_text())
    out = tmp_path / "s.json"
    for j in (0, 1):
        for i, (_, _, c) in enumerate(shipped["coeffs"][j]):
            for delta in (-1, 2):
                edited = json.loads(json.dumps(shipped))
                edited["coeffs"][j][i][2] = str(int(c) + delta)
                path = tmp_path / "k1-edited.json"
                path.write_text(json.dumps(edited))
                rc, stdout, err = run_cli(capsys, "seq", "1", "30", "--operator", str(path),
                                          "--out", str(out))
                assert (rc, stdout) == (1, "")
                assert err.startswith("error: the operator does not annihilate F_1 at n=")
                assert err.endswith(", checked on F_1(0..7)\n")
                assert not out.exists()


def test_operator_file_is_checked_only_when_it_takes_a_step(capsys, tmp_path):
    # k1.json is wrong for F_2: F_2(0..1) is its seed, so seq 2 1 takes no
    # step and prints direct values, while seq 2 2 would extend
    path = tmp_path / "op.json"
    save_operator(builtin_operator(1), path)
    rc, out, err = run_cli(capsys, "seq", "2", "1", "--operator", str(path))
    assert (rc, out.splitlines()[0], err) == (0, "F_2(1) = 0", "")
    rc, out, err = run_cli(capsys, "seq", "2", "2", "--operator", str(path))
    assert (rc, out) == (1, "")
    assert err == ("error: the operator does not annihilate F_2 at n=0, "
                   "checked on F_2(0..2)\n")


@pytest.mark.parametrize("k, terms", [(1, 20), (2, 30)])
def test_seq_guess_seq_pipeline_round_trip(capsys, tmp_path, k, terms):
    seq_path, op_path = tmp_path / "s.json", tmp_path / "op.json"
    rc, _, _ = run_machine(capsys, "seq", str(k), str(terms), "--out", str(seq_path))
    assert rc == 0
    rc, _, _ = run_machine(capsys, "guess", "--file", str(seq_path), "--out", str(op_path))
    assert rc == 0
    assert json.loads(op_path.read_text())["valid_from"] == 1  # the file starts at n=1
    rc1, env1, err = run_machine(capsys, "seq", str(k), "60", "--operator", str(op_path))
    rc2, env2, _ = run_machine(capsys, "seq", str(k), "60")
    assert rc1 == rc2 == 0, err
    assert env1["result"] == env2["result"]


@contextmanager
def int_digit_limit(digits):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit"
)


@needs_digit_limit
def test_seq_prints_values_past_the_digit_limit(capsys):
    with int_digit_limit(640):
        rc, env, err = run_machine(capsys, "seq", "1", "330", "--alpha", "1")
    assert rc == 0, err
    d = 1  # D_n = n D_{n-1} + (-1)^n
    for n in range(1, 331):
        d = n * d + (-1) ** n
    assert env["result"]["values"][-1] == str(d)
    assert len(str(d)) > 640


@needs_digit_limit
def test_records_past_the_digit_limit_round_trip(capsys, tmp_path):
    seq_path, op_path = tmp_path / "s.json", tmp_path / "op1.json"
    save_operator(builtin_operator(1), op_path)
    with int_digit_limit(640):
        rc1, _, err1 = run_machine(capsys, "seq", "1", "330", "--out", str(seq_path))
        rc2, env, err2 = run_machine(
            capsys, "verify", "--operator", str(op_path), "--file", str(seq_path)
        )
    assert rc1 == 0, err1
    assert rc2 == 0, err2
    assert env["result"]["verified"] is True


def test_seq_alpha_one_derangement_numbers(capsys):
    rc, env, _ = run_machine(capsys, "seq", "1", "8", "--alpha", "1")
    assert rc == 0
    assert env["result"]["values"] == ["0", "1", "2", "9", "44", "265", "1854", "14833"]


def test_seq_deck_last_value(capsys):
    from math import factorial
    from multiderange.selftest import DECK_IDENTIFIED_COUNT

    rc, env, _ = run_machine(capsys, "seq", "4", "13", "--alpha", "1")
    assert rc == 0
    assert env["inputs"]["engine"] == "direct"
    labeled = factorial(4) ** 13 * DECK_IDENTIFIED_COUNT
    assert env["result"]["values"][-1] == str(labeled)


def test_guess_from_equal_blocks(capsys, tmp_path):
    out_path = tmp_path / "guessed.json"
    rc, env, _ = run_machine(
        capsys,
        "guess", "-k", "1", "--terms", "15",
        "--max-order", "2", "--max-deg-n", "1", "--max-deg-a", "1",
        "--out", str(out_path),
    )
    assert rc == 0
    assert env["result"]["found"] is True
    assert env["result"]["operator"] == operator_to_record(builtin_operator(1))
    # the --out artifact is the bare operator record, consumable by verify
    assert json.loads(out_path.read_text()) == operator_to_record(builtin_operator(1))


def test_guess_constant_sequence_file(capsys, tmp_path):
    seq_path = tmp_path / "const.json"
    seq_path.write_text(json.dumps({
        "schema": "poly-sequence/v1",
        "start": 0,
        "values": ["1"] * 10,
    }))
    rc, env, _ = run_machine(capsys, "guess", "--file", str(seq_path),
                             "--max-order", "1", "--max-deg-n", "0", "--max-deg-a", "0")
    assert rc == 0
    assert env["result"]["operator"]["coeffs"] == [[[0, 0, "-1"]], [[0, 0, "1"]]]


def test_guess_order_bound_past_the_terms_changes_nothing(capsys, monkeypatch):
    calls = []
    fit_rows = guesser._fit_rows
    monkeypatch.setattr(guesser, "_fit_rows",
                        lambda *a, **kw: calls.append(a) or fit_rows(*a, **kw))
    argv = ("guess", "-k", "1", "--terms", "40", "--max-deg-n", "0", "--max-deg-a", "0")
    rc, small, _ = run_machine(capsys, *argv, "--max-order", "40")
    t0 = time.perf_counter()
    rc_huge, huge, _ = run_machine(capsys, *argv, "--max-order", "1000000000")
    assert time.perf_counter() - t0 < 1.0
    assert rc == rc_huge == 1
    assert huge["result"] == small["result"] == {
        "found": False, "reason": "no operator within the given bounds fits the data"}
    assert huge["inputs"] == {**small["inputs"], "max_order": 1000000000}
    # 35 fitted terms: orders 1..34 have a window, each built once per run
    assert len(calls) == 2 * 34


def test_guess_insufficient_terms(capsys):
    rc, env, _ = run_machine(capsys, "guess", "-k", "1", "--terms", "4")
    assert rc == 1
    assert env["result"]["found"] is False


def test_failed_guess_leaves_the_out_file_alone(capsys, tmp_path):
    out = tmp_path / "op.json"
    save_operator(builtin_operator(1), out)
    before = out.read_bytes()
    fresh = tmp_path / "fresh.json"
    for path in (out, fresh):
        rc, env, _ = run_machine(capsys, "guess", "-k", "1", "--terms", "8",
                                 "--max-order", "1", "--max-deg-n", "0",
                                 "--max-deg-a", "0", "--out", str(path))
        assert rc == 1
        assert env["result"]["found"] is False
    assert out.read_bytes() == before
    assert not fresh.exists()


def test_guess_requires_a_source(capsys):
    rc, _, err = run_cli(capsys, "guess")
    assert rc == 2
    assert "--file" in err


def test_verify_pass_and_fail(capsys, tmp_path):
    op_path = tmp_path / "op1.json"
    save_operator(builtin_operator(1), op_path)
    rc, env, _ = run_machine(capsys, "verify", "--operator", str(op_path),
                             "-k", "1", "--terms", "11")
    assert rc == 0
    assert env["result"]["verified"] is True

    # perturb the coefficient of the 'a' monomial in c_0: breaks the n=0 window
    record = operator_to_record(builtin_operator(1))
    record["coeffs"][0][0][2] = "-2"
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(record))
    rc, env, _ = run_machine(capsys, "verify", "--operator", str(bad_path),
                             "-k", "1", "--terms", "11")
    assert rc == 1
    assert env["result"]["verified"] is False
    assert env["result"]["first_failure"] == 0


def test_verify_schema_error(capsys, tmp_path):
    bad = tmp_path / "mangled.json"
    bad.write_text('{"schema": "recurrence-operator/v1", "order": 2}')
    rc, _, err = run_cli(capsys, "verify", "--operator", str(bad), "-k", "1",
                         "--terms", "8")
    assert rc == 2
    assert "operator.coeffs" in err


@pytest.mark.parametrize("argv, monomial", [
    (("verify", "-k", "2", "--terms", "8"), [10**7, 0, "1"]),
    (("seq", "2", "5"), [0, 10**9, "1"]),
], ids=["deg_n", "deg_a"])
def test_huge_operator_degree_fails_before_allocating(capsys, tmp_path, argv, monomial):
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps({"schema": "recurrence-operator/v1", "order": 1,
                               "coeffs": [[[0, 0, "-1"]], [[0, 0, "1"], monomial]]}))
    tracemalloc.start()
    try:
        rc, out, err = run_cli(capsys, *argv, "--operator", str(bad))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (rc, out) == (2, "")
    assert err == f"error: operator.coeffs[1][1]: degree above {recurrence.MAX_OPERATOR_DEGREE}\n"
    assert peak < 1_000_000


def test_booleans_in_an_operator_file_are_a_schema_error(capsys, tmp_path):
    bad = tmp_path / "bools.json"
    bad.write_text(json.dumps({
        "schema": "recurrence-operator/v1", "order": True, "valid_from": False,
        "coeffs": [[[0, 0, "-1"]], [[False, False, True]]],
    }))
    rc, out, err = run_cli(capsys, "verify", "--operator", str(bad), "-k", "1",
                           "--terms", "5")
    assert rc == 2 and out == ""
    assert "operator.order" in err


@pytest.mark.parametrize("command", ["guess", "verify"])
def test_deeply_nested_json_is_a_schema_error(capsys, tmp_path, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    # guess reads the file as its sequence; verify as its operator, beside -k
    args = ("--file", str(deep)) if command == "guess" else (
        "--operator", str(deep), "-k", "1", "--terms", "8")
    rc, out, err = run_cli(capsys, command, *args)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "nested too deeply" in err


@pytest.mark.parametrize("command", ["guess", "verify"])
@pytest.mark.parametrize("terms", ["0", "-3"])
def test_terms_below_one_is_a_usage_error(capsys, tmp_path, command, terms):
    extra = ("--operator", str(SHIPPED / "k1.json")) if command == "verify" else ()
    rc, out, err = run_cli(capsys, command, *extra, "-k", "1", "--terms", terms)
    assert rc == 2
    assert out == ""
    assert err == "error: --terms must be positive\n"


def test_verify_constant_sequence_against_shift_minus_one(capsys, tmp_path):
    op_path = tmp_path / "nm1.json"
    op_path.write_text(json.dumps({
        "schema": "recurrence-operator/v1",
        "order": 1,
        "valid_from": 0,
        "coeffs": [[[0, 0, "-1"]], [[0, 0, "1"]]],
    }))
    seq_path = tmp_path / "const.json"
    seq_path.write_text(json.dumps({
        "schema": "poly-sequence/v1", "start": 0, "values": ["1"] * 6,
    }))
    rc, env, _ = run_machine(capsys, "verify", "--operator", str(op_path),
                             "--file", str(seq_path))
    assert rc == 0
    assert env["result"]["verified"] is True


def test_selftest_with_lowered_cap(capsys):
    rc, env, _ = run_machine(capsys, "selftest", "--cap", "4")
    assert rc == 0
    rows = {r["name"]: r for r in env["result"]}
    assert rows["oracle-sweep"]["passed"] is True
    assert "total <= 4" in rows["oracle-sweep"]["detail"]


def test_selftest_negative_cap_is_a_usage_error(capsys):
    rc, out, err = run_cli(capsys, "selftest", "--cap", "-1")
    assert (rc, out) == (2, "")
    assert err == "error: --cap must be nonnegative\n"
    rc, env, _ = run_machine(capsys, "selftest", "--cap", "0")
    assert rc == 0
    assert env["inputs"] == {"cap": 0}


def test_selftest_full(capsys):
    rc, env, _ = run_machine(capsys, "selftest")
    assert rc == 0
    assert all(r["passed"] for r in env["result"])
    assert {r["name"] for r in env["result"]} == {
        "oracle-sweep", "cycle-identity", "deck-of-cards",
        "recurrence-cross-validation",
    }


def test_selftest_detects_sabotage(capsys, monkeypatch):
    monkeypatch.setattr(selftest_mod, "rising_factorial", lambda n: AlphaPoly((n,)))
    rc, env, _ = run_machine(capsys, "selftest", "--cap", "4")
    assert rc == 1
    rows = {r["name"]: r for r in env["result"]}
    assert rows["cycle-identity"]["passed"] is False
    assert rows["oracle-sweep"]["passed"] is True


def test_out_artifact_round_trips(capsys, tmp_path):
    out_path = tmp_path / "poly.json"
    rc, env, _ = run_machine(capsys, "wder", "2,2", "--out", str(out_path))
    assert rc == 0
    assert json.loads(out_path.read_text()) == env["result"]


def _stdlib_layout(text):
    return json.dumps(json.loads(text), indent=2) + "\n"


_K1 = str(recurrence._OPERATORS / "k1.json")
_K2 = str(recurrence._OPERATORS / "k2.json")


@pytest.mark.parametrize("fmt", ["machine", "text"])
@pytest.mark.parametrize("argv, code", [
    (("wder", "2,2,3"), 0),
    (("count", "3,3,2", "--identified"), 0),
    (("seq", "2", "12"), 0),
    (("seq", "1", "10", "--alpha", "2"), 0),
    (("guess", "-k", "2", "--terms", "25"), 0),
    (("guess", "-k", "1", "--terms", "8", "--max-order", "1", "--max-deg-n", "0",
      "--max-deg-a", "0"), 1),
    (("verify", "--operator", _K1, "-k", "1", "--terms", "11"), 0),
    (("verify", "--operator", _K2, "-k", "1", "--terms", "11"), 1),
    (("selftest", "--cap", "4"), 0),
], ids=["wder", "count", "seq", "seq-alpha", "guess", "guess-not-found", "verify",
        "verify-fails", "selftest"])
def test_output_is_the_stdlib_layout(capsys, tmp_path, argv, code, fmt):
    """The envelope and the --out file are written a chunk at a time; both
    must still be exactly what json.dumps(..., indent=2) writes."""
    out_path = tmp_path / "out.json"
    rc, out, err = run_cli(capsys, *argv, "--format", fmt, "--out", str(out_path))
    assert (rc, err) == (code, "")
    if fmt == "machine":
        assert out == _stdlib_layout(out)
        result = json.loads(out)["result"]
    else:
        result = run_machine(capsys, *argv)[1]["result"]
    if argv[0] == "guess":
        if not result["found"]:
            assert not out_path.exists()
            return
        result = result["operator"]
    text = out_path.read_text()
    assert text == _stdlib_layout(text)
    written = json.loads(text)
    if argv[0] == "selftest":  # the suites' timings differ from run to run
        for row in written + result:
            row["ms"] = 0
    assert written == result


def _eager_sequence_record(k, count):
    values = enumerator.fk_sequence_direct(k, count).values[1:]
    return {"schema": "poly-sequence/v1", "start": 1, "k": k,
            "values": [polys.poly_to_record(v) for v in values]}


@pytest.mark.parametrize("out", [None, "file", os.devnull])
@pytest.mark.parametrize("count", [1, 2, 37, 120])
@pytest.mark.parametrize("k", [1, 2])
def test_seq_writes_the_eager_record(capsys, tmp_path, k, count, out):
    """seq converts one value at a time, and its envelope copies the result
    back from a regular --out file; every byte is still json.dumps(...,
    indent=2) of the record with every digit string made up front."""
    path = tmp_path / "s.json" if out == "file" else out
    argv = ("seq", str(k), str(count), "--format", "machine")
    rc, stdout, err = run_cli(capsys, *argv, *(("--out", str(path)) if path else ()))
    assert (rc, err) == (0, "")
    record = _eager_sequence_record(k, count)
    envelope = {"command": "seq",
                "inputs": {"k": k, "count": count, "engine": "recurrence", "alpha": None},
                "result": record, "timing_ms": json.loads(stdout)["timing_ms"]}
    assert stdout == json.dumps(envelope, indent=2) + "\n"
    if out == "file":
        assert path.read_text() == json.dumps(record, indent=2) + "\n"


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_out_file_that_is_stdout_gets_the_envelope(tmp_path):
    """--out /dev/stdout with stdout sent to a file names the file that the
    envelope then overwrites; the result is encoded again, not copied back
    from a file that is being overwritten."""
    stdout = tmp_path / "env.json"
    argv = ("seq", "2", "30", "--format", "machine", "--out", "/dev/stdout")
    proc = run_entry(argv, stdout)
    assert (proc.returncode, proc.stderr) == (0, "")
    text = stdout.read_text()
    assert text == _stdlib_layout(text)
    assert json.loads(text)["result"] == _eager_sequence_record(2, 30)


@pytest.mark.parametrize("fmt", ["machine", "text"])
def test_seq_holds_one_value_s_digit_strings_at_a_time(tmp_path, fmt):
    """The digit strings of F_1(1..200) are never all held at once: the
    command's peak of traced memory stays below their total size."""
    digits = sum(sys.getsizeof(str(c)) for v in _eager_sequence_record(1, 200)["values"]
                 for c in v["coeffs"])
    argv = ["seq", "1", "200", "--format", fmt, "--out", str(tmp_path / "s.json")]
    with open(tmp_path / "stdout", "w") as stdout, redirect_stdout(stdout):
        assert cli.main(argv[:2] + ["20"] + argv[3:]) == 0  # operator and caches loaded
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak - start < digits


@pytest.mark.parametrize("fmt", ["machine", "text"])
@pytest.mark.parametrize("argv", [
    ("wder", "2,2"),
    ("count", "2,2"),
    ("seq", "1", "3"),
    ("guess", "-k", "2", "--terms", "25"),
    ("verify", "--operator", _K1, "-k", "1", "--terms", "11"),
], ids=["wder", "count", "seq", "guess", "verify"])
def test_unopenable_out_file_is_a_usage_error(capsys, tmp_path, argv, fmt):
    for path in (tmp_path / "missing" / "x.json", tmp_path):
        rc, out, err = run_cli(capsys, *argv, "--format", fmt, "--out", str(path))
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err


def test_failed_command_leaves_the_out_file_alone(capsys, tmp_path):
    out = tmp_path / "keep.json"
    out.write_text("keep\n")
    for argv, code in (
        (("wder", "2,x"), 2),
        (("seq", "3", "5", "--engine", "recurrence"), 2),
        (("verify", "--operator", str(tmp_path / "none.json"), "-k", "1", "--terms", "5"), 2),
        (("seq", "1", "10", "--operator", _K2), 1),  # inexact extension step
    ):
        rc, stdout, _ = run_cli(capsys, *argv, "--out", str(out))
        assert (rc, stdout) == (code, "")
    assert out.read_text() == "keep\n"


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_memory_error_is_a_usage_error(capsys, monkeypatch, tmp_path, fmt):
    def exhausted(k, last):
        raise MemoryError

    monkeypatch.setattr(cli, "fk_sequence_direct", exhausted)
    out = tmp_path / "keep.json"
    out.write_text("keep\n")
    rc, stdout, err = run_cli(capsys, "guess", "-k", "2", "--terms", "25",
                              "--format", fmt, "--out", str(out))
    assert (rc, stdout, err) == (2, "", "error: out of memory\n")
    assert out.read_text() == "keep\n"


_SRC = str(Path(cli.__file__).resolve().parents[1])
needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")


def run_entry(argv, stdout_path):
    """The CLI in a process of its own, stdout to a file such as /dev/full."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)}
    with open(stdout_path, "w") as stdout:
        return subprocess.run(
            [sys.executable, "-c", "from multiderange.cli import entry; entry()", *argv],
            stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=60)


@needs_dev_full
@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize("argv, full_stdout", [
    (("wder", "2,2", "--out", "/dev/full"), False),
    (("wder", "2,2"), True),
    (("seq", "1", "300"), True),
    (("wder", "2,2", "--out", "/dev/full"), True),
], ids=["out", "stdout", "long-stdout", "both"])
def test_failed_write_is_an_error_without_traceback(tmp_path, argv, full_stdout, fmt):
    proc = run_entry((*argv, "--format", fmt),
                     "/dev/full" if full_stdout else tmp_path / "stdout")
    assert proc.returncode == 2
    assert proc.stderr == "error: [Errno 28] No space left on device\n"


@needs_dev_full
def test_out_file_is_complete_before_the_envelope(capsys, tmp_path):
    """The --out file is written in full before anything is printed, so a
    stdout that cannot be written leaves a complete artifact."""
    argv = ("seq", "1", "300", "--format", "machine", "--out")
    full, normal = tmp_path / "full.json", tmp_path / "normal.json"
    proc = run_entry((*argv, str(full)), "/dev/full")
    assert proc.returncode == 2
    assert run_cli(capsys, *argv, str(normal))[0] == 0
    assert json.loads(full.read_text())["values"]
    assert full.read_bytes() == normal.read_bytes()


def test_text_seq_builds_a_record_only_for_out(capsys, monkeypatch, tmp_path):
    built = []

    def counted(seq):
        built.append(seq.last)
        return recurrence.sequence_to_record(seq)

    monkeypatch.setattr(cli, "sequence_to_record", counted)
    assert run_cli(capsys, "seq", "2", "6")[0] == 0
    assert built == []
    assert run_cli(capsys, "seq", "2", "6", "--out", str(tmp_path / "s.json"))[0] == 0
    assert run_machine(capsys, "seq", "2", "6")[0] == 0
    assert built == [6, 6]


def test_machine_output_renders_no_text(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("render_terms called for machine output")

    monkeypatch.setattr(polys, "render_terms", refuse)
    for argv in (("seq", "2", "5"), ("seq", "1", "8", "--alpha", "2"),
                 ("wder", "2,2"), ("wder", "3,2", "--alpha", "3")):
        rc, env, err = run_machine(capsys, *argv)
        assert rc == 0 and env["result"] and err == ""


def test_text_output_lines(capsys):
    rc, out, _ = run_cli(capsys, "seq", "2", "5")
    assert rc == 0
    assert out.splitlines()[:-1] == [
        "F_2(1) = 0",
        "F_2(2) = 2*a^2 + 2*a",
        "F_2(3) = 8*a^3 + 40*a^2 + 32*a",
        "F_2(4) = 60*a^4 + 888*a^3 + 2316*a^2 + 1488*a",
        "F_2(5) = 544*a^5 + 18240*a^4 + 107040*a^3 + 201856*a^2 + 112512*a",
    ]
    rc, out, _ = run_cli(capsys, "wder", "2,2")
    assert rc == 0
    assert out.splitlines()[:-1] == ["A(shape) = 2*a^2 + 2*a"]
    assert out.splitlines()[-1].startswith("time: ")


@pytest.mark.parametrize("command", ["guess", "verify"])
def test_sequence_source_error_names_the_command(capsys, tmp_path, command):
    op_path = tmp_path / "op.json"
    save_operator(builtin_operator(1), op_path)
    extra = ("--operator", str(op_path)) if command == "verify" else ()
    rc, out, err = run_cli(capsys, command, *extra)
    assert rc == 2
    assert err == f"error: {command} needs --file or both -k and --terms\n"


def test_text_format_smoke(capsys):
    rc, out, _ = run_cli(capsys, "wder", "2,2")
    assert rc == 0
    assert "2*a^2 + 2*a" in out
    assert "time:" in out


def test_parser_is_built_once_per_process(capsys):
    assert cli.build_parser() is cli.build_parser()
    # neither an argparse error nor a handler's usage error leaves the shared
    # parser in a state that changes the next command
    with pytest.raises(SystemExit) as info:
        cli.main(["wder", "2,2", "--format", "json"])
    assert info.value.code == 2
    assert "invalid choice: 'json'" in capsys.readouterr().err
    assert run_cli(capsys, "wder", "2,x")[0] == 2
    rc, env, err = run_machine(capsys, "wder", "2,2")
    assert (rc, err) == (0, "")
    del env["timing_ms"]
    assert env == {"command": "wder", "inputs": {"shape": [2, 2], "alpha": None,
                                                 "identified": False},
                   "result": {"variable": "a", "coeffs": ["0", "2", "2"]}}
