"""Benchmark of the three CLI jobs: shapes, sequences and guess.

    python3 bench/run.py --workload shapes --seed 1 --seconds 30 --trace 0

One process, one thread, one client in a closed loop: each command is
passed to ``multiderange.cli.main([...])`` in-process, with stdout sent to a
file, and the next command starts when it returns.  The command list of a
workload is drawn once from the seed and replayed in the same order on
every run, in whole rounds, until ``--seconds`` have passed.  Every output
is checked afterwards, outside the timed interval, by ``checks.py``, which
does not use the program.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` every round is run twice, once plain
and once with spans around the program's public functions (``tracer.py``),
and the metrics are the per-layer ones.  The same object is written to
``bench/out/results/`` for ``compare.py``; spans go to ``bench/out/traces/``.
A failed check is printed to stderr and the exit code is 1.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

perf = time.perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402

# The first set-ups of a process run faster than the rest (the CPU is fresh
# from idle); with 15 the median sits well past them.
SETUP_REPEATS = 15
MACHINE = ["--format", "machine"]


@dataclass
class Cmd:
    kind: str  # wder | identified | alpha | seq | verify | guess
    argv: list[str]
    params: dict = field(default_factory=dict)
    out_file: Path | None = None  # the --out artifact, if any


# ---------------------------------------------------------------------------
# workloads: command lists drawn from the seed
# ---------------------------------------------------------------------------

def _shape_text(blocks: list[int]) -> str:
    parts, i = [], 0
    while i < len(blocks):
        j = i
        while j < len(blocks) and blocks[j] == blocks[i]:
            j += 1
        parts.append(f"{blocks[i]}^{j - i}" if j - i > 1 else str(blocks[i]))
        i = j
    return ",".join(parts)


def _draw_shape(rng: random.Random, total: int, blocks: int, seen: set | None) -> list[int]:
    """A composition of total into the given number of blocks of size 1..10,
    in drawn order; with seen, one whose block multiset is new."""
    while True:
        cuts = sorted(rng.sample(range(1, total), blocks - 1))
        shape = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
        key = tuple(sorted(shape))
        if max(shape) <= 10 and (seen is None or key not in seen):
            if seen is not None:
                seen.add(key)
            return shape


# (total, blocks) of the seeded shapes of one round.  With both fixed, the
# cost of a shape moves by a few percent with the draw, so every round costs
# about the same and the seed moves the figures little.  In cost order the
# round's middle is a block of like commands (the (54, 10) shape, the same
# shape with --alpha, the deck and the --identified shape, which computes
# its polynomial twice), so latency_p50_ms is a median of many like
# commands, not the mean of two unlike ones.
SHAPE_SLOTS = ((24, 6), (32, 7), (40, 8), (54, 10), (60, 11), (68, 12))
ALPHA_SLOT = 3
IDENTIFIED_SIZE = (48, 10)
ORACLE_SIZES = ((4, 2), (6, 3), (8, 3), (8, 4))  # checked against the brute-force oracle
DECK = [4] * 13


def shapes_rounds(rng: random.Random, n_rounds: int, tmp: Path) -> list[list[Cmd]]:
    seen = {tuple(DECK)}
    rounds = []
    for _ in range(n_rounds):
        drawn = [_draw_shape(rng, total, blocks, seen) for total, blocks in SHAPE_SLOTS]
        cmds = [Cmd("wder", ["wder", "4^13"], {"shape": DECK})]
        cmds += [Cmd("wder", ["wder", _shape_text(s)], {"shape": s}) for s in drawn]
        ident = _draw_shape(rng, *IDENTIFIED_SIZE, seen)
        cmds.append(Cmd("identified", ["wder", _shape_text(ident), "--identified"],
                        {"shape": ident}))
        target, alpha = drawn[ALPHA_SLOT], rng.randint(1, 3)
        cmds.append(Cmd("alpha", ["wder", _shape_text(target), "--alpha", str(alpha)],
                        {"shape": target, "alpha": alpha}))
        small = _draw_shape(rng, *rng.choice(ORACLE_SIZES), None)
        cmds.append(Cmd("wder", ["wder", _shape_text(small)], {"shape": small}))
        rng.shuffle(cmds)
        rounds.append(cmds)
    return rounds


# (k, lowest N, highest N) of the seq/verify pairs of one round.  The two
# k=2 pairs cost the same, so in cost order the round's middle is the two
# k=2 seq commands and latency_p50_ms is their median.  The k=1 pair has the
# largest output and sets peak_rss_mb.  Its N is fixed: with N drawn anew
# each round, the heap fragments further every round and peak RSS creeps up
# by about 10% over a run.
SEQUENCE_SLOTS = ((1, 400, 400), (2, 146, 150), (2, 146, 150))


def sequences_rounds(rng: random.Random, n_rounds: int, tmp: Path) -> list[list[Cmd]]:
    rounds = []
    for r in range(n_rounds):
        cmds = []
        for i, (k, lo, hi) in enumerate(SEQUENCE_SLOTS):
            n = rng.randint(lo, hi)
            path = tmp / f"seq-r{r}-{i}.json"
            cmds.append(Cmd("seq", ["seq", str(k), str(n), "--out", str(path)],
                            {"k": k, "n": n}, path))
            order = len(checks.expected_operator(k)) - 1
            cmds.append(Cmd("verify", ["verify", "--operator", str(tmp / f"op-k{k}.json"),
                                       "--file", str(path)],
                            {"windows": n - order}))
        rounds.append(cmds)
    return rounds


# (k, fitted terms) of the guesses of one round.  The seed draws the holdout
# (3..7) and with it the number of terms; the rows of the linear system come
# from the fitted terms only, so every draw costs about the same.  Three of
# the four guesses are alike, so latency_p50_ms is a median of like commands.
GUESS_SLOTS = ((2, 25), (1, 35), (1, 35), (1, 35))
GUESS_BOUNDS = ["--max-order", "3", "--max-deg-n", "3", "--max-deg-a", "3"]


def guess_rounds(rng: random.Random, n_rounds: int, tmp: Path) -> list[list[Cmd]]:
    rounds = []
    for r in range(n_rounds):
        cmds = []
        for i, (k, fit) in enumerate(GUESS_SLOTS):
            holdout = rng.randint(3, 7)
            terms = fit + holdout
            op_path = tmp / f"guess-r{r}-{i}.json"
            cmds.append(Cmd("guess", ["guess", "--file", str(tmp / f"in-k{k}-t{terms}.json"),
                                      "--holdout", str(holdout), *GUESS_BOUNDS,
                                      "--out", str(op_path)],
                            {"k": k, "terms": terms}, op_path))
        rng.shuffle(cmds)
        rounds.append(cmds)
    return rounds


# Rounds drawn per workload: more than a run of --seconds 30 gets through, so
# no command repeats within a run.
WORKLOADS = {
    "shapes": (shapes_rounds, 80),
    "sequences": (sequences_rounds, 16),
    "guess": (guess_rounds, 10),
}


def _operator_record(k: int) -> dict:
    ops = checks.expected_operator(k)
    return {
        "schema": "recurrence-operator/v1",
        "order": len(ops) - 1,
        "valid_from": 0,
        "coeffs": [[[p, q, str(c)] for (p, q), c in sorted(op.items())] for op in ops],
    }


def setup_inputs(workload: str, rounds: list[list[Cmd]], tmp: Path) -> list[Cmd]:
    """Write the input files; return the program commands that make the rest
    and warm the caches (run before any timed command)."""
    if workload == "shapes":
        every_block = [1, 2, 3, 4, 5, 5, 6, 7, 8, 9, 10, 10]
        return [Cmd("wder", ["wder", _shape_text(every_block)], {"shape": every_block}),
                Cmd("identified", ["wder", "4^13", "--identified"], {"shape": DECK})]
    if workload == "sequences":
        warm = []
        for k in (1, 2):
            (tmp / f"op-k{k}.json").write_text(json.dumps(_operator_record(k)))
            path = tmp / f"warm-k{k}.json"
            warm.append(Cmd("seq", ["seq", str(k), "20", "--out", str(path)],
                            {"k": k, "n": 20}, path))
            warm.append(Cmd("verify", ["verify", "--operator", str(tmp / f"op-k{k}.json"),
                                       "--file", str(path)], {"windows": 20 - (k + 1)}))
        return warm
    inputs = sorted({(c.params["k"], c.params["terms"]) for rnd in rounds for c in rnd})
    make = []
    for k, terms in inputs:
        path = tmp / f"in-k{k}-t{terms}.json"
        make.append(Cmd("seq", ["seq", str(k), str(terms), "--out", str(path)],
                        {"k": k, "n": terms}, path))
    return make


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------

def _digest(path: Path) -> str:
    """sha256 of a machine envelope without its timing_ms line, the one field
    that differs between runs.  Read line by line: a whole multi-MB output
    read at once sits in the heap next to the program's and makes peak RSS
    depend on the order of allocations."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for line in f:
            if not line.lstrip().startswith(b'"timing_ms": '):
                h.update(line)
    return h.hexdigest()


class Runner:
    """Runs commands through cli.main and keeps what the checks need."""

    def __init__(self, cli, tmp: Path) -> None:
        self.cli = cli
        self.tmp = tmp
        self.digests: dict[int, str] = {}  # output file -> digest of its first run
        self.commands: dict[int, Cmd] = {}
        self.failures: list[str] = []

    def run(self, slot: int, cmd: Cmd, tracer: Tracer | None = None) -> tuple[float, bool]:
        out_path = self.tmp / f"stdout-{slot}.txt"
        err = io.StringIO()
        with open(out_path, "w") as out, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            t0 = perf()
            if tracer is not None:
                tracer.open("cli.main")
            try:
                rc = self.cli.main(cmd.argv + MACHINE)
                out.flush()
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # a crash is a failed command, not a dead benchmark
                rc = "crash"
                err.write(traceback.format_exc())
            finally:
                if tracer is not None:
                    tracer.close()
            dt = perf() - t0
        if tracer is not None:
            tracer.add("cli.stdout_bytes", out_path.stat().st_size)
            if cmd.out_file is not None and cmd.out_file.exists():
                tracer.add("cli.artifact_bytes", cmd.out_file.stat().st_size)
        ok = rc == 0 and not err.getvalue()
        if not ok:
            self.failures.append(f"{' '.join(cmd.argv)}: exit {rc}: {err.getvalue().strip()[-500:]}")
            return dt, False
        digest = _digest(out_path)
        first = self.digests.setdefault(slot, digest)
        if first != digest:
            self.failures.append(f"{' '.join(cmd.argv)}: output differs between runs")
            return dt, False
        if slot not in self.commands:
            self.commands[slot] = cmd
            # keep the first output of every command for the checks
            out_path.rename(self.tmp / f"checked-{slot}.txt")
        return dt, True


def _import_cli():
    for name in [m for m in sys.modules if m == "multiderange" or m.startswith("multiderange.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return importlib.import_module("multiderange.cli")


def setup(workload: str, seed: int, tmp: Path):
    """Import, input and file generation, cache warm-up."""
    cli = _import_cli()
    make, n_rounds = WORKLOADS[workload]
    rounds = make(random.Random(f"{workload}:{seed}"), n_rounds, tmp)
    runner = Runner(cli, tmp)
    warm = setup_inputs(workload, rounds, tmp)
    for i, cmd in enumerate(warm):
        if not runner.run(-1 - i, cmd)[1]:
            raise RuntimeError(f"set-up command failed: {runner.failures[-1]}")
    return cli, rounds, runner


# ---------------------------------------------------------------------------
# checks (outside every timed interval)
# ---------------------------------------------------------------------------

def _coeffs(record: dict) -> list[int]:
    if record.get("variable") != "a":
        raise ValueError("polynomial record without variable a")
    return [int(c) for c in record["coeffs"]]


def check_outputs(runner: Runner, oracle) -> list[str]:
    problems = []
    polys = {}
    envelopes = {}
    longest: dict[int, int] = {}
    for slot, cmd in runner.commands.items():
        envelopes[slot] = json.loads((runner.tmp / f"checked-{slot}.txt").read_text())
        if cmd.kind == "wder":
            polys[tuple(cmd.params["shape"])] = _coeffs(envelopes[slot]["result"])
        elif cmd.kind == "seq":
            longest[cmd.params["k"]] = max(longest.get(cmd.params["k"], 0), cmd.params["n"])
    counts = {k: list(checks.equal_block_counts(k, n)) for k, n in longest.items()}
    for slot, cmd in sorted(runner.commands.items()):
        env, p = envelopes[slot], cmd.params
        result = env["result"]
        if cmd.kind == "wder":
            found = checks.wder_problems(p["shape"], polys[tuple(p["shape"])])
            if sum(p["shape"]) <= 8 and tuple(polys[tuple(p["shape"])]) != \
                    tuple(oracle.enumerate_derangements(p["shape"]).coeffs):
                found.append("differs from the brute-force oracle")
        elif cmd.kind == "identified":
            found = checks.identified_problems(p["shape"], int(result))
        elif cmd.kind == "alpha":
            found = checks.alpha_problems(p["shape"], p["alpha"], int(result),
                                          polys.get(tuple(p["shape"])))
        elif cmd.kind == "seq":
            found = []
            if (result.get("start"), result.get("k"), len(result.get("values", ()))) != \
                    (1, p["k"], p["n"]):
                found.append("wrong start, k or length")
            else:
                found = checks.sequence_problems(
                    p["k"], 1, [_coeffs(v) for v in result["values"]], counts[p["k"]])
            if json.loads(cmd.out_file.read_text()) != result:
                found.append("--out file differs from the printed result")
        elif cmd.kind == "verify":
            expected = {"verified": True, "first_failure": None, "windows": p["windows"]}
            found = [] if result == expected else [f"expected {expected}"]
        elif cmd.kind == "guess":
            found = []
            if not result.get("found"):
                found.append("no operator found")
            else:
                ops = checks.expected_operator(p["k"])
                shape = [len(ops) - 1, max(d for op in ops for d, _ in op),
                         max(d for op in ops for _, d in op)]
                if result["candidate"] != shape:
                    found.append(f"candidate {result['candidate']} != {shape}")
                found += checks.operator_problems(p["k"], result["operator"], 1,
                                                  3 * p["terms"])
                if json.loads(cmd.out_file.read_text()) != result["operator"]:
                    found.append("--out file differs from the printed operator")
        else:
            raise ValueError(cmd.kind)
        problems += [f"{' '.join(cmd.argv)}: {f}" for f in found]
    return problems


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def install_spans(tracer: Tracer, cli) -> None:
    enumerator = sys.modules["multiderange.enumerator"]
    recurrence = sys.modules["multiderange.recurrence"]
    guesser = sys.modules["multiderange.guesser"]

    def steps(args, result):
        tracer.add("recurrence.steps", len(result.values) - len(args[1].values))

    def quotient(args, q):
        tracer.add("polys.output_coeffs", len(q.coeffs))
        tracer.peak("polys.max_coeff_bits", max((abs(c).bit_length() for c in q.coeffs),
                                                default=0))

    def windows(args, fail):
        op, seq = args
        first = max(seq.start, op.valid_from)
        last = seq.last - op.order if fail is None else fail
        tracer.add("recurrence.windows", last - first + 1)

    def guessed(args, res):
        spec = args[1]
        r, dn, da = res.candidate
        tracer.add("guesser.candidates",
                   ((r - 1) * (spec.max_deg_n + 1) + dn) * (spec.max_deg_a + 1) + da + 1)
        tracer.add("guesser.equations", res.equations)
        tracer.add("guesser.unknowns", res.unknowns)

    for module, attr, name, stats in (
        (cli, "weighted_derangement_poly", "enumerator.weighted_derangement_poly", None),
        (enumerator, "weighted_derangement_poly", "enumerator.weighted_derangement_poly", None),
        (cli, "identified_count", "enumerator.identified_count", None),
        (enumerator, "laguerre_product", "laguerre.laguerre_product", None),
        (enumerator, "moment_functional", "enumerator.moment_functional", None),
        (cli, "poly_to_record", "polys.poly_to_record", None),
        (cli, "extend_sequence", "recurrence.extend_sequence", steps),
        (recurrence, "divide_exact", "polys.divide_exact", quotient),
        (cli, "first_failure", "recurrence.first_failure", windows),
        (recurrence, "first_failure", "recurrence.first_failure", windows),
        (cli, "load_sequence", "recurrence.load_sequence", None),
        (cli, "load_operator", "recurrence.load_operator", None),
        (cli, "sequence_to_record", "recurrence.sequence_to_record", None),
        (cli, "operator_to_record", "recurrence.operator_to_record", None),
        (cli, "guess_operator", "guesser.guess_operator", guessed),
        (guesser, "verify_operator", "guesser.verify_operator", None),
    ):
        tracer.wrap(module, attr, name, stats)


def layer_metrics(tracer: Tracer, n_cmds: int, plain_s: float, traced_s: float) -> dict:
    per = 1.0 / n_cmds
    total = {k: v * 1e3 * per for k, v in tracer.total_s.items()}
    own = {k: v * 1e3 * per for k, v in tracer.self_s.items()}
    g = tracer.total_s.get
    guesses = tracer.calls.get("guesser.guess_operator", 0)
    polys = sys.modules["multiderange.polys"]
    laguerre = sys.modules["multiderange.laguerre"]
    main_ms = total.get("cli.main", 0.0)
    values = {
        "laguerre.product_ms": (total.get("laguerre.laguerre_product", 0.0), "ms/cmd"),
        "laguerre.product_calls": (tracer.calls.get("laguerre.laguerre_product", 0) * per, "1/cmd"),
        "laguerre.scaled_laguerre_misses": (laguerre.scaled_laguerre.cache_info().misses, "count"),
        "polys.rising_factorial_misses": (polys.rising_factorial.cache_info().misses, "count"),
        "enumerator.moment_ms": (total.get("enumerator.moment_functional", 0.0), "ms/cmd"),
        "enumerator.wder_ms": (total.get("enumerator.weighted_derangement_poly", 0.0), "ms/cmd"),
        "polys.divide_exact_ms": (total.get("polys.divide_exact", 0.0), "ms/cmd"),
        "polys.divide_exact_calls": (tracer.calls.get("polys.divide_exact", 0) * per, "1/cmd"),
        "polys.output_coeffs": (tracer.stats["polys.output_coeffs"] * per, "1/cmd"),
        "polys.max_coeff_bits": (tracer.maxima["polys.max_coeff_bits"], "bits"),
        "polys.to_record_ms": (total.get("polys.poly_to_record", 0.0), "ms/cmd"),
        "recurrence.extend_ms": (total.get("recurrence.extend_sequence", 0.0), "ms/cmd"),
        "recurrence.extend_self_ms": (own.get("recurrence.extend_sequence", 0.0), "ms/cmd"),
        "recurrence.steps": (tracer.stats["recurrence.steps"] * per, "1/cmd"),
        "recurrence.first_failure_ms": (total.get("recurrence.first_failure", 0.0), "ms/cmd"),
        "recurrence.windows": (tracer.stats["recurrence.windows"] * per, "1/cmd"),
        "recurrence.record_read_ms": (total.get("recurrence.load_sequence", 0.0)
                                      + total.get("recurrence.load_operator", 0.0), "ms/cmd"),
        "recurrence.record_write_ms": (total.get("recurrence.sequence_to_record", 0.0)
                                       + total.get("recurrence.operator_to_record", 0.0), "ms/cmd"),
        "guesser.guess_ms": (total.get("guesser.guess_operator", 0.0), "ms/cmd"),
        "guesser.solve_ms": ((g("guesser.guess_operator", 0.0) - g("guesser.verify_operator", 0.0))
                             * 1e3 * per, "ms/cmd"),
        "guesser.verify_ms": (total.get("guesser.verify_operator", 0.0), "ms/cmd"),
        "guesser.candidates": (tracer.stats["guesser.candidates"] / max(guesses, 1), "1/guess"),
        "guesser.equations": (tracer.stats["guesser.equations"] / max(guesses, 1), "1/guess"),
        "guesser.unknowns": (tracer.stats["guesser.unknowns"] / max(guesses, 1), "1/guess"),
        "cli.main_ms": (main_ms, "ms/cmd"),
        "cli.self_ms": (own.get("cli.main", 0.0), "ms/cmd"),
        "cli.stdout_bytes": (tracer.stats["cli.stdout_bytes"] * per, "B/cmd"),
        "cli.artifact_bytes": (tracer.stats["cli.artifact_bytes"] * per, "B/cmd"),
        # spans cover the traced commands' wall time, timed outside the tracer,
        # except for the tracer's own bookkeeping
        "trace.accounted_pct": (100.0 * g("cli.main", 0.0) / traced_s, "%"),
        "trace.overhead_pct": (100.0 * (traced_s / plain_s - 1.0), "%"),
        "trace.commands": (n_cmds, "count"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", type=Path, default=OUT / "results",
                    help="directory for the result file (default bench/out/results)")
    args = ap.parse_args(argv)

    if not (SRC / "multiderange" / "cli.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'multiderange'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tmp = OUT / "tmp" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        return _measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _measure(args, tmp: Path) -> int:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # every set-up starts from a heap free of the last one's garbage
        t0 = perf()
        cli, rounds, runner = setup(args.workload, args.seed, tmp)
        setup_times.append(perf() - t0)
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported {cli.__file__}, not the checkout's sources", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    plain, traced = [], []
    attempted = failed = 0
    t_start = perf()
    r = 0
    while r == 0 or perf() - t_start < args.seconds:
        rnd = rounds[r % len(rounds)]
        passes = [None] if tracer is None else ([None, tracer] if r % 2 else [tracer, None])
        for tr in passes:
            if tr is not None:
                install_spans(tr, cli)
            for i, cmd in enumerate(rnd):
                slot = (r % len(rounds)) * 1000 + i
                if tr is not None:
                    tr.cmd = attempted
                dt, ok = runner.run(slot, cmd, tr)
                attempted += 1
                failed += not ok
                (plain if tr is None else traced).append(dt)
            if tr is not None:
                tr.uninstall()
        r += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    oracle = sys.modules["multiderange.oracle"]
    problems = check_outputs(runner, oracle)
    correct = not problems

    if tracer is None:
        metrics = {
            "ops_per_s": {"value": (attempted - failed) / sum(plain), "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(plain) * 1e3, "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        metrics = layer_metrics(tracer, len(traced), sum(plain), sum(traced))
        trace_dir = OUT / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    args.results.mkdir(parents=True, exist_ok=True)
    (args.results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "seconds": args.seconds, **result}, indent=1) + "\n")
    for f in runner.failures:
        print(f"COMMAND FAILED: {f}", file=sys.stderr)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
