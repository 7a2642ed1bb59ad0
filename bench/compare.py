"""Compare two sets of benchmark result files.

    python3 bench/compare.py SET_A [SET_B]

Each set is a directory of result files written by run.py (one per
workload and seed, ``--trace 0``).  For every workload and end-to-end
metric of BENCHMARK.json it prints each set's median, quartiles and spread
(the distance between the quartiles as a share of the median).  With two
sets it also says whether they agree: each spread, except that of setup_s,
is within the metric's bound, B's median is not worse than A's by more
than the bound, and the share of failed commands is the same.  The exit
code is 1 when some pair does not agree.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[str, list[dict]]:
    runs = defaultdict(list)
    for path in sorted(directory.glob("*-trace0.json")):
        rec = json.loads(path.read_text())
        runs[rec["workload"]].append(rec)
    return runs


def summary(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [load(Path(a)) for a in argv]
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        if any(not s.get(name) for s in sets):
            print(f"{name}: no results in {' or '.join(argv)}")
            ok = False
            continue
        for i, s in enumerate(sets):
            fails = {(r["failed"], r["attempted"]) for r in s[name]}
            wrong = sum(not r["correct"] for r in s[name])
            print(f"{name} set {'AB'[i]}: {len(s[name])} runs, failed/attempted "
                  f"{sorted(fails)}, incorrect runs {wrong}")
            ok &= wrong == 0
        if len(sets) == 2:
            share = [{r["failed"] / r["attempted"] for r in s[name]} for s in sets]
            if share[0] != share[1] or len(share[0]) != 1:
                print(f"  failed share differs: {share}")
                ok = False
        for m in spec["end_to_end"]:
            line = f"  {m['name']:15s} {m['unit']:>4s} bound {m['bound']:.2f}"
            meds = []
            for i, s in enumerate(sets):
                med, q1, q3, spread = summary([r["metrics"][m["name"]]["value"] for r in s[name]])
                meds.append(med)
                steady = m["name"] == "setup_s" or spread <= m["bound"]
                ok &= steady
                line += (f" | {'AB'[i]} median {med:.5g} q1 {q1:.5g} q3 {q3:.5g}"
                         f" spread {spread:.3f}{'' if steady else ' TOO WIDE'}")
            if len(meds) == 2:
                worse = (meds[1] - meds[0]) / meds[0]
                if m["better"] == "higher":
                    worse = -worse
                agree = worse <= m["bound"]
                ok &= agree
                line += f" | B worse by {worse:+.3f}: {'agree' if agree else 'DISAGREE'}"
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
