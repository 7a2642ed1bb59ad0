"""The guesser's DEBUG lines, pinned to a file.

guess_transcripts.json maps each guess's argv to the candidate lines it
logged, generated with the screen modulus at 2^61 - 1.  The screen is
sound at any prime, so a smaller modulus may only turn a "rejected mod p"
into "no exact kernel" on an unlucky prime.  The per-candidate reference in
test_guesser.py screens at whatever _PRIME is and cannot see that; this
file can.  The cases are the benchmark's guesses (K=1 from 35 fitted
terms, K=2 from 25, holdouts 3 to 7, bounds (3, 3, 3)) and F_3 at
(4, 6, 8) from 25 terms.
"""

import json
import logging
from pathlib import Path

import pytest

from multiderange import cli

GOLDEN = Path(__file__).with_name("guess_transcripts.json")
BOUNDS = ["--max-order", "3", "--max-deg-n", "3", "--max-deg-a", "3"]
CASES = [
    *(["guess", "-k", str(k), "--terms", str(fit + h), "--holdout", str(h), *BOUNDS]
      for k, fit in ((1, 35), (2, 25)) for h in range(3, 8)),
    ["guess", "-k", "3", "--terms", "25", "--max-order", "4", "--max-deg-n", "6",
     "--max-deg-a", "8"],
]


class _Lines(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.lines = []

    def emit(self, record):
        self.lines.append(record.getMessage())


def debug_lines(argv):
    """The guesser's DEBUG lines of one in-process run of the CLI."""
    logger = logging.getLogger("multiderange.guesser")
    handler, level = _Lines(), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        assert cli.main([*argv, "--format", "machine"]) == 0
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return handler.lines


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_debug_lines_match_the_golden_file(capsys, argv):
    want = json.loads(GOLDEN.read_text())[" ".join(argv)]
    got = debug_lines(argv)
    capsys.readouterr()
    assert got == want
    assert got[-1].endswith("accepted")


def test_golden_file_holds_exactly_these_cases():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(map(" ".join, CASES))
