from itertools import islice

import pytest

from multiderange.selftest import compositions


def recursive_compositions(total):
    """The recursive definition, kept as the reference for the order."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in recursive_compositions(total - first):
            yield (first,) + rest


@pytest.mark.parametrize("total", range(-1, 9))
def test_compositions_match_the_recursive_definition(total):
    assert list(compositions(total)) == list(recursive_compositions(total))


def test_compositions_have_no_recursion_cliff():
    # the recursive definition raised RecursionError before its first tuple
    first_two = list(islice(compositions(5000), 2))
    assert first_two == [(1,) * 5000, (1,) * 4998 + (2,)]
