"""The exact oracle reproduces its committed answers on the reference profiles.

A regression pin, not a correctness claim: a refactor of the oracle keeps
every answer within 1e-12. A change that alters the answers on purpose
regenerates the fixture with ``tests/make_oracle_reference.py``.
"""

import json

import numpy as np
import pytest

from make_oracle_reference import FIXTURE, REFERENCE_CASES, oracle_answers

PINS = json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case():
    assert sorted(PINS) == sorted(REFERENCE_CASES)


@pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
def test_oracle_answers_are_unchanged(name):
    pin = PINS[name]
    now = oracle_answers(name, pin["profile"])
    for query, answer in now.items():
        if pin[query] is None:
            assert answer is None, query
        else:
            np.testing.assert_allclose(answer, pin[query], rtol=0, atol=1e-12,
                                       err_msg=query)
