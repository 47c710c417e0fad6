"""Model parameters are admitted as queries are: ``eps`` and the bin count
``k`` go through ``operator.index``, so a float or a string raises
``DictboostError`` rather than being truncated or failing inside numpy,
and a numpy integer builds the model a Python int builds.

Answers are checked against ``np.searchsorted`` through ``bulk_rank``.
"""

import numpy as np
import pytest

from dictboost.binning import bin_starts, build_binning
from dictboost.core import MAX_KEY, DictboostError, SortedKeySet
from dictboost.dynamic import DynamicBinDict
from dictboost.segments import build_segments

from conftest import bulk_rank

# each model with its integer parameter: eps for segments, k for the others
MODELS = {
    "segments": build_segments,
    "binning": build_binning,
    "dynamic": DynamicBinDict,
}

# keys up to 2**64 - 1, where a numpy bin count once overflowed the bin arithmetic
KEYS = [0, 3, 5, 8, 13, 21, 34, 2**40, 2**40 + 9, 2**63 + 1, MAX_KEY - 2, MAX_KEY]


def assert_answers_like_searchsorted(d) -> None:
    probes = sorted({q for x in KEYS for q in (x - 1, x, x + 1) if 0 <= q <= MAX_KEY})
    ranks, found = bulk_rank(SortedKeySet(KEYS), probes)
    assert [tuple(d.rank_search(q)) for q in probes] == list(zip(ranks.tolist(), found.tolist()))


@pytest.mark.parametrize("model", list(MODELS))
@pytest.mark.parametrize("param", [1.5, 10.5, 3.0, "3", None, [3]],
                         ids=["fraction", "ten-and-a-half", "whole-float", "str", "none", "list"])
def test_a_non_integer_parameter_raises(model, param):
    """Before, ``build_segments(ks, 1.5)`` fitted at eps 1,
    ``DynamicBinDict(ks, 10.5)`` used 10 bins, ``build_binning(ks, 10.5)``
    raised numpy's ``TypeError`` and ``build_segments(ks, "3")`` a bare
    one."""
    with pytest.raises(DictboostError, match="not an integer") as raised:
        MODELS[model](KEYS, param)
    assert not isinstance(raised.value, TypeError)


@pytest.mark.parametrize("model", list(MODELS))
@pytest.mark.parametrize("typed", [np.int64, np.uint64, np.int32, np.uint8])
def test_a_numpy_integer_parameter_builds_like_an_int(model, typed):
    got = MODELS[model](KEYS, typed(3))
    assert_answers_like_searchsorted(got)
    if model == "segments":
        assert got.segments == build_segments(KEYS, 3).segments
    else:
        assert got.k == 3 and type(got.k) is int


def test_bin_starts_admits_its_bin_count():
    keys = SortedKeySet(KEYS)
    with pytest.raises(DictboostError, match="not an integer"):
        bin_starts(keys, 10.5)
    assert bin_starts(keys, np.int64(4)).tolist() == bin_starts(keys, 4).tolist()
