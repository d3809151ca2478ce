import math

import pytest
from hypothesis import given, strategies as st

from fdjam import db_to_linear, dbm_to_watts, linear_to_db, watts_to_dbm


def test_dbm_reference_points():
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-15)
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-15)
    assert dbm_to_watts(-90.0) == pytest.approx(1e-12, rel=1e-15)


@given(st.floats(min_value=-120.0, max_value=60.0))
def test_dbm_round_trip(x):
    assert watts_to_dbm(dbm_to_watts(x)) == pytest.approx(x, rel=1e-12, abs=1e-12)


@given(st.floats(min_value=-120.0, max_value=60.0))
def test_db_round_trip(x):
    assert linear_to_db(db_to_linear(x)) == pytest.approx(x, rel=1e-12, abs=1e-12)


def test_rejects_nonsense():
    with pytest.raises(ValueError):
        dbm_to_watts(math.inf)
    with pytest.raises(ValueError):
        watts_to_dbm(0.0)
    with pytest.raises(ValueError):
        watts_to_dbm(-1.0)
    with pytest.raises(ValueError):
        linear_to_db(0.0)


@pytest.mark.parametrize("convert, message", [
    (watts_to_dbm, "power must be > 0 W to express in dBm, got nan"),
    (linear_to_db, "ratio must be > 0 to express in dB, got nan"),
    (db_to_linear, "dB value must be finite, got nan"),
    (dbm_to_watts, "dBm value must be finite, got nan"),
])
def test_rejects_nan(convert, message):
    with pytest.raises(ValueError, match=message):
        convert(math.nan)
