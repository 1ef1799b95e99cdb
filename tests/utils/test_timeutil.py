"""TimeFrame and date-range tests, including coverage properties."""

from datetime import date, datetime

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.timeutil import (
    OFF_HOURS,
    TWO_TIMEFRAMES,
    WORKING_HOURS,
    TimeFrame,
    date_range,
    frame_index_of,
    frame_lookup,
    hourly_timeframes,
    iter_days,
)


class TestTimeFrame:
    def test_working_hours_bounds(self):
        assert WORKING_HOURS.contains_hour(6)
        assert WORKING_HOURS.contains_hour(17)
        assert not WORKING_HOURS.contains_hour(18)
        assert not WORKING_HOURS.contains_hour(5)

    def test_off_hours_wraps_midnight(self):
        assert OFF_HOURS.wraps_midnight
        assert OFF_HOURS.contains_hour(23)
        assert OFF_HOURS.contains_hour(0)
        assert OFF_HOURS.contains_hour(5)
        assert not OFF_HOURS.contains_hour(6)

    def test_n_hours(self):
        assert WORKING_HOURS.n_hours == 12
        assert OFF_HOURS.n_hours == 12

    def test_contains_timestamp(self):
        assert WORKING_HOURS.contains(datetime(2010, 1, 1, 9))
        assert OFF_HOURS.contains(datetime(2010, 1, 1, 22))

    def test_rejects_empty_frame(self):
        with pytest.raises(ValueError):
            TimeFrame("empty", 4, 4)

    def test_rejects_out_of_range_hour(self):
        with pytest.raises(ValueError):
            TimeFrame("bad", -1, 5)

    def test_contains_hour_rejects_25(self):
        with pytest.raises(ValueError):
            WORKING_HOURS.contains_hour(24)

    @given(st.integers(min_value=0, max_value=23))
    def test_two_frames_partition_the_day(self, hour):
        memberships = [f.contains_hour(hour) for f in TWO_TIMEFRAMES]
        assert sum(memberships) == 1

    @given(st.integers(min_value=0, max_value=23))
    def test_hourly_frames_partition_the_day(self, hour):
        frames = hourly_timeframes()
        assert len(frames) == 24
        assert sum(f.contains_hour(hour) for f in frames) == 1


class TestFrameIndex:
    def test_index_of_working(self):
        assert frame_index_of(TWO_TIMEFRAMES, datetime(2010, 1, 1, 10)) == 0
        assert frame_index_of(TWO_TIMEFRAMES, datetime(2010, 1, 1, 20)) == 1

    def test_no_cover_raises(self):
        with pytest.raises(ValueError):
            frame_index_of((WORKING_HOURS,), datetime(2010, 1, 1, 20))

    @pytest.mark.parametrize(
        "timeframes",
        [
            TWO_TIMEFRAMES,
            hourly_timeframes(),
            # Leaves 12:00-14:00 and 20:00-22:00 uncovered; 15:00-17:00 is
            # in two frames, so "first frame wins" is exercised too.
            (TimeFrame("a", 22, 12), TimeFrame("b", 14, 20), TimeFrame("c", 15, 17)),
        ],
        ids=["two", "hourly", "gapped"],
    )
    def test_lookup_table_matches_per_frame_loop(self, timeframes):
        lookup = frame_lookup(timeframes)
        for hour in range(24):
            ts = datetime(2010, 1, 1, hour, 30)
            expected = next(
                (i for i, frame in enumerate(timeframes) if frame.contains(ts)), None
            )
            if expected is None:
                message = f"no time-frame covers hour {hour} ({ts.isoformat()})"
                with pytest.raises(ValueError) as lookup_error:
                    lookup(ts)
                with pytest.raises(ValueError) as index_error:
                    frame_index_of(list(timeframes), ts)
                assert str(lookup_error.value) == str(index_error.value) == message
            else:
                assert lookup(ts) == frame_index_of(list(timeframes), ts) == expected

    def test_lookup_is_cached_per_frame_set(self):
        assert frame_lookup(TWO_TIMEFRAMES) is frame_lookup(tuple(TWO_TIMEFRAMES))
        assert frame_lookup(TWO_TIMEFRAMES) is not frame_lookup(hourly_timeframes())


class TestDateRange:
    def test_inclusive(self):
        days = date_range(date(2010, 1, 1), date(2010, 1, 3))
        assert days == [date(2010, 1, 1), date(2010, 1, 2), date(2010, 1, 3)]

    def test_single_day(self):
        assert date_range(date(2010, 1, 1), date(2010, 1, 1)) == [date(2010, 1, 1)]

    def test_reversed_raises(self):
        with pytest.raises(ValueError):
            date_range(date(2010, 1, 2), date(2010, 1, 1))

    def test_iter_days(self):
        days = list(iter_days(date(2010, 1, 30), 3))
        assert days == [date(2010, 1, 30), date(2010, 1, 31), date(2010, 2, 1)]

    def test_iter_days_negative_raises(self):
        with pytest.raises(ValueError):
            list(iter_days(date(2010, 1, 1), -1))

    @given(st.integers(min_value=0, max_value=400))
    def test_range_length(self, n):
        start = date(2010, 1, 1)
        days = list(iter_days(start, n))
        assert len(days) == n
        if n > 1:
            assert (days[-1] - days[0]).days == n - 1
