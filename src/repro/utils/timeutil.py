"""Time-frame and calendar primitives.

The paper splits each day into time-frames: ACOBE uses two (working
hours 06:00-18:00 and off hours 18:00-06:00), while the Liu et al.
baseline uses twenty-four one-hour frames.  A :class:`TimeFrame` decides
membership purely from the hour-of-day, which is all the paper's feature
aggregation needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime, timedelta
from functools import lru_cache
from typing import Callable, Iterator, List, Sequence, Tuple


@dataclass(frozen=True)
class TimeFrame:
    """A named slice of the 24-hour day.

    ``start_hour`` is inclusive and ``end_hour`` exclusive; frames that
    wrap midnight (e.g. off hours 18:00-06:00) are expressed with
    ``start_hour > end_hour``.
    """

    name: str
    start_hour: int
    end_hour: int

    def __post_init__(self) -> None:
        for hour in (self.start_hour, self.end_hour):
            if not 0 <= hour <= 24:
                raise ValueError(f"hour out of range in {self.name!r}: {hour}")
        if self.start_hour == self.end_hour:
            raise ValueError(f"time-frame {self.name!r} is empty")

    @property
    def wraps_midnight(self) -> bool:
        return self.start_hour > self.end_hour

    @property
    def n_hours(self) -> int:
        if self.wraps_midnight:
            return (24 - self.start_hour) + self.end_hour
        return self.end_hour - self.start_hour

    def contains_hour(self, hour: int) -> bool:
        """Whether an hour-of-day (0-23) falls inside this frame."""
        if not 0 <= hour < 24:
            raise ValueError(f"hour must be in [0, 24), got {hour}")
        if self.wraps_midnight:
            return hour >= self.start_hour or hour < self.end_hour
        return self.start_hour <= hour < self.end_hour

    def contains(self, ts: datetime) -> bool:
        """Whether a timestamp falls inside this frame."""
        return self.contains_hour(ts.hour)


WORKING_HOURS = TimeFrame("working-hours", 6, 18)
OFF_HOURS = TimeFrame("off-hours", 18, 6)

#: ACOBE's default two-frame split (Section IV-A).
TWO_TIMEFRAMES: Tuple[TimeFrame, ...] = (WORKING_HOURS, OFF_HOURS)


def hourly_timeframes() -> Tuple[TimeFrame, ...]:
    """The baseline's 24 one-hour frames (Section V-C)."""
    return tuple(TimeFrame(f"h{h:02d}", h, h + 1 if h < 23 else 24) for h in range(24))


def date_range(start: date, end: date) -> List[date]:
    """All dates from ``start`` to ``end`` inclusive."""
    if end < start:
        raise ValueError(f"end {end} precedes start {start}")
    n = (end - start).days + 1
    return [start + timedelta(days=i) for i in range(n)]


def iter_days(start: date, n_days: int) -> Iterator[date]:
    """Yield ``n_days`` consecutive dates starting at ``start``."""
    if n_days < 0:
        raise ValueError(f"n_days must be non-negative, got {n_days}")
    for i in range(n_days):
        yield start + timedelta(days=i)


@lru_cache(maxsize=32)
def frame_lookup(timeframes: Tuple[TimeFrame, ...]) -> Callable[[datetime], int]:
    """A cached ``ts -> frame index`` resolver for one frame set.

    It reads a 24-entry hour-to-frame table built once per frame set, so
    a hot loop pays one tuple index per event instead of a membership
    test per frame.  Like :func:`frame_index_of`, it returns the first
    frame containing the hour and raises ``ValueError`` for an hour no
    frame covers.
    """
    table = tuple(
        next((i for i, frame in enumerate(timeframes) if frame.contains_hour(hour)), None)
        for hour in range(24)
    )

    def frame_of(ts: datetime) -> int:
        t = table[ts.hour]
        if t is None:
            raise ValueError(f"no time-frame covers hour {ts.hour} ({ts.isoformat()})")
        return t

    return frame_of


def frame_index_of(timeframes: Sequence[TimeFrame], ts: datetime) -> int:
    """Index of the first frame containing ``ts``.

    Raises:
        ValueError: when no frame contains the timestamp (the frames do
            not cover that hour).
    """
    return frame_lookup(tuple(timeframes))(ts)
