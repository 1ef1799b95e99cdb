"""CERT feature extraction (Section V-A3) and the baseline's features.

ACOBE's sixteen fine-grained features across three behavioural aspects.
Following the paper literally -- "the value of each feature is computed
as the number of operation in terms of (feature, file-ID) pair that the
user never had conducted before day d" (and likewise (feature, domain)
for HTTP) -- the file and HTTP features are **novelty counts**, not raw
activity counts:

* **device** (2): f1 ``device-connect`` -- thumb-drive connections (a
  raw count; the paper defines it as "the number of connections");
  f2 ``device-new-host`` -- connections to a host the user never
  connected to before day d.
* **file** (7): f1-f6 count operations whose (direction-feature,
  file-id) pair is new for the user -- open-from-local/remote,
  write-to-local/remote, copy-local-to-remote / copy-remote-to-local;
  f7 ``file-new-op`` counts operations whose (activity, file-id) pair is
  new, across *every* activity including ones without their own feature
  (e.g. delete).
* **http** (7): f1-f6 count uploads whose (upload-filetype, domain) pair
  is new (doc/exe/jpg/pdf/txt/zip); f7 ``http-new-op`` counts operations
  whose (activity, domain) pair is new, across visits, downloads and
  uploads -- this is the feature that spikes group-wide on environmental
  changes (new services).

Novelty is evaluated against everything before day *d*: repeats within
day *d* itself still count as new, and the seen-sets are committed at
the end of the day.

The Liu et al. **Baseline** uses coarse-grained unweighted activity
counts in four aspects (device, file, http, logon) over 24 one-hour
time-frames; see :func:`extract_baseline_measurements`.
"""

from __future__ import annotations

from collections import Counter
from datetime import date
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.features.measurements import MeasurementCube
from repro.features.spec import AspectSpec, FeatureSet, FeatureSpec
from repro.logs.schema import DeviceEvent, Event, FileEvent, HttpEvent
from repro.logs.store import LogStore
from repro.utils.timeutil import TWO_TIMEFRAMES, TimeFrame, frame_index_of, hourly_timeframes

# ---------------------------------------------------------------------------
# ACOBE's fine-grained CERT features
# ---------------------------------------------------------------------------

DEVICE_ASPECT = AspectSpec(
    "device",
    (
        FeatureSpec("device-connect", "device", "thumb-drive connections"),
        FeatureSpec("device-new-host", "device", "connections to a never-seen host"),
    ),
)

FILE_ASPECT = AspectSpec(
    "file",
    (
        FeatureSpec("file-open-from-local", "file"),
        FeatureSpec("file-open-from-remote", "file"),
        FeatureSpec("file-write-to-local", "file"),
        FeatureSpec("file-write-to-remote", "file"),
        FeatureSpec("file-copy-local-to-remote", "file"),
        FeatureSpec("file-copy-remote-to-local", "file"),
        FeatureSpec("file-new-op", "file", "never-seen (operation, file-id) pairs"),
    ),
)

HTTP_ASPECT = AspectSpec(
    "http",
    (
        FeatureSpec("http-upload-doc", "http"),
        FeatureSpec("http-upload-exe", "http"),
        FeatureSpec("http-upload-jpg", "http"),
        FeatureSpec("http-upload-pdf", "http"),
        FeatureSpec("http-upload-txt", "http"),
        FeatureSpec("http-upload-zip", "http"),
        FeatureSpec("http-new-op", "http", "never-seen (activity, domain) pairs"),
    ),
)

#: The three CERT behavioural aspects, in ensemble order.
CERT_ASPECTS: Tuple[AspectSpec, ...] = (DEVICE_ASPECT, FILE_ASPECT, HTTP_ASPECT)

#: Upload file types with a dedicated ``http-upload-*`` feature.
UPLOAD_FILETYPES = ("doc", "exe", "jpg", "pdf", "txt", "zip")

# Backwards-compatible alias (pre-ingest name).
_UPLOAD_TYPES = UPLOAD_FILETYPES


def file_direction_feature(event: FileEvent) -> Optional[str]:
    """Map a file event to its direction feature name (None if untracked)."""
    if event.activity == "open":
        return f"file-open-from-{event.from_location}"
    if event.activity == "write":
        return f"file-write-to-{event.to_location}"
    if event.activity == "copy":
        return f"file-copy-{event.from_location}-to-{event.to_location}"
    return None


# Backwards-compatible alias (pre-ingest name).
_file_direction_feature = file_direction_feature


class _OpenDay:
    """Mutable per-day state held until the day seals."""

    __slots__ = ("raw", "pending")

    def __init__(self, n_users: int, n_features: int, n_timeframes: int) -> None:
        #: raw (order-independent) counts: device-connect increments land
        #: here immediately.
        self.raw = np.zeros((n_users, n_features, n_timeframes))
        #: candidate novelty counts, keyed per kind; resolved against the
        #: committed seen-sets only at seal time, because whether a key is
        #: "new" depends on every *earlier* day having committed first.
        self.pending: Dict[str, Counter] = {
            "hosts": Counter(),       # (u, host, t) -> n
            "file_pairs": Counter(),  # (u, direction-feature, file-id, t) -> n
            "file_ops": Counter(),    # (u, activity, file-id, t) -> n
            "http_pairs": Counter(),  # (u, upload-filetype, domain, t) -> n
            "http_ops": Counter(),    # (u, activity, domain, t) -> n
        }


class CertSlabAccumulator:
    """Incremental, order-independent CERT feature counting with day sealing.

    The single counting path shared by the batch extractor
    (:func:`extract_cert_measurements`) and the streaming ingestion layer
    (``repro.ingest.SlabBuilder``): events are :meth:`add`-ed in *any*
    order, and :meth:`seal` produces the finished
    ``(users, features, timeframes)`` slab for one day.

    Two classes of features make this work:

    * raw counts (``device-connect``) commute trivially -- they increment
      the open day's slab immediately;
    * novelty counts depend on the user's *committed* seen-sets ("never
      conducted before day d"; intra-day repeats each count as new), so
      candidate keys accumulate in per-open-day counters and resolve only
      when the day seals.  Because commits happen strictly in day order
      and per-day counts are small integers added into float64 cells, the
      sealed slab is bit-identical to the batch extractor's slice for the
      same event set, regardless of arrival order.

    Days must seal in ascending order (oldest open day first) -- sealing
    commits the day's observed keys into the seen-sets, which later days'
    novelty resolution depends on.  Adding an event to an already-sealed
    day raises ``ValueError``; callers with late data route it through a
    lateness policy *before* reaching the accumulator.
    """

    #: seen-set kinds whose entries are a scalar key rather than a tuple.
    _SCALAR_SEEN = ("hosts",)

    def __init__(
        self,
        users: Sequence[str],
        timeframes: Sequence[TimeFrame] = TWO_TIMEFRAMES,
    ) -> None:
        self.users: List[str] = list(users)
        self.timeframes: Tuple[TimeFrame, ...] = tuple(timeframes)
        self.feature_set = FeatureSet(CERT_ASPECTS)
        self._user_index = {user: u for u, user in enumerate(self.users)}
        self._f = {name: self.feature_set.index_of(name) for name in self.feature_set.feature_names}
        self._seen: Dict[str, List[set]] = {
            "hosts": [set() for _ in self.users],       # host
            "file_pairs": [set() for _ in self.users],  # (direction-feature, file-id)
            "file_ops": [set() for _ in self.users],    # (activity, file-id)
            "http_pairs": [set() for _ in self.users],  # (upload-filetype, domain)
            "http_ops": [set() for _ in self.users],    # (activity, domain)
        }
        #: Append-only commit log: one ``(kind, u, key)`` entry per key the
        #: first time it enters user ``u``'s seen-set, in commit order.  A
        #: checkpoint persists only the entries past its previous save.
        self._log: List[tuple] = []
        self._open: Dict[date, _OpenDay] = {}
        self._last_sealed: Optional[date] = None

    @property
    def last_sealed(self) -> Optional[date]:
        """The most recent (and highest) sealed day, or None."""
        return self._last_sealed

    @property
    def seen_rows(self) -> int:
        """Rows in the seen-set commit log (committed keys so far)."""
        return len(self._log)

    def open_days(self) -> List[date]:
        """Days with buffered state, ascending."""
        return sorted(self._open)

    def _day_state(self, day: date) -> _OpenDay:
        if self._last_sealed is not None and day <= self._last_sealed:
            raise ValueError(
                f"day {day.isoformat()} is already sealed "
                f"(cursor at {self._last_sealed.isoformat()})"
            )
        state = self._open.get(day)
        if state is None:
            state = self._open[day] = _OpenDay(
                len(self.users), len(self.feature_set), len(self.timeframes)
            )
        return state

    def add(self, event: Event) -> bool:
        """Aggregate one event into its (event-time) day.

        Returns:
            True when the event contributed to a tracked feature family,
            False when it was ignored (unknown user, or an event type /
            activity with no CERT feature).

        Raises:
            ValueError: the event's day has already been sealed.
        """
        u = self._user_index.get(event.user)
        if u is None:
            return False
        if isinstance(event, DeviceEvent):
            if event.activity != "connect":
                return False
            state = self._day_state(event.day)
            t = frame_index_of(self.timeframes, event.timestamp)
            state.raw[u, self._f["device-connect"], t] += 1
            state.pending["hosts"][(u, event.host, t)] += 1
            return True
        if isinstance(event, FileEvent):
            state = self._day_state(event.day)
            t = frame_index_of(self.timeframes, event.timestamp)
            direction = file_direction_feature(event)
            if direction is not None and direction in self._f:
                state.pending["file_pairs"][(u, direction, event.file_id, t)] += 1
            state.pending["file_ops"][(u, event.activity, event.file_id, t)] += 1
            return True
        if isinstance(event, HttpEvent):
            state = self._day_state(event.day)
            t = frame_index_of(self.timeframes, event.timestamp)
            if event.activity == "upload" and event.filetype in UPLOAD_FILETYPES:
                state.pending["http_pairs"][(u, event.filetype, event.domain, t)] += 1
            state.pending["http_ops"][(u, event.activity, event.domain, t)] += 1
            return True
        return False

    def seal(self, day: date) -> np.ndarray:
        """Finish ``day``: resolve novelties, commit seen-sets, free state.

        Returns:
            The day's ``(users, features, timeframes)`` float64 slab.

        Raises:
            ValueError: ``day`` is already sealed, or an earlier day is
                still open (days must seal oldest-first).
        """
        if self._last_sealed is not None and day <= self._last_sealed:
            raise ValueError(
                f"day {day.isoformat()} is already sealed "
                f"(cursor at {self._last_sealed.isoformat()})"
            )
        earlier = [d for d in self._open if d < day]
        if earlier:
            raise ValueError(
                f"cannot seal {day.isoformat()} while {min(earlier).isoformat()} "
                "is still open; novelty seen-sets commit strictly in day order"
            )
        state = self._open.pop(day, None)
        if state is None:
            # An empty calendar day: all-zero slab, nothing to commit.
            self._last_sealed = day
            return np.zeros((len(self.users), len(self.feature_set), len(self.timeframes)))

        slab = state.raw
        seen = self._seen
        f = self._f
        new: List[tuple] = []  # (kind, u, key) not yet seen, once per time-frame
        for (u, host, t), n in state.pending["hosts"].items():
            if host not in seen["hosts"][u]:
                slab[u, f["device-new-host"], t] += n
                new.append(("hosts", u, host))
        for (u, direction, file_id, t), n in state.pending["file_pairs"].items():
            key = (direction, file_id)
            if key not in seen["file_pairs"][u]:
                slab[u, f[direction], t] += n
                new.append(("file_pairs", u, key))
        for (u, activity, file_id, t), n in state.pending["file_ops"].items():
            key = (activity, file_id)
            if key not in seen["file_ops"][u]:
                slab[u, f["file-new-op"], t] += n
                new.append(("file_ops", u, key))
        for (u, filetype, domain, t), n in state.pending["http_pairs"].items():
            key = (filetype, domain)
            if key not in seen["http_pairs"][u]:
                slab[u, f[f"http-upload-{filetype}"], t] += n
                new.append(("http_pairs", u, key))
        for (u, activity, domain, t), n in state.pending["http_ops"].items():
            key = (activity, domain)
            if key not in seen["http_ops"][u]:
                slab[u, f["http-new-op"], t] += n
                new.append(("http_ops", u, key))

        # Commit the day's new keys only now that the day has ended
        # (intra-day repeats above all counted as new, per the paper),
        # logging each once.
        for entry in new:
            kind, u, key = entry
            per_user = seen[kind][u]
            if key not in per_user:
                per_user.add(key)
                self._log.append(entry)

        self._last_sealed = day
        return slab

    # -- checkpoint support -------------------------------------------------

    def export_state(self, seen_offset: int = 0) -> Tuple[dict, Dict[str, np.ndarray]]:
        """Serialize committed seen-sets and open-day buffers.

        Args:
            seen_offset: emit only the commit-log rows from this index
                on.  0 (the default) makes the document self-contained;
                a checkpoint that already holds rows ``[0, seen_offset)``
                passes its row count to write only what is new.

        Returns:
            ``(doc, arrays)`` -- a JSON-serializable document plus the
            open days' raw slabs (one float64 array per open day), ready
            for an ``npz`` payload.  The doc's ``seen`` holds the log
            entries from ``seen_offset`` on as ``{kind: {user index:
            keys}}``, a pair key flattened into two consecutive strings;
            ``seen_total`` is the log length.  With ``seen_offset=0``,
            :meth:`restore_state` round-trips them exactly.
        """
        # Flat string lists parse back into few container objects, which
        # keeps a resume cheap for the garbage collector.
        seen: Dict[str, Dict[str, list]] = {kind: {} for kind in self._seen}
        for kind, u, key in self._log[seen_offset:]:
            keys = seen[kind].setdefault(str(u), [])
            if kind in self._SCALAR_SEEN:
                keys.append(key)
            else:
                keys.extend(key)
        open_days = self.open_days()
        doc = {
            "users": list(self.users),
            "last_sealed": self._last_sealed.isoformat() if self._last_sealed else None,
            "seen": seen,
            "seen_total": len(self._log),
            "open_days": [d.isoformat() for d in open_days],
            "pending": {
                d.isoformat(): {
                    kind: sorted([*key, n] for key, n in counter.items())
                    for kind, counter in self._open[d].pending.items()
                }
                for d in open_days
            },
        }
        arrays = {f"open_raw_{i}": self._open[d].raw for i, d in enumerate(open_days)}
        return doc, arrays

    def restore_state(self, doc: dict, arrays: Dict[str, np.ndarray]) -> None:
        """Restore state captured by :meth:`export_state` (exact)."""
        if list(doc["users"]) != self.users:
            raise ValueError("accumulator state was captured for a different user list")
        last_sealed = doc.get("last_sealed")
        self._last_sealed = date.fromisoformat(last_sealed) if last_sealed else None
        # Log order only matters as a count (what a checkpoint already
        # holds), so the restored log lists the keys kind by kind.
        self._log = []
        for kind, sets in self._seen.items():
            for per_user in sets:
                per_user.clear()
            for user, flat in doc["seen"].get(kind, {}).items():
                u = int(user)
                if kind in self._SCALAR_SEEN:
                    keys = flat
                else:  # every other kind's key is a pair
                    keys = list(zip(flat[0::2], flat[1::2]))
                sets[u].update(keys)
                self._log.extend(zip(repeat(kind), repeat(u), keys))
        if len(self._log) != doc["seen_total"]:
            raise ValueError(
                f"accumulator state holds {len(self._log)} of {doc['seen_total']} seen "
                "keys; it was exported from a nonzero offset -- add the earlier ones"
            )
        self._open = {}
        for i, day_text in enumerate(doc["open_days"]):
            day = date.fromisoformat(day_text)
            state = self._open[day] = _OpenDay(
                len(self.users), len(self.feature_set), len(self.timeframes)
            )
            state.raw[...] = arrays[f"open_raw_{i}"]
            for kind, rows in doc["pending"][day_text].items():
                counter = state.pending[kind]
                for row in rows:
                    *key, n = row
                    counter[(int(key[0]), *key[1:-1], int(key[-1]))] = int(n)


def extract_cert_measurements(
    store: LogStore,
    users: Sequence[str],
    days: Sequence[date],
    timeframes: Sequence[TimeFrame] = TWO_TIMEFRAMES,
) -> MeasurementCube:
    """Extract ACOBE's 16 CERT features into a measurement cube.

    Drives the same :class:`CertSlabAccumulator` the streaming ingestion
    layer uses, one sealed day per cube column.

    Args:
        store: the organizational logs.
        users: users to extract (rows of the cube).
        days: consecutive days to extract, ascending.
        timeframes: intra-day split (paper default: working/off hours).

    Returns:
        A cube of shape ``(len(users), 16, len(timeframes), len(days))``.
    """
    days = sorted(days)
    accumulator = CertSlabAccumulator(users, timeframes)
    cube = np.zeros((len(users), len(accumulator.feature_set), len(timeframes), len(days)))

    for d, day in enumerate(days):
        for user in users:
            for type_name in ("device", "file", "http"):
                for event in store.events(user, type_name, day):
                    accumulator.add(event)
        cube[:, :, :, d] = accumulator.seal(day)

    return MeasurementCube(
        values=cube,
        users=list(users),
        feature_set=accumulator.feature_set,
        timeframes=tuple(timeframes),
        days=list(days),
    )


# ---------------------------------------------------------------------------
# Liu et al. baseline features (Section V-C)
# ---------------------------------------------------------------------------

BASELINE_DEVICE_ASPECT = AspectSpec(
    "device",
    (
        FeatureSpec("connect", "device"),
        FeatureSpec("disconnect", "device"),
    ),
)
BASELINE_FILE_ASPECT = AspectSpec(
    "file",
    (
        FeatureSpec("open", "file"),
        FeatureSpec("write", "file"),
        FeatureSpec("copy", "file"),
    ),
)
BASELINE_HTTP_ASPECT = AspectSpec(
    "http",
    (
        FeatureSpec("visit", "http"),
        FeatureSpec("download", "http"),
        FeatureSpec("upload", "http"),
    ),
)
BASELINE_LOGON_ASPECT = AspectSpec(
    "logon",
    (
        FeatureSpec("logon", "logon"),
        FeatureSpec("logoff", "logon"),
    ),
)

#: The baseline's four coarse-grained aspects.
BASELINE_ASPECTS: Tuple[AspectSpec, ...] = (
    BASELINE_DEVICE_ASPECT,
    BASELINE_FILE_ASPECT,
    BASELINE_HTTP_ASPECT,
    BASELINE_LOGON_ASPECT,
)

_BASELINE_ACTIVITY_TYPES = {
    "device": ("connect", "disconnect"),
    "file": ("open", "write", "copy"),
    "http": ("visit", "download", "upload"),
    "logon": ("logon", "logoff"),
}


def extract_baseline_measurements(
    store: LogStore,
    users: Sequence[str],
    days: Sequence[date],
    timeframes: Optional[Sequence[TimeFrame]] = None,
) -> MeasurementCube:
    """Extract the baseline's coarse activity counts.

    The baseline counts raw activities (connect, write, download, logoff,
    ...) per one-hour time-frame -- no novelty features, no weights, no
    group behaviour.

    Args:
        timeframes: defaults to the baseline's 24 one-hour frames.
    """
    timeframes = tuple(timeframes) if timeframes is not None else hourly_timeframes()
    feature_set = FeatureSet(BASELINE_ASPECTS)
    days = sorted(days)
    cube = np.zeros((len(users), len(feature_set), len(timeframes), len(days)))

    for u, user in enumerate(users):
        for d, day in enumerate(days):
            for type_name, activities in _BASELINE_ACTIVITY_TYPES.items():
                for event in store.events(user, type_name, day):
                    activity = event.activity
                    if activity not in activities:
                        continue
                    t = frame_index_of(timeframes, event.timestamp)
                    cube[u, feature_set.index_of(activity), t, d] += 1

    return MeasurementCube(
        values=cube,
        users=list(users),
        feature_set=feature_set,
        timeframes=timeframes,
        days=list(days),
    )
