"""SlabBuilder / CertSlabAccumulator: incremental counting semantics."""

from datetime import date, datetime
from itertools import product

import numpy as np
import pytest

from repro.features.cert import FILE_ASPECT, CertSlabAccumulator, extract_cert_measurements
from repro.ingest import SlabBuilder, arrival_order, shuffled_arrival
from repro.logs.schema import (
    FILE_ACTIVITIES,
    FILE_LOCATIONS,
    DeviceEvent,
    FileEvent,
    HttpEvent,
    LogonEvent,
)
from repro.logs.store import LogStore
from repro.utils.timeutil import WORKING_HOURS

USERS = ["u0", "u1"]


def feature_index(builder, name):
    return builder.feature_set.index_of(name)


def day_connect(day, user="u0", host="H1", hour=10):
    return DeviceEvent(datetime(2010, 3, day, hour), user, "connect", host)


class TestAccumulatorSemantics:
    def test_raw_count_increments_per_event(self):
        acc = CertSlabAccumulator(USERS)
        acc.add(day_connect(1))
        acc.add(day_connect(1))
        slab = acc.seal(date(2010, 3, 1))
        f = acc.feature_set.index_of("device-connect")
        assert slab[0, f, 0] == 2.0

    def test_intra_day_repeats_each_count_as_new(self):
        # The paper's novelty definition: "never conducted before day d";
        # repeats within day d itself all count.
        acc = CertSlabAccumulator(USERS)
        acc.add(day_connect(1))
        acc.add(day_connect(1))
        slab = acc.seal(date(2010, 3, 1))
        f = acc.feature_set.index_of("device-new-host")
        assert slab[0, f, 0] == 2.0

    def test_novelty_commits_at_seal(self):
        acc = CertSlabAccumulator(USERS)
        acc.add(day_connect(1))
        acc.seal(date(2010, 3, 1))
        acc.add(day_connect(2))  # same host, next day: no longer new
        slab = acc.seal(date(2010, 3, 2))
        f = acc.feature_set.index_of("device-new-host")
        assert slab[0, f, 0] == 0.0

    def test_novelty_is_per_user(self):
        acc = CertSlabAccumulator(USERS)
        acc.add(day_connect(1, user="u0"))
        acc.seal(date(2010, 3, 1))
        acc.add(day_connect(2, user="u1"))  # new for u1 even if u0 saw it
        slab = acc.seal(date(2010, 3, 2))
        f = acc.feature_set.index_of("device-new-host")
        assert slab[1, f, 0] == 1.0

    def test_disconnect_and_unknown_user_ignored(self):
        acc = CertSlabAccumulator(USERS)
        assert not acc.add(
            DeviceEvent(datetime(2010, 3, 1, 10), "u0", "disconnect", "H1")
        )
        assert not acc.add(day_connect(1, user="stranger"))
        assert np.all(acc.seal(date(2010, 3, 1)) == 0.0)

    def test_untracked_event_types_ignored(self):
        acc = CertSlabAccumulator(USERS)
        assert not acc.add(LogonEvent(datetime(2010, 3, 1, 9), "u0", "logon", "PC-1"))

    def test_file_direction_and_new_op(self):
        acc = CertSlabAccumulator(USERS)
        acc.add(FileEvent(datetime(2010, 3, 1, 10), "u0", "open", "f1",
                          from_location="remote"))
        slab = acc.seal(date(2010, 3, 1))
        assert slab[0, acc.feature_set.index_of("file-open-from-remote"), 0] == 1.0
        assert slab[0, acc.feature_set.index_of("file-new-op"), 0] == 1.0

    def test_http_upload_pair_and_new_op(self):
        acc = CertSlabAccumulator(USERS)
        acc.add(HttpEvent(datetime(2010, 3, 1, 10), "u0", "upload", "evil.com",
                          filetype="zip"))
        slab = acc.seal(date(2010, 3, 1))
        assert slab[0, acc.feature_set.index_of("http-upload-zip"), 0] == 1.0
        assert slab[0, acc.feature_set.index_of("http-new-op"), 0] == 1.0

    def test_off_hours_land_in_second_frame(self):
        acc = CertSlabAccumulator(USERS)
        acc.add(day_connect(1, hour=22))
        slab = acc.seal(date(2010, 3, 1))
        assert slab[0, acc.feature_set.index_of("device-connect"), 1] == 1.0

    def test_add_to_sealed_day_raises(self):
        acc = CertSlabAccumulator(USERS)
        acc.seal(date(2010, 3, 1))
        with pytest.raises(ValueError, match="already sealed"):
            acc.add(day_connect(1))

    def test_seal_out_of_order_raises(self):
        acc = CertSlabAccumulator(USERS)
        acc.add(day_connect(1))
        acc.add(day_connect(2))
        with pytest.raises(ValueError, match="day order"):
            acc.seal(date(2010, 3, 2))

    def test_empty_day_seals_to_zero_slab(self):
        acc = CertSlabAccumulator(USERS)
        slab = acc.seal(date(2010, 3, 1))
        assert slab.shape == (2, len(acc.feature_set), 2)
        assert np.all(slab == 0.0)

    def test_every_file_operation_counts_its_direction_feature(self):
        # The precomputed direction table, against the per-event naming
        # rule it replaces, for every valid file event.
        directions = [f for f in FILE_ASPECT.feature_names if f != "file-new-op"]
        checked = 0
        for activity, src, dst in product(
            FILE_ACTIVITIES, (None, *FILE_LOCATIONS), (None, *FILE_LOCATIONS)
        ):
            try:
                event = FileEvent(datetime(2010, 3, 1, 10), "u0", activity, "f1", src, dst)
            except ValueError:
                continue  # not a valid file event
            acc = CertSlabAccumulator(USERS)
            acc.add(event)
            slab = acc.seal(date(2010, 3, 1))
            expected = {
                "open": f"file-open-from-{src}",
                "write": f"file-write-to-{dst}",
                "copy": f"file-copy-{src}-to-{dst}",
            }.get(activity)
            for name in directions:
                count = slab[0, acc.feature_set.index_of(name), 0]
                assert count == (1.0 if name == expected else 0.0), (event, name)
            checked += 1
        assert checked == 6 + 6 + 4 + 9  # open, write, copy, delete

    def test_uncovered_hour_refused_before_any_state(self):
        acc = CertSlabAccumulator(USERS, timeframes=(WORKING_HOURS,))
        with pytest.raises(ValueError, match="no time-frame covers hour 20"):
            acc.add(day_connect(1, hour=20))
        assert acc.open_days() == []
        # Untracked events never resolve a frame, so they are not refused.
        assert not acc.add(DeviceEvent(datetime(2010, 3, 1, 20), "u0", "disconnect", "H1"))


class TestBuilderDedup:
    def test_duplicate_fingerprint_rejected(self):
        builder = SlabBuilder(USERS)
        assert builder.add(day_connect(1), "r1")
        assert not builder.add(day_connect(1), "r1")
        slab = builder.seal(date(2010, 3, 1))
        assert slab[0, feature_index(builder, "device-connect"), 0] == 1.0

    def test_identical_events_with_distinct_fingerprints_both_count(self):
        # Fingerprints identify deliveries, not content: real logs hold
        # naturally identical events and both must count (bit-identity
        # with the batch extractor depends on it).
        builder = SlabBuilder(USERS)
        assert builder.add(day_connect(1), "r1")
        assert builder.add(day_connect(1), "r2")
        slab = builder.seal(date(2010, 3, 1))
        assert slab[0, feature_index(builder, "device-connect"), 0] == 2.0

    def test_buffered_record_accounting(self):
        builder = SlabBuilder(USERS)
        builder.add(day_connect(1), "r1")
        builder.add(day_connect(2), "r2")
        builder.add(day_connect(2), "r2")  # duplicate: not re-counted
        assert builder.buffered_records == 2
        assert builder.records_in(date(2010, 3, 1)) == 1
        builder.seal(date(2010, 3, 1))
        assert builder.buffered_records == 1

    def test_untracked_event_fingerprint_still_recorded(self):
        builder = SlabBuilder(USERS)
        event = LogonEvent(datetime(2010, 3, 1, 9), "u0", "logon", "PC-1")
        assert builder.add(event, "r1")
        assert builder.is_duplicate(date(2010, 3, 1), "r1")

    def test_uncovered_hour_refusal_records_nothing(self):
        builder = SlabBuilder(USERS, timeframes=(WORKING_HOURS,))
        with pytest.raises(ValueError, match="no time-frame covers hour 20"):
            builder.add(day_connect(1, hour=20), "r1")
        assert builder.open_days() == []
        assert builder.buffered_records == 0
        # The refused delivery was not recorded, so it is not a duplicate.
        assert not builder.is_duplicate(date(2010, 3, 1), "r1")

    def test_precomputed_day_matches_derived_day(self):
        derived, given = SlabBuilder(USERS), SlabBuilder(USERS)
        for i, event in enumerate([day_connect(1), day_connect(1, hour=22), day_connect(2)]):
            derived.add(event, f"r{i}")
            given.add(event, f"r{i}", event.day)
        for day in (date(2010, 3, 1), date(2010, 3, 2)):
            np.testing.assert_array_equal(derived.seal(day), given.seal(day))

    def test_add_to_sealed_day_raises_even_for_untracked(self):
        builder = SlabBuilder(USERS)
        builder.seal(date(2010, 3, 1))
        with pytest.raises(ValueError, match="already sealed"):
            builder.add(LogonEvent(datetime(2010, 3, 1, 9), "u0", "logon", "PC-1"), "r1")


class TestOrderIndependence:
    def test_shuffled_within_window_matches_batch_extractor(self, tiny_dataset, tiny_org,
                                                            tiny_calendar):
        users = tiny_org.user_ids()
        days = tiny_calendar.days()
        cube = extract_cert_measurements(tiny_dataset.store, users, days)

        records = shuffled_arrival(
            arrival_order(tiny_dataset.store), seed=17, max_lateness_days=1
        )
        builder = SlabBuilder(users)
        sealed = {}
        watermark = 1
        for record in records:
            day = record.event.day
            # Seal everything the 1-day watermark allows before adding.
            for open_day in list(builder.open_days()):
                if (day - open_day).days > watermark:
                    sealed[open_day] = builder.seal(open_day)
            builder.add(record.event, record.fingerprint)
        for open_day in builder.open_days():
            sealed[open_day] = builder.seal(open_day)

        for d, day in enumerate(days):
            expected = cube.values[:, :, :, d]
            got = sealed.get(day)
            if got is None:
                assert np.all(expected == 0.0)
            else:
                np.testing.assert_array_equal(got, expected)


class TestStateRoundTrip:
    def test_export_restore_is_exact(self):
        builder = SlabBuilder(USERS)
        builder.add(day_connect(1), "r1")
        builder.seal(date(2010, 3, 1))
        builder.add(day_connect(2, host="H2"), "r2")
        builder.add(FileEvent(datetime(2010, 3, 2, 23), "u1", "copy", "f9",
                              from_location="local", to_location="remote"), "r3")
        doc, arrays = builder.export_state()

        import json

        doc = json.loads(json.dumps(doc))  # must survive a JSON round-trip
        clone = SlabBuilder(USERS)
        clone.restore_state(doc, arrays)
        assert clone.buffered_records == builder.buffered_records
        assert clone.open_days() == builder.open_days()
        assert clone.is_duplicate(date(2010, 3, 2), "r2")
        np.testing.assert_array_equal(
            clone.seal(date(2010, 3, 2)), builder.seal(date(2010, 3, 2))
        )

    def test_restore_rejects_different_users(self):
        builder = SlabBuilder(USERS)
        doc, arrays = builder.export_state()
        other = SlabBuilder(["x0", "x1"])
        with pytest.raises(ValueError, match="different user list"):
            other.restore_state(doc, arrays)
