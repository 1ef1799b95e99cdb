"""Property tests: the ingest bit-identity guarantee, stated generally.

For ANY random event set, ANY arrival permutation whose lateness stays
within the watermark, ANY injected duplicate re-deliveries, and ANY
mid-stream export/restore cut -- in memory or through the on-disk
checkpoint -- the sealed slabs are bit-identical to the batch extractor
run over the same events.
"""

import functools
import json
import tempfile
from datetime import date, datetime, timedelta
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.detector import CompoundBehaviorModel, ModelConfig
from repro.core.streaming import StreamingDetector
from repro.features.cert import CERT_ASPECTS, extract_cert_measurements
from repro.features.measurements import MeasurementCube
from repro.features.spec import FeatureSet
from repro.ingest import (
    ArrivalRecord,
    IngestConfig,
    Ingestor,
    SlabBuilder,
    inject_duplicates,
    resume_ingest,
    save_ingest_checkpoint,
    shuffled_arrival,
)
from repro.logs.schema import DeviceEvent, FileEvent, HttpEvent
from repro.logs.store import LogStore
from repro.nn.autoencoder import AutoencoderConfig
from repro.utils.timeutil import TWO_TIMEFRAMES

USERS = ["u0", "u1", "u2"]
START = date(2012, 5, 1)
N_DAYS = 6
DAYS = [START + timedelta(days=i) for i in range(N_DAYS)]


@st.composite
def events(draw):
    """One random CERT event within the test range."""
    day = draw(st.integers(0, N_DAYS - 1))
    hour = draw(st.integers(0, 23))
    user = draw(st.sampled_from(USERS))
    timestamp = datetime(START.year, START.month, START.day + day, hour,
                         draw(st.integers(0, 59)))
    kind = draw(st.sampled_from(["device", "file", "http"]))
    if kind == "device":
        return DeviceEvent(
            timestamp, user,
            draw(st.sampled_from(["connect", "disconnect"])),
            draw(st.sampled_from(["H1", "H2", "H3"])),
        )
    if kind == "file":
        activity = draw(st.sampled_from(["open", "write", "copy", "delete"]))
        from_location = draw(st.sampled_from(["local", "remote"]))
        to_location = draw(st.sampled_from(["local", "remote"]))
        return FileEvent(
            timestamp, user, activity,
            draw(st.sampled_from(["f1", "f2", "f3", "f4"])),
            from_location=from_location if activity in ("open", "copy") else None,
            to_location=to_location if activity in ("write", "copy") else None,
        )
    activity = draw(st.sampled_from(["visit", "download", "upload"]))
    if activity == "visit":
        filetype = None
    else:
        filetype = draw(st.sampled_from(["zip", "doc", "other"]))
    return HttpEvent(
        timestamp, user, activity,
        draw(st.sampled_from(["a.com", "b.org"])),
        filetype=filetype,
    )


def batch_cube(event_list):
    store = LogStore()
    store.extend(event_list)
    return extract_cert_measurements(store, USERS, DAYS)


def run_ingest(records, lateness, cut=None):
    """Push records through an Ingestor; optional export/restore at cut."""
    config = IngestConfig(allowed_lateness_days=lateness, start_day=DAYS[0],
                          max_open_days=N_DAYS + 1)
    ingestor = Ingestor(SlabBuilder(USERS), None, config)
    sealed = {}
    for index, record in enumerate(records):
        if cut is not None and index == cut:
            doc, arrays = ingestor.export_state()
            doc = json.loads(json.dumps(doc))  # as the checkpoint would
            ingestor = Ingestor(SlabBuilder(USERS), None, config)
            ingestor.restore_state(doc, arrays)
        for result in ingestor.push(record.event, record.fingerprint):
            sealed[result.day] = result.slab
    for result in ingestor.flush(until=DAYS[-1]):
        sealed[result.day] = result.slab
    return sealed, ingestor


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    event_list=st.lists(events(), min_size=1, max_size=60),
    lateness=st.integers(0, 2),
    shuffle_seed=st.integers(0, 10_000),
    dup_seed=st.integers(0, 10_000),
)
def test_shuffle_lateness_duplicates_bit_identical(event_list, lateness,
                                                   shuffle_seed, dup_seed):
    cube = batch_cube(event_list)
    records = [ArrivalRecord(e, f"r{i}") for i, e in enumerate(event_list)]
    records = shuffled_arrival(records, seed=shuffle_seed, max_lateness_days=lateness)
    records = inject_duplicates(records, seed=dup_seed, fraction=0.2)

    sealed, ingestor = run_ingest(records, lateness)
    assert ingestor.events_late == 0  # bounded shuffle never produces lates
    assert ingestor.events_duplicate == len(records) - len(event_list)
    assert sorted(sealed) == DAYS
    for d, day in enumerate(DAYS):
        np.testing.assert_array_equal(sealed[day], cube.values[:, :, :, d])


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    event_list=st.lists(events(), min_size=2, max_size=40),
    shuffle_seed=st.integers(0, 10_000),
    cut_fraction=st.floats(0.0, 1.0),
)
def test_export_restore_at_any_cut_bit_identical(event_list, shuffle_seed,
                                                 cut_fraction):
    cube = batch_cube(event_list)
    records = [ArrivalRecord(e, f"r{i}") for i, e in enumerate(event_list)]
    records = shuffled_arrival(records, seed=shuffle_seed, max_lateness_days=1)
    cut = int(cut_fraction * len(records))

    sealed, _ = run_ingest(records, lateness=1, cut=cut)
    for d, day in enumerate(DAYS):
        np.testing.assert_array_equal(sealed[day], cube.values[:, :, :, d])


GROUP_MAP = {"u0": "g1", "u1": "g1", "u2": "g2"}


@functools.lru_cache(maxsize=None)
def stream_model():
    """A tiny fitted model, so the ingestor can ride a real checkpoint."""
    features = FeatureSet(CERT_ASPECTS)
    n_train = 10
    train_days = [START - timedelta(days=n_train - i) for i in range(n_train)]
    values = np.random.default_rng(0).poisson(
        1.0, size=(len(USERS), len(features), len(TWO_TIMEFRAMES), n_train)
    ).astype(float)
    cube = MeasurementCube(values, USERS, features, TWO_TIMEFRAMES, train_days)
    autoencoder = AutoencoderConfig(
        encoder_units=(4, 2), epochs=1, batch_size=8,
        early_stopping_patience=None, validation_split=0.0, seed=1,
    )
    model = CompoundBehaviorModel(
        ModelConfig(window=2, matrix_days=2, critic_n=1, autoencoder=autoencoder)
    )
    model.fit(cube, GROUP_MAP, train_days)
    return model


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    event_list=st.lists(events(), min_size=20, max_size=60),
    shuffle_seed=st.integers(0, 10_000),
    cut_fraction=st.floats(0.0, 1.0),
)
def test_on_disk_save_and_resume_at_any_cut_bit_identical(event_list, shuffle_seed,
                                                          cut_fraction):
    # Saves after every sealed day with compaction at two segments, then
    # "crashes" at the cut: the resumed ingestor reads whatever the last
    # save committed (one or two carried segments) and the replay
    # continues from its delivery count, saving on as before.
    cube = batch_cube(event_list)
    records = [ArrivalRecord(e, f"r{i}") for i, e in enumerate(event_list)]
    records = shuffled_arrival(records, seed=shuffle_seed, max_lateness_days=1)
    cut = int(cut_fraction * len(records))
    model = stream_model()
    config = IngestConfig(allowed_lateness_days=1, start_day=DAYS[0],
                          max_open_days=N_DAYS + 1)

    def fresh():
        return Ingestor(SlabBuilder(USERS), StreamingDetector(model, USERS, GROUP_MAP), config)

    sealed = {}
    seal = SlabBuilder.seal

    def recording_seal(builder, day):
        slab = seal(builder, day)
        sealed[day] = slab.copy()  # a replayed day overwrites its first seal
        return slab

    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(SlabBuilder, "seal", recording_seal), \
            mock.patch("repro.core.checkpoint.COMPACT_SEGMENTS", 2):
        directory = Path(tmp)
        ingestor = fresh()
        index, crashed = 0, False
        while index < len(records):
            if index == cut and not crashed:
                crashed = True
                ingestor = resume_ingest(model, directory) if ingestor.days_sealed else fresh()
                index = ingestor.events_pushed
                continue
            days_sealed = ingestor.days_sealed
            ingestor.push(records[index].event, records[index].fingerprint)
            index += 1
            if ingestor.days_sealed != days_sealed:
                save_ingest_checkpoint(ingestor, directory)
        ingestor.flush(until=DAYS[-1])
    assert sorted(sealed) == DAYS
    for d, day in enumerate(DAYS):
        np.testing.assert_array_equal(sealed[day], cube.values[:, :, :, d])
