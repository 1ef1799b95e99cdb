"""Benchmark inputs: one simulated CERT-style organization per seed.

Generation is the harness's job and is never timed.  It takes longer
than most timed phases, so the generated deliveries are cached per
(generation parameters, seed) in a directory inside the checkout that
git ignores.  The cache key also hashes the simulator and the arrival
helpers (``src/repro/datagen``, ``src/repro/ingest/arrival.py``,
``src/repro/logs/schema.py``) and this file, so a commit that changes
how inputs are made regenerates them.

A cold run serializes the generated inputs and then loads them back
through the same decoder a warm run uses, so cold and warm runs hand
the program identical inputs.
"""

from __future__ import annotations

import hashlib
import marshal
import os
from array import array
from dataclasses import dataclass, fields
from datetime import date, datetime, timedelta
from pathlib import Path
from typing import Dict, List, Tuple

from repro.eval.experiments import CertBenchmarkConfig, build_cert_benchmark
from repro.ingest import ArrivalRecord, arrival_order, inject_duplicates, shuffled_arrival
from repro.logs.schema import EVENT_TYPES, event_type_name
from repro.logs.store import LogStore
from repro.nn.autoencoder import AutoencoderConfig

#: Shape of the generated organization and stream.  260 days leave 202
#: scored days after the 58-day warm-up of window=30 / matrix_days=30.
DEPARTMENT_SIZES = (6, 6)
N_DAYS = 260
START = date(2010, 1, 2)
TRAIN_END_OFFSET = 155
ALLOWED_LATENESS_DAYS = 1
DUPLICATE_FRACTION = 0.03

CACHE_FORMAT = 1
_EPOCH = datetime(2000, 1, 1)
_MICROSECOND = timedelta(microseconds=1)
_TYPE_NAMES = tuple(EVENT_TYPES)
_FIELD_NAMES = {name: tuple(f.name for f in fields(cls)) for name, cls in EVENT_TYPES.items()}


@dataclass
class Inputs:
    """Everything a workload needs, as the program would receive it."""

    users: List[str]
    group_map: Dict[str, str]
    days: List[date]
    train_days: List[date]
    test_days: List[date]
    labels: Dict[str, bool]
    store: LogStore
    deliveries: List[ArrivalRecord]
    n_events: int
    injected_duplicates: int
    cache_hit: bool


def generation_params() -> dict:
    return {
        "format": CACHE_FORMAT,
        "department_sizes": list(DEPARTMENT_SIZES),
        "n_days": N_DAYS,
        "start": START.isoformat(),
        "train_end_offset": TRAIN_END_OFFSET,
        "allowed_lateness_days": ALLOWED_LATENESS_DAYS,
        "duplicate_fraction": DUPLICATE_FRACTION,
    }


def source_digest(root: Path) -> str:
    """SHA-256 over the files that decide what the inputs are."""
    digest = hashlib.sha256()
    sources = sorted((root / "src" / "repro" / "datagen").glob("*.py"))
    sources += [
        root / "src" / "repro" / "ingest" / "arrival.py",
        root / "src" / "repro" / "logs" / "schema.py",
        Path(__file__),
    ]
    for path in sources:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _config(seed: int) -> CertBenchmarkConfig:
    return CertBenchmarkConfig(
        name="perfbench",
        department_sizes=DEPARTMENT_SIZES,
        n_days=N_DAYS,
        window=30,
        matrix_days=30,
        train_end_offset=TRAIN_END_OFFSET,
        s1_start_offset=TRAIN_END_OFFSET + 40,
        s1_duration=17,
        s2_start_offset=TRAIN_END_OFFSET + 10,
        s2_surf_days=45,
        s2_exfil_days=14,
        autoencoder=AutoencoderConfig(),
        seed=seed,
        scenarios_per_department=2,
    )


def _generate(seed: int) -> dict:
    """Simulate, inject both insider scenarios per department, deliver."""
    benchmark = build_cert_benchmark(_config(seed))
    canonical = arrival_order(benchmark.dataset.store)
    delivered = inject_duplicates(
        shuffled_arrival(canonical, seed=seed, max_lateness_days=ALLOWED_LATENESS_DAYS),
        seed=seed,
        fraction=DUPLICATE_FRACTION,
    )
    position = {id(record): i for i, record in enumerate(canonical)}
    events = []
    for record in canonical:
        event = record.event
        name = event_type_name(event)
        values = [getattr(event, f) for f in _FIELD_NAMES[name]]
        values[0] = (values[0] - _EPOCH) // _MICROSECOND  # timestamp
        events.append((_TYPE_NAMES.index(name), record.fingerprint, *values))
    days = list(benchmark.cube.days)
    return {
        "users": list(benchmark.cube.users),
        "group_map": dict(benchmark.group_map),
        "days": [d.toordinal() for d in days],
        "train_end": benchmark.config.train_end.toordinal(),
        "labels": dict(benchmark.labels),
        "events": events,
        "order": array("I", (position[id(r)] for r in delivered)).tobytes(),
    }


def _decode(doc: dict, cache_hit: bool) -> Inputs:
    canonical = []
    store = LogStore()
    for type_index, fingerprint, micros, *rest in doc["events"]:
        cls = EVENT_TYPES[_TYPE_NAMES[type_index]]
        event = cls(_EPOCH + micros * _MICROSECOND, *rest)
        canonical.append(ArrivalRecord(event, fingerprint))
        store.append(event)
    order = array("I")
    order.frombytes(doc["order"])
    deliveries = [canonical[i] for i in order]
    days = [date.fromordinal(d) for d in doc["days"]]
    train_end = date.fromordinal(doc["train_end"])
    return Inputs(
        users=list(doc["users"]),
        group_map=dict(doc["group_map"]),
        days=days,
        train_days=[d for d in days if d <= train_end],
        test_days=[d for d in days if d > train_end],
        labels=dict(doc["labels"]),
        store=store,
        deliveries=deliveries,
        n_events=len(canonical),
        injected_duplicates=len(deliveries) - len(canonical),
        cache_hit=cache_hit,
    )


def load_inputs(root: Path, cache_dir: Path, seed: int) -> Tuple[Inputs, str]:
    """The inputs for ``seed``, from the cache when it holds them."""
    key_doc = repr((generation_params(), seed, source_digest(root))).encode()
    key = hashlib.sha256(key_doc).hexdigest()[:24]
    path = cache_dir / f"inputs-{seed}-{key}.marshal"
    if path.exists():
        try:
            return _decode(marshal.loads(path.read_bytes()), cache_hit=True), key
        except (EOFError, ValueError, TypeError, KeyError):
            path.unlink()
    blob = marshal.dumps(_generate(seed))
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_bytes(blob)
    os.replace(tmp, path)
    return _decode(marshal.loads(blob), cache_hit=False), key
