"""Enterprise feature extraction (Section VI-B): 27 features, 6 aspects.

Sixteen features come from the four *predictable* behavioural aspects
(File, Command, Config, Resource), four per aspect:

* f1 -- number of events during the period;
* f2 -- number of unique events (distinct (event-id, target) pairs);
* f3 -- number of new events (pairs never seen before day d);
* f4 -- number of distinct event ids during the period.

Eleven come from the two *statistical* aspects:

* HTTP (7): successful requests, successful requests to a new domain,
  failed requests, failed requests to a new domain, distinct domains,
  kilobytes uploaded, NXDOMAIN DNS queries;
* Logon (4): successful logons, off-hour logons, logoffs, logons from a
  new workstation.

Off-hour logons are counted against the *working-hours* frame's
complement regardless of the cube's time-frame split, matching the
paper's "period" phrasing.
"""

from __future__ import annotations

from datetime import date
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.datagen.enterprise import (
    COMMAND_EVENT_IDS,
    CONFIG_EVENT_IDS,
    FILE_EVENT_IDS,
    RESOURCE_EVENT_IDS,
)
from repro.features.measurements import MeasurementCube
from repro.features.spec import AspectSpec, FeatureSet, FeatureSpec
from repro.logs.schema import (
    DnsEvent,
    LogonEvent,
    PowerShellEvent,
    ProxyEvent,
    SysmonEvent,
    WindowsEvent,
)
from repro.logs.store import LogStore
from repro.utils.timeutil import TWO_TIMEFRAMES, WORKING_HOURS, TimeFrame, frame_lookup

_PREDICTABLE = ("file", "command", "config", "resource")
_ID_GROUPS: Dict[str, frozenset] = {
    "file": FILE_EVENT_IDS,
    "command": COMMAND_EVENT_IDS,
    "config": CONFIG_EVENT_IDS,
    "resource": RESOURCE_EVENT_IDS,
}


def _predictable_aspect(name: str) -> AspectSpec:
    return AspectSpec(
        name,
        (
            FeatureSpec(f"{name}-events", name, "events during the period"),
            FeatureSpec(f"{name}-unique", name, "distinct (event-id, target) pairs"),
            FeatureSpec(f"{name}-new", name, "pairs never seen before day d"),
            FeatureSpec(f"{name}-distinct-ids", name, "distinct event ids"),
        ),
    )


HTTP_ASPECT = AspectSpec(
    "http",
    (
        FeatureSpec("http-success", "http", "successful proxy requests"),
        FeatureSpec("http-success-new-domain", "http"),
        FeatureSpec("http-failure", "http", "failed proxy requests"),
        FeatureSpec("http-failure-new-domain", "http"),
        FeatureSpec("http-distinct-domains", "http"),
        FeatureSpec("http-kb-out", "http", "kilobytes uploaded"),
        FeatureSpec("http-nxdomain", "http", "unresolved DNS queries"),
    ),
)

LOGON_ASPECT = AspectSpec(
    "logon",
    (
        FeatureSpec("logon-success", "logon"),
        FeatureSpec("logon-off-hours", "logon"),
        FeatureSpec("logon-logoff", "logon"),
        FeatureSpec("logon-new-pc", "logon"),
    ),
)

#: All six enterprise aspects (16 predictable + 11 statistical features).
ENTERPRISE_ASPECTS: Tuple[AspectSpec, ...] = (
    _predictable_aspect("file"),
    _predictable_aspect("command"),
    _predictable_aspect("config"),
    _predictable_aspect("resource"),
    HTTP_ASPECT,
    LOGON_ASPECT,
)


def _aspect_of_event_id(event_id: int) -> str:
    for name in _PREDICTABLE:
        if event_id in _ID_GROUPS[name]:
            return name
    return ""


def _event_key(event) -> Tuple[int, str]:
    """The (event-id, target) identity used for unique/new counting."""
    if isinstance(event, SysmonEvent):
        return (event.event_id, event.target or event.image)
    if isinstance(event, PowerShellEvent):
        return (event.event_id, event.script)
    if isinstance(event, WindowsEvent):
        return (event.event_id, event.detail)
    raise TypeError(f"unexpected event type {type(event).__name__}")


def extract_enterprise_measurements(
    store: LogStore,
    users: Sequence[str],
    days: Sequence[date],
    timeframes: Sequence[TimeFrame] = TWO_TIMEFRAMES,
) -> MeasurementCube:
    """Extract the 27 enterprise features into a measurement cube."""
    feature_set = FeatureSet(ENTERPRISE_ASPECTS)
    days = sorted(days)
    n_t = len(timeframes)
    cube = np.zeros((len(users), len(feature_set), n_t, len(days)))
    f_idx = {name: feature_set.index_of(name) for name in feature_set.feature_names}
    frame_of = frame_lookup(tuple(timeframes))

    for u, user in enumerate(users):
        seen_pairs: Dict[str, Set[Tuple[int, str]]] = {name: set() for name in _PREDICTABLE}
        seen_domains: Set[str] = set()
        seen_pcs: Set[str] = set()
        for d, day in enumerate(days):
            day_pairs: Dict[str, Set[Tuple[int, str]]] = {name: set() for name in _PREDICTABLE}
            day_domains: Set[str] = set()
            day_pcs: Set[str] = set()
            # Per-frame distinct-counting sets for unique/distinct features.
            frame_pairs: Dict[str, List[Set]] = {name: [set() for _ in range(n_t)] for name in _PREDICTABLE}
            frame_ids: Dict[str, List[Set]] = {name: [set() for _ in range(n_t)] for name in _PREDICTABLE}
            frame_domains: List[Set[str]] = [set() for _ in range(n_t)]

            # ---- predictable aspects (windows / sysmon / powershell) ----
            for type_name in ("windows", "sysmon", "powershell"):
                for event in store.events(user, type_name, day):
                    aspect = _aspect_of_event_id(event.event_id)
                    if not aspect:
                        continue
                    t = frame_of(event.timestamp)
                    key = _event_key(event)
                    cube[u, f_idx[f"{aspect}-events"], t, d] += 1
                    frame_pairs[aspect][t].add(key)
                    frame_ids[aspect][t].add(event.event_id)
                    if key not in seen_pairs[aspect]:
                        cube[u, f_idx[f"{aspect}-new"], t, d] += 1
                        day_pairs[aspect].add(key)

            # ---- HTTP (proxy + dns) ----
            for event in store.events(user, "proxy", day):
                assert isinstance(event, ProxyEvent)
                t = frame_of(event.timestamp)
                frame_domains[t].add(event.domain)
                is_new = event.domain not in seen_domains
                if event.verdict == "success":
                    cube[u, f_idx["http-success"], t, d] += 1
                    if is_new:
                        cube[u, f_idx["http-success-new-domain"], t, d] += 1
                else:
                    cube[u, f_idx["http-failure"], t, d] += 1
                    if is_new:
                        cube[u, f_idx["http-failure-new-domain"], t, d] += 1
                if is_new:
                    day_domains.add(event.domain)
                cube[u, f_idx["http-kb-out"], t, d] += event.bytes_out / 1024.0
            for event in store.events(user, "dns", day):
                assert isinstance(event, DnsEvent)
                if not event.resolved:
                    t = frame_of(event.timestamp)
                    cube[u, f_idx["http-nxdomain"], t, d] += 1

            # ---- Logon ----
            for event in store.events(user, "logon", day):
                assert isinstance(event, LogonEvent)
                t = frame_of(event.timestamp)
                if event.activity == "logon":
                    cube[u, f_idx["logon-success"], t, d] += 1
                    if not WORKING_HOURS.contains(event.timestamp):
                        cube[u, f_idx["logon-off-hours"], t, d] += 1
                    if event.pc not in seen_pcs:
                        cube[u, f_idx["logon-new-pc"], t, d] += 1
                        day_pcs.add(event.pc)
                else:
                    cube[u, f_idx["logon-logoff"], t, d] += 1

            # Distinct-count features, filled per frame.
            for name in _PREDICTABLE:
                for t in range(n_t):
                    cube[u, f_idx[f"{name}-unique"], t, d] = len(frame_pairs[name][t])
                    cube[u, f_idx[f"{name}-distinct-ids"], t, d] = len(frame_ids[name][t])
            for t in range(n_t):
                cube[u, f_idx["http-distinct-domains"], t, d] = len(frame_domains[t])

            # Commit the day's novelties.
            for name in _PREDICTABLE:
                seen_pairs[name] |= day_pairs[name]
            seen_domains |= day_domains
            seen_pcs |= day_pcs

    return MeasurementCube(
        values=cube,
        users=list(users),
        feature_set=feature_set,
        timeframes=tuple(timeframes),
        days=list(days),
    )
