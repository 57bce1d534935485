"""The repro.serve/1 wire contracts: round trips, validation, the registry."""

import json
import sys
import threading

import pytest

from repro.sched.campaign import Campaign, TaskSpec
from repro.sched.tenancy import JobRecord
from repro.sched.campaign import CampaignExecution
from repro.sched.store import ResultStore
from repro.serve.contracts import (
    SCHEMA,
    ContractError,
    SubmitRequest,
    error_view,
    job_view,
    jobs_view,
)
from repro.serve.registry import (
    MEMO_ENTRIES,
    CampaignEntry,
    OptionSpec,
    default_registry,
)


def ok():
    return {"correct": True}


# -- SubmitRequest -----------------------------------------------------------

def test_submit_request_round_trip():
    req = SubmitRequest("demo", {"points": 4, "delay": 0.0})
    assert SubmitRequest.from_dict(req.to_dict()) == req
    assert req.to_dict()["schema"] == SCHEMA


def test_submit_request_minimal():
    req = SubmitRequest.from_dict({"schema": SCHEMA, "campaign": "demo"})
    assert req.campaign == "demo"
    assert req.options == {}


@pytest.mark.parametrize("body,code", [
    ("not an object", "bad_request"),
    ({}, "bad_schema"),
    ({"schema": "repro.serve/99", "campaign": "demo"}, "bad_schema"),
    ({"schema": SCHEMA}, "bad_request"),
    ({"schema": SCHEMA, "campaign": ""}, "bad_request"),
    ({"schema": SCHEMA, "campaign": 7}, "bad_request"),
    ({"schema": SCHEMA, "campaign": "demo", "options": []}, "bad_request"),
    ({"schema": SCHEMA, "campaign": "demo", "bogus": 1}, "bad_request"),
])
def test_submit_request_rejects(body, code):
    with pytest.raises(ContractError) as excinfo:
        SubmitRequest.from_dict(body)
    assert excinfo.value.code == code
    assert excinfo.value.status == 400


def test_error_view_shape():
    view = error_view("quota_jobs", "too many")
    assert view["schema"] == SCHEMA
    assert view["error"] == {"code": "quota_jobs", "message": "too many"}


# -- job_view ----------------------------------------------------------------

def _job(tmp_path):
    campaign = Campaign("tiny", (TaskSpec("a", ok),))
    execution = CampaignExecution(campaign, ResultStore(str(tmp_path / "store")))
    return JobRecord("job-0001", "alice", campaign, execution)


def test_job_view_envelope(tmp_path):
    view = job_view(_job(tmp_path))
    assert view["schema"] == SCHEMA
    job = view["job"]
    assert job["id"] == "job-0001"
    assert job["tenant"] == "alice"
    assert job["campaign"] == "tiny"
    assert job["state"] == "queued"
    assert job["tasks"] == 1
    assert job["counts"] == {"pending": 1}


def test_jobs_view_envelope(tmp_path):
    view = jobs_view([_job(tmp_path)])
    assert view["schema"] == SCHEMA
    assert [j["id"] for j in view["jobs"]] == ["job-0001"]


# -- registry ----------------------------------------------------------------

def test_default_registry_covers_shipped_campaigns():
    registry = default_registry()
    assert set(registry) == {
        "demo", "table1", "section8", "chaos", "cross_model"
    }
    demo = registry["demo"].to_dict()
    assert [o["name"] for o in demo["options"]] == ["points", "delay"]


def test_registry_builds_cross_model_campaign():
    # The cross-model table runs at its stock grid (no tenant options)
    # and covers all 7 models for each problem.
    campaign = default_registry()["cross_model"].build({})
    assert campaign.name == "cross_model"
    points = [t for t in campaign.tasks if not t.name.endswith("/verdict")]
    models = {t.name.split("/")[2] for t in points}
    assert models == {"QSM", "s-QSM", "QSM(g,d)", "BSP", "PRAM", "MPC", "PEM"}


def test_registry_builds_demo_with_options():
    campaign = default_registry()["demo"].build({"points": 3, "delay": 0.0})
    assert campaign.name == "demo"
    assert len(campaign.tasks) == 4  # 3 points + summary


def test_registry_rejects_unknown_option():
    with pytest.raises(ContractError) as excinfo:
        default_registry()["demo"].build({"bogus": 1})
    assert excinfo.value.code == "bad_option"


def test_registry_rejects_out_of_bounds():
    with pytest.raises(ContractError) as excinfo:
        default_registry()["demo"].build({"points": 100000})
    assert excinfo.value.code == "bad_option"


def test_registry_rejects_wrong_type():
    with pytest.raises(ContractError) as excinfo:
        default_registry()["demo"].build({"points": 2.5})
    assert excinfo.value.code == "bad_option"
    with pytest.raises(ContractError):
        default_registry()["demo"].build({"points": True})


def test_registry_accepts_int_where_float_declared():
    campaign = default_registry()["demo"].build({"points": 2, "delay": 0})
    assert len(campaign.tasks) == 3


def test_option_spec_rejects_bad_kind():
    with pytest.raises(ValueError):
        OptionSpec("x", "str", "hello")


def test_campaign_entry_without_options_rejects_any():
    entry = CampaignEntry("table1", "stock grid")
    with pytest.raises(ContractError) as excinfo:
        entry.build({"ns": [64]})
    assert "allowed: (none)" in str(excinfo.value)


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), float("-inf"), 10**400],
    ids=["nan", "inf", "-inf", "int-past-float"],
)
def test_non_finite_options_are_rejected(value):
    with pytest.raises(ContractError) as excinfo:
        default_registry()["demo"].build({"delay": value, "points": 2})
    assert excinfo.value.code == "bad_option"
    assert "finite" in str(excinfo.value)


def test_non_finite_json_option_is_rejected():
    options = json.loads('{"delay": NaN, "points": 2}')
    with pytest.raises(ContractError) as excinfo:
        default_registry()["demo"].build(options)
    assert excinfo.value.code == "bad_option"


# -- the per-entry campaign memo ---------------------------------------------

def test_same_validated_options_build_one_campaign():
    entry = default_registry()["demo"]
    campaign = entry.build({"points": 3, "delay": 0.5})
    assert entry.build({"delay": 0.5, "points": 3}) is campaign
    assert entry.build({"points": 4, "delay": 0.5}) is not campaign


def test_memo_keys_by_spelling_not_by_value(tmp_path):
    """``0`` validates to ``0.0`` and shares its entry; ``-0.0`` equals
    ``0.0`` but has other content keys, so it gets its own campaign."""
    store = ResultStore(str(tmp_path / "store"))
    entry = default_registry()["demo"]
    zero = entry.build({"points": 2, "delay": 0.0})
    assert entry.build({"points": 2, "delay": 0}) is zero
    negative = entry.build({"points": 2, "delay": -0.0})
    assert negative is not zero
    zero_keys, negative_keys = zero.keys_for(store), negative.keys_for(store)
    for name in ("demo/point-00", "demo/point-01"):
        assert zero_keys[name] != negative_keys[name]


def test_cached_keys_are_the_stores_keys(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    for name, options in (("demo", {"points": 5}), ("table1", {})):
        campaign = default_registry()[name].build(options)
        keys = campaign.keys_for(store)
        assert keys is campaign.keys_for(ResultStore(str(tmp_path / "other")))
        assert dict(keys) == {
            t.name: store.key_for(t.fn, t.kwargs) for t in campaign.tasks
        }
        with pytest.raises(TypeError):
            keys[campaign.tasks[0].name] = "0" * 64


def test_memo_is_bounded_and_an_evicted_campaign_rebuilds_equal(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    entry = default_registry()["demo"]
    first = entry.build({"points": 1})
    first_keys = dict(first.keys_for(store))
    for points in range(2, MEMO_ENTRIES + 2):
        entry.build({"points": points})
    assert len(entry._memo) == MEMO_ENTRIES
    rebuilt = entry.build({"points": 1})
    assert rebuilt is not first
    assert rebuilt == first
    assert dict(rebuilt.keys_for(store)) == first_keys
    assert len(entry._memo) == MEMO_ENTRIES


def test_registries_never_share_a_campaign():
    options = {"points": 2, "delay": 0.0}
    assert (default_registry()["demo"].build(options)
            is not default_registry()["demo"].build(options))


def test_concurrent_builds_raise_nothing():
    """Threads building the same and different option sets each get the
    campaign of their own options, and the bound holds."""
    entry = default_registry()["demo"]
    errors, built = [], []

    def worker(i):
        try:
            for j in range(50):
                points = 1 + (i * j) % 24
                built.append((points, entry.build({"points": points})))
                built.append((2, entry.build({"points": 2, "delay": 0.0})))
        except Exception as exc:  # pragma: no cover - the failure report
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(built) == 8 * 50 * 2
    assert all(len(c.tasks) == points + 1 for points, c in built)
    assert len(entry._memo) <= MEMO_ENTRIES
