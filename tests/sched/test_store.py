"""The content-addressed result store: keys, atomicity, quarantine, GC."""

import functools
import json
import os

import pytest

from repro.sched.store import (
    ResultStore,
    canonical_spec,
    content_key,
    fn_ref,
    task_spec,
)


def point_fn(n, g=4.0):
    return {"measured": n * g, "correct": True}


class TestContentKeys:
    def test_key_is_order_invariant(self):
        a = content_key({"x": 1, "y": 2}, "v1")
        b = content_key({"y": 2, "x": 1}, "v1")
        assert a == b
        assert len(a) == 64  # sha-256 hex

    def test_version_salts_the_key(self):
        spec = {"x": 1}
        assert content_key(spec, "v1") != content_key(spec, "v2")

    def test_default_version_is_package_version(self, tmp_path):
        from repro import __version__

        store = ResultStore(str(tmp_path))
        assert store.version == __version__

    def test_fn_ref_names_module_and_qualname(self):
        assert fn_ref(point_fn) == f"{__name__}:point_fn"

    def test_fn_ref_distinguishes_partials(self):
        p1 = functools.partial(point_fn, g=2.0)
        p2 = functools.partial(point_fn, g=8.0)
        assert fn_ref(p1) != fn_ref(p2)
        assert fn_ref(p1).startswith(f"{__name__}:point_fn|partial:")

    def test_task_spec_accepts_scope_string(self):
        spec = task_spec("t1a_qsm_time", {"n": 4}, {"base_seed": 0})
        assert spec == {"fn": "t1a_qsm_time", "kwargs": {"n": 4}, "base_seed": 0}

    def test_canonical_spec_handles_unjsonable_values(self):
        # default=repr: exotic values degrade to a stable string instead of
        # raising mid-campaign.
        text = canonical_spec({"fn": point_fn})
        assert "point_fn" in text


class TestReadWrite:
    def test_put_get_roundtrip(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = store.key_for(point_fn, {"n": 8})
        outcome = {"measured": 32.0, "correct": True}
        path = store.put(key, outcome, spec=task_spec(point_fn, {"n": 8}))
        assert os.path.exists(path)
        assert store.contains(key)
        entry = store.get(key)
        assert entry["outcome"] == outcome
        assert entry["spec"]["kwargs"] == {"n": 8}
        assert store.get_outcome(key) == outcome

    def test_missing_key_reads_as_none(self, tmp_path):
        store = ResultStore(str(tmp_path))
        assert store.get("0" * 64) is None
        assert not store.contains("0" * 64)

    def test_shard_fanout_layout(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = store.key_for(point_fn, {"n": 8})
        store.put(key, {"measured": 1.0})
        assert store.path_for(key).endswith(
            os.path.join("objects", key[:2], key + ".json")
        )

    def test_no_temp_files_left_behind(self, tmp_path):
        store = ResultStore(str(tmp_path))
        for n in range(5):
            store.put(store.key_for(point_fn, {"n": n}), {"measured": float(n)})
        leftovers = [
            name
            for _, _, names in os.walk(str(tmp_path))
            for name in names
            if name.startswith(".store-")
        ]
        assert leftovers == []

    def test_keys_enumerates_everything(self, tmp_path):
        store = ResultStore(str(tmp_path))
        written = {
            store.key_for(point_fn, {"n": n}) for n in range(4)
        }
        for key in written:
            store.put(key, {"measured": 0.0})
        assert set(store.keys()) == written


class TestQuarantine:
    def test_corrupt_entry_is_quarantined_and_rereadable_as_missing(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = store.key_for(point_fn, {"n": 8})
        store.put(key, {"measured": 1.0})
        with open(store.path_for(key), "w") as fh:
            fh.write("{torn")
        with pytest.warns(RuntimeWarning, match="quarantine|unusable"):
            assert store.get(key) is None
        assert not store.contains(key)
        assert os.path.exists(store.path_for(key) + ".quarantined")
        assert store.stats().quarantined == 1

    def test_schema_violation_is_quarantined(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = store.key_for(point_fn, {"n": 8})
        path = store.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"key": key, "outcome": {}}, fh)  # missing fields
        with pytest.warns(RuntimeWarning):
            assert store.get(key) is None


class TestPrune:
    def _fill(self, store, count=4):
        keys = []
        for n in range(count):
            key = store.key_for(point_fn, {"n": n})
            store.put(key, {"measured": float(n)})
            keys.append(key)
        return keys

    def test_full_prune_removes_everything(self, tmp_path):
        store = ResultStore(str(tmp_path))
        keys = self._fill(store)
        pruned = store.prune()
        assert sorted(pruned) == sorted(keys)
        assert store.stats().entries == 0
        assert not os.listdir(os.path.join(str(tmp_path), "objects"))

    def test_age_cutoff_keeps_recent_entries(self, tmp_path):
        store = ResultStore(str(tmp_path))
        keys = self._fill(store, count=2)
        old, recent = keys
        # Backdate one entry by rewriting its created stamp.
        path = store.path_for(old)
        entry = json.load(open(path))
        entry["created"] -= 10_000.0
        json.dump(entry, open(path, "w"))
        pruned = store.prune(older_than_s=3600.0)
        assert pruned == [old]
        assert store.contains(recent)

    def test_keep_set_survives_full_prune(self, tmp_path):
        store = ResultStore(str(tmp_path))
        keys = self._fill(store)
        pruned = store.prune(keep=[keys[0]])
        assert keys[0] not in pruned
        assert store.contains(keys[0])
        assert store.stats().entries == 1

    def test_dry_run_deletes_nothing(self, tmp_path):
        store = ResultStore(str(tmp_path))
        keys = self._fill(store)
        pruned = store.prune(dry_run=True)
        assert sorted(pruned) == sorted(keys)
        assert store.stats().entries == len(keys)

    def test_prune_sweeps_quarantined_files(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = self._fill(store, count=1)[0]
        with open(store.path_for(key), "w") as fh:
            fh.write("garbage")
        with pytest.warns(RuntimeWarning):
            store.get(key)
        assert store.stats().quarantined == 1
        store.prune()
        assert store.stats().quarantined == 0


class TestConcurrentWriters:
    """put() under contention: same-key racers and the prune-rmdir race."""

    def test_same_key_concurrent_puts_neither_raises(self, tmp_path):
        import threading

        store = ResultStore(str(tmp_path / "store"))
        key = store.key_for(point_fn, {"n": 4})
        errors = []

        def write(tag):
            try:
                for _ in range(50):
                    store.put(key, {"measured": 16.0, "correct": True, "by": tag})
            except BaseException as exc:  # noqa: BLE001 - the assertion target
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        # Whoever won, the entry is whole and valid (no quarantine).
        outcome = store.get_outcome(key)
        assert outcome is not None and outcome["measured"] == 16.0
        assert not os.path.exists(store.path_for(key) + ".quarantined")

    def test_put_survives_prune_rmdir_between_makedirs_and_mkstemp(
        self, tmp_path, monkeypatch
    ):
        import tempfile as _tempfile

        store = ResultStore(str(tmp_path / "store"))
        real_mkstemp = _tempfile.mkstemp
        raced = {"done": False}

        def racing_mkstemp(*args, **kwargs):
            if not raced["done"]:
                raced["done"] = True
                # A concurrent prune() rmdirs the (empty) shard just now.
                os.rmdir(kwargs["dir"])
                return real_mkstemp(*args, **kwargs)  # raises FileNotFoundError
            return real_mkstemp(*args, **kwargs)

        monkeypatch.setattr("repro.sched.store.tempfile.mkstemp", racing_mkstemp)
        key = store.key_for(point_fn, {"n": 8})
        path = store.put(key, {"measured": 32.0, "correct": True})
        assert raced["done"]
        assert os.path.exists(path)
        assert store.get_outcome(key)["measured"] == 32.0

    def test_put_survives_prune_rmdir_inside_makedirs(self, tmp_path, monkeypatch):
        store = ResultStore(str(tmp_path / "store"))
        real_makedirs = os.makedirs
        raced = {"done": False}

        def racing_makedirs(name, exist_ok=False):
            if not raced["done"]:
                raced["done"] = True
                # mkdir saw the shard, a concurrent prune() removed it, and
                # makedirs' isdir() check then fails: EEXIST despite exist_ok.
                raise FileExistsError(17, "File exists")
            return real_makedirs(name, exist_ok=exist_ok)

        monkeypatch.setattr("repro.sched.store.os.makedirs", racing_makedirs)
        key = store.key_for(point_fn, {"n": 12})
        store.put(key, {"measured": 48.0, "correct": True})
        assert raced["done"]
        assert store.get_outcome(key)["measured"] == 48.0

    def test_put_survives_prune_rmdir_before_replace(self, tmp_path, monkeypatch):
        import shutil

        store = ResultStore(str(tmp_path / "store"))
        real_replace = os.replace
        raced = {"count": 0}

        def racing_replace(src, dst):
            if raced["count"] == 0 and ".store-" in src:
                raced["count"] += 1
                shutil.rmtree(os.path.dirname(dst))  # prune wins the race
            return real_replace(src, dst)

        monkeypatch.setattr("repro.sched.store.os.replace", racing_replace)
        key = store.key_for(point_fn, {"n": 16})
        store.put(key, {"measured": 64.0, "correct": True})
        assert raced["count"] == 1
        assert store.get_outcome(key)["measured"] == 64.0

    def test_prune_keeps_a_shard_a_put_lands_in_before_its_rmdir(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(str(tmp_path / "store"))
        key = store.key_for(point_fn, {"n": 3})
        store.put(key, {"measured": 12.0, "correct": True})
        real_rmdir = os.rmdir
        raced = {"done": False}

        def racing_rmdir(path, *args, **kwargs):
            if not raced["done"]:
                raced["done"] = True
                # A concurrent put() lands in the shard prune just emptied.
                store.put(key, {"measured": 12.0, "correct": True})
            return real_rmdir(path, *args, **kwargs)

        monkeypatch.setattr("repro.sched.store.os.rmdir", racing_rmdir)
        assert store.prune(older_than_s=0) == [key]
        assert raced["done"]
        assert store.get_outcome(key)["measured"] == 12.0

    @pytest.mark.parametrize("listing", [1, 2], ids=["key-scan", "shard-sweep"])
    def test_prune_skips_a_shard_another_prune_removed(
        self, tmp_path, monkeypatch, listing
    ):
        # The other prune removes the shard just before this prune lists it:
        # on the key scan (it took the entry too) or on the empty-shard sweep.
        import shutil

        store = ResultStore(str(tmp_path / "store"))
        key = store.key_for(point_fn, {"n": 5})
        store.put(key, {"measured": 20.0, "correct": True})
        shard = os.path.dirname(store.path_for(key))
        real_listdir = os.listdir
        seen = {"n": 0}

        def racing_listdir(path="."):
            if path == shard:
                seen["n"] += 1
                if seen["n"] == listing:
                    shutil.rmtree(shard)
            return real_listdir(path)

        monkeypatch.setattr("repro.sched.store.os.listdir", racing_listdir)
        assert store.prune(older_than_s=0) == ([] if listing == 1 else [key])
        assert seen["n"] == listing
        assert not os.path.exists(shard)

    def test_concurrent_put_and_prune_stress(self, tmp_path):
        import threading

        store = ResultStore(str(tmp_path / "store"))
        errors = []
        stop = threading.Event()

        def writer():
            try:
                for i in range(200):
                    key = store.key_for(point_fn, {"n": i})
                    store.put(key, {"measured": float(i), "correct": True})
            except BaseException as exc:  # noqa: BLE001 - the assertion target
                errors.append(exc)
            finally:
                stop.set()

        def pruner():
            while not stop.is_set():
                try:
                    store.prune(older_than_s=0)
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

        threads = [threading.Thread(target=writer), threading.Thread(target=pruner)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []


class TestCrashDuringWrite:
    def test_crash_mid_write_leaves_no_partial_object(self, tmp_path, monkeypatch):
        store = ResultStore(str(tmp_path / "store"))
        key = store.key_for(point_fn, {"n": 4})

        def exploding_dump(*args, **kwargs):
            raise KeyboardInterrupt  # the harshest interruption json can see

        monkeypatch.setattr("repro.sched.store.json.dump", exploding_dump)
        with pytest.raises(KeyboardInterrupt):
            store.put(key, {"measured": 16.0, "correct": True})
        monkeypatch.undo()
        # No entry, no quarantine, no leaked temp file anywhere.
        assert store.get(key) is None
        leftovers = [
            name
            for root, _, names in os.walk(str(tmp_path / "store"))
            for name in names
        ]
        assert leftovers == []
        # The next attempt (the retry a crashed task gets) lands cleanly.
        store.put(key, {"measured": 16.0, "correct": True})
        assert store.get_outcome(key)["measured"] == 16.0


class TestReadThroughIndex:
    """get() serves an entry it already decoded from memory while the file
    keeps its (inode, mtime, size) stamp, and reads the disk otherwise."""

    @staticmethod
    def _stored(store, n, measured=None):
        key = store.key_for(point_fn, {"n": n})
        outcome = {"measured": float(n if measured is None else measured), "correct": True}
        store.put(key, outcome, spec=task_spec(point_fn, {"n": n}))
        return key

    def test_a_hit_opens_no_file_and_matches_a_fresh_read(self, tmp_path, monkeypatch):
        store = ResultStore(str(tmp_path))
        key = self._stored(store, 8)
        first = store.get(key)
        opened, loaded = [], []
        real_open, real_load = open, json.load
        monkeypatch.setattr(
            "repro.sched.store.open",
            lambda *a, **kw: opened.append(a[0]) or real_open(*a, **kw),
            raising=False,
        )
        monkeypatch.setattr(
            "repro.sched.store.json.load",
            lambda *a, **kw: loaded.append(a[0]) or real_load(*a, **kw),
        )
        assert store.get(key) is first
        assert store.get_outcome(key) is first["outcome"]
        assert opened == [] and loaded == []
        monkeypatch.undo()
        assert first == ResultStore(str(tmp_path)).get(key)

    def test_an_entry_replaced_by_another_instance_is_reread(self, tmp_path):
        store, other = ResultStore(str(tmp_path)), ResultStore(str(tmp_path))
        key = self._stored(store, 8)
        assert store.get_outcome(key)["measured"] == 8.0
        other.put(key, {"measured": 99.0, "correct": True})
        assert store.get_outcome(key)["measured"] == 99.0

    def test_an_entry_pruned_by_another_instance_reads_as_missing(self, tmp_path):
        store, other = ResultStore(str(tmp_path)), ResultStore(str(tmp_path))
        key = self._stored(store, 8)
        assert store.get(key) is not None
        assert other.prune() == [key]
        assert store.get(key) is None
        assert key not in store._index

    def test_an_entry_corrupted_in_place_is_quarantined(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = self._stored(store, 8)
        assert store.get(key) is not None
        with open(store.path_for(key), "w") as fh:  # same inode, new size
            fh.write("{torn")
        with pytest.warns(RuntimeWarning, match="unusable"):
            assert store.get(key) is None
        assert os.path.exists(store.path_for(key) + ".quarantined")
        assert key not in store._index

    def test_a_same_size_rewrite_in_place_is_seen_once_its_mtime_moves(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = self._stored(store, 8, measured=1.0)
        assert store.get_outcome(key)["measured"] == 1.0
        path = store.path_for(key)
        before = os.stat(path)
        with open(path, "r+") as fh:
            text = fh.read()
            fh.seek(0)
            fh.write(text.replace('"measured": 1.0', '"measured": 2.0'))
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns + 10**9))
        assert os.stat(path).st_ino == before.st_ino
        assert os.stat(path).st_size == before.st_size
        assert store.get_outcome(key)["measured"] == 2.0

    def test_own_prune_drops_index_entries(self, tmp_path):
        store = ResultStore(str(tmp_path))
        keys = [self._stored(store, n) for n in range(3)]
        for key in keys:
            store.get(key)
        assert set(store._index) == set(keys)
        store.prune(keep=keys[:1])
        assert set(store._index) == set(keys[:1])

    def test_two_roots_never_share_an_entry(self, tmp_path):
        # table1-batch's shape: a fresh store per campaign, the same keys.
        first = ResultStore(str(tmp_path / "a"))
        key = self._stored(first, 8, measured=1.0)
        assert first.get(key) is not None
        second = ResultStore(str(tmp_path / "b"))
        assert second.get(key) is None
        self._stored(second, 8, measured=2.0)
        assert second.get_outcome(key)["measured"] == 2.0
        assert first.get_outcome(key)["measured"] == 1.0

    def test_put_alone_does_not_grow_the_index(self, tmp_path):
        store = ResultStore(str(tmp_path))
        for n in range(5):
            self._stored(store, n)
        assert store._index == {}

    def test_index_stays_within_its_bound(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.sched.store.INDEX_ENTRIES", 4)
        store = ResultStore(str(tmp_path))
        keys = [self._stored(store, n) for n in range(10)]
        for key in keys:
            assert store.get(key) is not None
            assert len(store._index) <= 4
        assert list(store._index) == keys[-4:]  # oldest-inserted evicted first
        fresh = ResultStore(str(tmp_path))
        for n, key in enumerate(keys):  # evicted entries read back from disk
            assert store.get(key) == fresh.get(key)
            assert store.get_outcome(key)["measured"] == float(n)
        assert len(store._index) <= 4

    def test_every_index_mutation_holds_the_lock(self, tmp_path, monkeypatch):
        # Eviction reads the oldest key, then deletes it: a mutation from
        # another thread in between would raise, so none may skip the lock.
        monkeypatch.setattr("repro.sched.store.INDEX_ENTRIES", 2)
        store = ResultStore(str(tmp_path))
        lock = store._index_lock
        unlocked = []

        class Checked(dict):
            def __setitem__(self, key, value):
                unlocked.append(not lock.locked())
                super().__setitem__(key, value)

            def __delitem__(self, key):
                unlocked.append(not lock.locked())
                super().__delitem__(key)

            def pop(self, *args):
                unlocked.append(not lock.locked())
                return super().pop(*args)

        store._index = Checked()
        keys = [self._stored(store, n) for n in range(4)]
        for key in keys:  # fills, then evicts
            store.get(key)
        with open(store.path_for(keys[-1]), "w") as fh:
            fh.write("{torn")
        with pytest.warns(RuntimeWarning):
            store.get(keys[-1])  # quarantine
        store.get("0" * 64)  # a miss
        store.prune()
        assert unlocked and not any(unlocked)

    def test_threads_calling_get_put_and_prune(self, tmp_path, monkeypatch):
        import sys
        import threading

        monkeypatch.setattr("repro.sched.store.INDEX_ENTRIES", 8)
        store = ResultStore(str(tmp_path / "store"))
        keys = [store.key_for(point_fn, {"n": n}) for n in range(16)]
        errors, bad = [], []
        stop = threading.Event()

        def guarded(body):
            def run():
                try:
                    body()
                except BaseException as exc:  # noqa: BLE001 - the assertion target
                    errors.append(exc)
                finally:
                    stop.set()
            return run

        def writer():
            for i in range(300):
                n = i % len(keys)
                store.put(keys[n], {"measured": float(n), "correct": True})

        def reader():
            while not stop.is_set():
                for n, key in enumerate(keys):
                    entry = store.get(key)
                    if entry is not None and (
                        entry["key"] != key
                        or entry["outcome"] != {"measured": float(n), "correct": True}
                    ):
                        bad.append(entry)

        def pruner():
            while not stop.is_set():
                store.prune(older_than_s=0)

        threads = [
            threading.Thread(target=guarded(body))
            for body in (writer, reader, reader, reader, pruner)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert bad == []
        assert len(store._index) <= 8
        fresh = ResultStore(str(tmp_path / "store"))
        for key in keys:  # nothing stale survives the race
            assert store.get(key) == fresh.get(key)

    def test_outcomes_stay_read_only_through_campaigns_and_a_sweep(
        self, tmp_path, monkeypatch
    ):
        # Every index entry is handed to each caller as it is; after two
        # table1 runs and the t1a sweep over the same store, none of them
        # may have changed an entry.
        from benchmarks.bench_table1_qsm_time import NS, run_t1a_point
        from repro.analysis.parallel_sweep import parallel_sweep
        from repro.sched.campaign import run_campaign
        from repro.sched.campaigns import table1_campaign

        store = ResultStore(str(tmp_path / "store"))
        stored = sum(1 for task in table1_campaign().tasks if not task.inline)
        for _ in range(2):
            report = run_campaign(table1_campaign(), store, jobs=2)
            assert report.ok
        points = parallel_sweep(
            {"problem": ["LAC", "OR", "Parity"],
             "variant": ["deterministic", "randomized"], "n": NS},
            run_t1a_point, jobs=1, store=store,
        )
        assert all(p.correct for p in points)
        assert len(store._index) == stored  # 81 at the default sizes
        fresh = ResultStore(str(tmp_path / "store"))
        for key, (_, entry) in store._index.items():
            assert entry == fresh.get(key)

        # A third run reads every stored task through the index: one stat
        # per task, no entry file opened.
        objects = os.path.join(store.root, "objects")
        stats, opened = [], []
        real_stat, real_open = os.stat, open

        def counting_stat(path, *args, **kwargs):
            if str(path).startswith(objects):
                stats.append(path)
            return real_stat(path, *args, **kwargs)

        monkeypatch.setattr("repro.sched.store.os.stat", counting_stat)
        monkeypatch.setattr(
            "repro.sched.store.open",
            lambda *a, **kw: opened.append(a[0]) or real_open(*a, **kw),
            raising=False,
        )
        report = run_campaign(table1_campaign(), store, jobs=2)
        monkeypatch.undo()
        assert report.ok
        assert len(stats) == stored and opened == []
