"""Unit tests for the vector engine's building blocks.

The bit-equality property suite (``tests/property/test_engine_equivalence.py``)
proves the engines agree end to end; these tests pin the *internals* —
:func:`resolve_engine` selection rules, :class:`CountQueue` Mapping
behaviour, :class:`DenseMemory` lane management, and the sealed-handle
protocol of :class:`VectorBlockReadHandle` — so a future refactor that
breaks one of them fails here with a named component, not deep inside a
shrunk hypothesis example.
"""

import pytest

from repro.core.engine_vector import (
    ENGINE_ENV,
    ENGINES,
    CountQueue,
    DenseMemory,
    have_numpy,
    resolve_engine,
)

np = pytest.importorskip("numpy")


class TestResolveEngine:
    def test_default_is_reference(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        assert resolve_engine() == "reference"
        assert resolve_engine(None) == "reference"

    def test_env_selects_vector(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "vector")
        assert resolve_engine() == "vector"

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "vector")
        assert resolve_engine("reference") == "reference"

    def test_empty_env_means_reference(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "")
        assert resolve_engine() == "reference"

    @pytest.mark.parametrize("bad", ["fast", "VECTOR", "numpy", " vector"])
    def test_unknown_name_raises(self, bad):
        with pytest.raises(ValueError, match="engine must be one of"):
            resolve_engine(bad)

    def test_engines_tuple(self):
        assert ENGINES == ("reference", "vector")
        assert have_numpy() is True

    def test_machine_constructor_env_fallthrough(self, monkeypatch):
        from repro.core import QSM

        monkeypatch.setenv(ENGINE_ENV, "vector")
        assert QSM().engine == "vector"
        monkeypatch.delenv(ENGINE_ENV)
        assert QSM().engine == "reference"

    def test_numpy_fallback_warns_exactly_once(self, monkeypatch):
        import warnings

        import repro.core.engine_vector as ev

        monkeypatch.setattr(ev, "np", None)
        monkeypatch.setattr(ev, "_numpy_fallback_warned", False)
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert ev.resolve_engine("vector") == "reference"
        # Second resolution in the same process stays quiet (a sweep
        # building thousands of machines must not spam the warning).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ev.resolve_engine("vector") == "reference"

    def test_no_warning_when_numpy_present(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_engine("vector") == "vector"

    def test_engine_label_recorded_in_metrics(self):
        from repro.core import QSM
        from repro.obs.metrics import MetricsRegistry
        import repro.obs.metrics as metrics_mod

        registry = MetricsRegistry()
        registry.enable()
        old = metrics_mod.REGISTRY
        metrics_mod.REGISTRY = registry
        try:
            QSM(engine="reference")
            QSM(engine="vector")
        finally:
            metrics_mod.REGISTRY = old
        gauge = registry.gauge("repro_engine_info")
        assert gauge.value(engine="reference", model="QSM") == 1.0
        assert gauge.value(engine="vector", model="QSM") == 1.0


class TestCountQueue:
    def test_range_structure_equals_reference_dict(self):
        q = CountQueue(ranges=(range(2, 5), range(8, 10)))
        ref = {2: 1, 3: 1, 4: 1, 8: 1, 9: 1}
        assert q == ref
        assert ref == q  # reflected
        assert len(q) == 5
        assert dict(q) == ref
        assert q[3] == 1
        assert q.get(7) is None

    def test_extra_scalars_merge(self):
        q = CountQueue(ranges=(range(0, 2),), extra={5: 3})
        assert q == {0: 1, 1: 1, 5: 3}
        assert q.max_value() == 3

    def test_key_count_arrays(self):
        keys = np.array([4, 9, 12], dtype=np.int64)
        counts = np.array([2, 1, 3], dtype=np.int64)
        q = CountQueue(keys=keys, counts=counts)
        assert q == {4: 2, 9: 1, 12: 3}
        assert q.max_value() == 3
        assert q.value_counts() == {2: 1, 1: 1, 3: 1}

    def test_empty_queue(self):
        q = CountQueue()
        assert q == {}
        assert len(q) == 0
        assert q.max_value() == 0
        assert q.value_counts() == {}

    def test_max_value_on_depth_one_ranges(self):
        q = CountQueue(ranges=(range(0, 100),))
        assert q.max_value() == 1
        assert q.value_counts() == {1: 100}

    def test_inequality(self):
        q = CountQueue(ranges=(range(0, 3),))
        assert q != {0: 1, 1: 1}
        assert q != {0: 1, 1: 1, 2: 2}
        assert q != [0, 1, 2]

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(CountQueue())


class TestDenseMemory:
    def test_behaves_as_dict(self):
        mem = DenseMemory()
        mem[3] = 10
        mem[7] = "text"
        mem[9] = (1, 2)
        assert mem == {3: 10, 7: "text", 9: (1, 2)}
        assert {3: 10, 7: "text", 9: (1, 2)} == dict(mem)
        assert len(mem) == 3
        assert mem.get(4) is None
        del mem[7]
        assert mem == {3: 10, 9: (1, 2)}

    def test_int_values_round_trip_as_python_ints(self):
        mem = DenseMemory()
        mem[0] = 5
        assert type(mem[0]) is int
        assert mem[0] == 5

    def test_bool_is_not_coerced_to_int(self):
        # bool is an int subclass; the int64 lane must not launder True
        # into 1.
        mem = DenseMemory()
        mem[1] = True
        assert mem[1] is True
        assert type(mem[1]) is bool

    def test_big_ints_survive(self):
        big = 1 << 80
        mem = DenseMemory()
        mem[2] = big
        assert mem[2] == big

    def test_scatter_gather_int_lane(self):
        mem = DenseMemory()
        span = range(10, 20)
        mem.scatter(span, list(range(10)))
        got = mem.gather(span)
        assert list(got) == list(range(10))
        # int lane: gather returns an int64 array
        assert isinstance(got, np.ndarray)
        assert mem == {a: v for a, v in zip(span, range(10))}

    def test_scatter_object_values_then_gather_lists(self):
        mem = DenseMemory()
        span = range(0, 3)
        mem.scatter(span, ["a", (1, 2), 7])
        got = mem.gather(span)
        assert list(got) == ["a", (1, 2), 7]

    def test_scatter_overwrites_object_with_int(self):
        mem = DenseMemory()
        mem[4] = "old"
        mem.scatter(range(4, 5), [11])
        assert mem[4] == 11
        assert mem == {4: 11}

    def test_gather_missing_cells_yield_none(self):
        mem = DenseMemory()
        mem[1] = 6
        assert list(mem.gather(range(0, 3))) == [None, 6, None]

    def test_overflow_addresses_use_dict(self):
        far = DenseMemory.GROW_LIMIT + 5
        mem = DenseMemory()
        mem[far] = 42
        assert mem[far] == 42
        assert mem == {far: 42}
        del mem[far]
        assert far not in mem

    def test_negative_addresses_use_dict(self):
        mem = DenseMemory()
        mem[-3] = 9
        assert mem[-3] == 9
        assert mem == {-3: 9}


class TestVectorBlockReadHandle:
    def test_resolved_block_read_exposes_addrs_values_array(self):
        from repro.core import QSM

        machine = QSM(engine="vector")
        with machine.phase() as ph:
            ph.write_block(0, [(i, i * i) for i in range(5)])
        with machine.phase() as ph:
            h = ph.read_block(1, range(1, 4))
        assert h.proc == 1
        assert tuple(h.addrs) == (1, 2, 3)
        assert list(h.values) == [1, 4, 9]
        arr = h.array
        assert isinstance(arr, np.ndarray)
        assert arr.tolist() == [1, 4, 9]

    def test_sealed_before_commit(self):
        from repro.core import QSM
        from repro.core.machine import PhaseClosedError

        machine = QSM(engine="vector")
        with pytest.raises(PhaseClosedError):
            with machine.phase() as ph:
                h = ph.read_block(0, range(0, 3))
                h.values  # not resolved until the phase commits

    def test_vector_machine_reports_engine(self):
        from repro.core import GSM, QSM

        assert QSM(engine="vector").engine == "vector"
        assert QSM(engine="reference").engine == "reference"
        # GSM accepts the engine too (materializes for strong queuing).
        assert GSM(engine="vector").engine == "vector"


class TestPhaseHandles:
    def test_handles_resolve_after_commit_in_program_order(self):
        from repro.core import QSM

        machine = QSM(engine="vector")
        with machine.phase() as ph:
            ph.write(0, 2, 5)
            ph.write(0, 3, 6)
        with machine.phase() as ph:
            handles = [ph.read(1, 2), ph.read_block(2, range(2, 4)), ph.read(3, 3)]
        assert handles[0].value == 5
        assert list(handles[1].values) == [5, 6]
        assert handles[2].value == 6
