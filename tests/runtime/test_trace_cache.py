"""On-disk trace cache: keying, round-trips, invalidation, accounting."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.graph import build_csr
from repro.graph.generators import dataset_seed
from repro.reporting import summarize
from repro.runtime import TraceCache, TraceSpec, default_cache_root, trace_key
from repro.runtime.points import GRAPH_MEMO, GraphMemo
from repro.runtime.trace_cache import CACHE_ENV_VAR
from repro.system.runner import simulate

#: Small but non-trivial trace: fast to generate, exercises BFS's
#: dynamically allocated frontier regions as well as static layouts.
SPEC = TraceSpec(workload="PR", dataset="kron", max_refs=3000, scale_shift=-6)
BFS_SPEC = TraceSpec(workload="BFS", dataset="kron", max_refs=3000, scale_shift=-6)


@pytest.fixture
def cache(tmp_path) -> TraceCache:
    return TraceCache(tmp_path / "traces")


class TestTraceKey:
    def test_stable_across_instances(self):
        assert trace_key(SPEC) == trace_key(
            TraceSpec(workload="pr", dataset="kron", max_refs=3000, scale_shift=-6)
        )

    @pytest.mark.parametrize(
        "other",
        [
            TraceSpec("PR", "kron", max_refs=3001, scale_shift=-6),
            TraceSpec("PR", "kron", max_refs=3000, scale_shift=-5),
            TraceSpec("PR", "kron", max_refs=3000, scale_shift=-6, seed=99),
            TraceSpec("BFS", "kron", max_refs=3000, scale_shift=-6),
            TraceSpec("PR", "urand", max_refs=3000, scale_shift=-6),
        ],
    )
    def test_sensitive_to_every_identity_field(self, other):
        assert trace_key(other) != trace_key(SPEC)

    def test_weightedness_is_part_of_the_key(self):
        # SSSP traces a weighted graph; the key must not collide with an
        # unweighted workload's trace of the same dataset.
        sssp = TraceSpec("SSSP", "kron", max_refs=3000, scale_shift=-6)
        assert sssp.weighted and not SPEC.weighted
        assert trace_key(sssp) != trace_key(SPEC)


class TestDefaultRoot:
    def test_defaults_under_home_cache(self, monkeypatch):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        root = default_cache_root()
        assert root is not None
        assert root.parts[-3:] == (".cache", "repro", "traces")

    def test_env_var_overrides(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "custom"))
        assert default_cache_root() == tmp_path / "custom"

    @pytest.mark.parametrize("value", ["", "0", "off", "none", "OFF"])
    def test_env_var_disables(self, monkeypatch, value):
        monkeypatch.setenv(CACHE_ENV_VAR, value)
        assert default_cache_root() is None
        cache = TraceCache()
        assert not cache.enabled


class TestRoundTrip:
    def test_miss_then_hit_with_accounting(self, cache):
        assert cache.lookup(SPEC) is None
        assert (cache.hits, cache.misses) == (0, 1)
        run, was_hit = cache.get_or_trace(SPEC)
        assert not was_hit
        assert run.trace is not None
        cached, was_hit = cache.get_or_trace(SPEC)
        assert was_hit
        assert (cache.hits, cache.misses) == (1, 2)
        assert cached.workload == run.workload and cached.dataset == run.dataset

    @pytest.mark.parametrize("spec", [SPEC, BFS_SPEC], ids=["PR", "BFS"])
    def test_cached_run_simulates_bit_identically(self, cache, spec):
        fresh = spec.trace()
        cache.store(spec, fresh)
        cached = cache.lookup(spec)
        assert cached is not None
        # The trace arrays round-trip exactly...
        assert np.array_equal(cached.trace.addr, fresh.trace.addr)
        # ... the layout reconstructs region-exactly (BFS allocates its
        # frontier queues *during* tracing; those must replay too) ...
        fresh_regions = {
            r.name: (r.base, r.size, r.kind, r.element_size)
            for r in fresh.layout.space.regions.values()
        }
        cached_regions = {
            r.name: (r.base, r.size, r.kind, r.element_size)
            for r in cached.layout.space.regions.values()
        }
        assert cached_regions == fresh_regions
        # ... so simulation of the cached run is bit-identical.
        assert summarize(simulate(cached)) == summarize(simulate(fresh))

    def test_algorithm_output_not_retained(self, cache):
        run, _ = cache.get_or_trace(SPEC)
        cached = cache.lookup(SPEC)
        # Only the simulation-relevant state round-trips; the algorithm's
        # output values are deliberately not persisted.
        assert cached.result is None
        assert cached.completed == run.completed


class TestInvalidation:
    def _warm(self, cache, spec=SPEC):
        cache.get_or_trace(spec)
        cache.hits = cache.misses = 0
        return cache._paths(trace_key(spec))

    def test_version_skew_drops_entry(self, cache):
        npz_path, meta_path = self._warm(cache)
        meta = json.loads(meta_path.read_text())
        meta["cache_format"] += 1
        meta_path.write_text(json.dumps(meta))
        assert cache.lookup(SPEC) is None
        assert cache.misses == 1
        assert not npz_path.exists() and not meta_path.exists()

    def test_corrupt_archive_drops_entry(self, cache):
        npz_path, meta_path = self._warm(cache)
        npz_path.write_bytes(npz_path.read_bytes()[: npz_path.stat().st_size // 2])
        assert cache.lookup(SPEC) is None
        assert not npz_path.exists() and not meta_path.exists()

    def test_layout_fingerprint_mismatch_drops_entry(self, cache):
        npz_path, meta_path = self._warm(cache)
        meta = json.loads(meta_path.read_text())
        meta["regions"][0][1] += 64  # shift one recorded region base
        meta_path.write_text(json.dumps(meta))
        assert cache.lookup(SPEC) is None
        assert not meta_path.exists()

    def test_missing_sidecar_is_a_plain_miss(self, cache):
        npz_path, meta_path = self._warm(cache)
        meta_path.unlink()
        assert cache.lookup(SPEC) is None
        assert cache.misses == 1

    def test_clear_removes_entries(self, cache):
        self._warm(cache)
        assert cache.clear() == 2  # .npz + .json
        assert cache.lookup(SPEC) is None


class TestIntegrity:
    """Satellite: checksums, quarantine and the per-entry advisory lock."""

    def _warm(self, cache, spec=SPEC):
        cache.get_or_trace(spec)
        cache.hits = cache.misses = 0
        return cache._paths(trace_key(spec))

    def test_sidecar_records_npz_checksum(self, cache):
        import hashlib

        npz_path, meta_path = self._warm(cache)
        meta = json.loads(meta_path.read_text())
        assert meta["npz_sha256"] == hashlib.sha256(
            npz_path.read_bytes()
        ).hexdigest()

    def test_truncated_archive_is_quarantined(self, cache):
        npz_path, meta_path = self._warm(cache)
        npz_path.write_bytes(npz_path.read_bytes()[: npz_path.stat().st_size // 2])
        assert cache.lookup(SPEC) is None
        assert cache.quarantined == 1
        assert (cache.quarantine_dir / npz_path.name).exists()
        assert (cache.quarantine_dir / meta_path.name).exists()

    def test_checksum_mismatch_is_quarantined(self, cache):
        npz_path, meta_path = self._warm(cache)
        # Flip one payload byte: still a loadable npz, but not the bytes
        # the sidecar vouches for.
        data = bytearray(npz_path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        npz_path.write_bytes(bytes(data))
        assert cache.lookup(SPEC) is None
        assert cache.quarantined == 1

    def test_malformed_sidecar_is_quarantined(self, cache):
        _npz_path, meta_path = self._warm(cache)
        meta_path.write_text("{not json")
        assert cache.lookup(SPEC) is None
        assert cache.quarantined == 1

    def test_quarantined_entry_regenerates(self, cache):
        npz_path, _meta_path = self._warm(cache)
        fresh = cache.lookup(SPEC)  # keep a clean reference loaded first
        npz_path.write_bytes(b"garbage")
        cache.hits = cache.misses = 0
        run, was_hit = cache.get_or_trace(SPEC)
        assert not was_hit
        assert np.array_equal(run.trace.addr, fresh.trace.addr)
        # The regenerated entry is immediately loadable again.
        assert cache.lookup(SPEC) is not None

    def test_concurrent_cold_misses_generate_once(self, cache, monkeypatch):
        import threading

        from repro.runtime.points import TraceSpec as SpecClass

        traced = []
        original = SpecClass.trace

        def counting_trace(self, graph=None):
            traced.append(trace_key(self))
            return original(self, graph=graph)

        monkeypatch.setattr(SpecClass, "trace", counting_trace)
        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(cache.get_or_trace(SPEC))
            )
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # The advisory lock serialized the generate-and-store: one thread
        # traced, the other found the stored entry on its post-lock
        # re-check.
        assert len(traced) == 1
        assert len(results) == 2
        assert sorted(hit for _run, hit in results) == [False, True]

    def test_quarantine_counter_in_repr(self, cache):
        assert "quarantined=0" in repr(cache)


class TestDisabled:
    def test_disabled_cache_never_touches_disk(self, tmp_path):
        cache = TraceCache(tmp_path / "traces", enabled=False)
        run, was_hit = cache.get_or_trace(SPEC)
        assert not was_hit and run is not None
        assert not (tmp_path / "traces").exists()
        assert cache.lookup(SPEC) is None
        assert cache.clear() == 0


@pytest.fixture
def builds(monkeypatch):
    """Every real graph build (``TraceSpec.build_graph`` call), in order."""
    calls = []
    original = TraceSpec.build_graph

    def counting_build(self):
        calls.append(self.graph_identity)
        return original(self)

    monkeypatch.setattr(TraceSpec, "build_graph", counting_build)
    return calls


@pytest.fixture
def cold_memo():
    """An empty process-wide graph memo, emptied again afterwards."""
    GRAPH_MEMO.clear()
    yield GRAPH_MEMO
    GRAPH_MEMO.clear()


class TestGraphMemo:
    """The process-wide memo: one read-only graph per graph identity."""

    def test_trace_cache_load_reuses_the_memoized_graph(
        self, cache, builds, cold_memo
    ):
        cache.get_or_trace(BFS_SPEC)
        run = cache.lookup(BFS_SPEC)
        assert run is not None and cache.hits == 1
        assert len(builds) == 1
        assert run.layout.graph is cold_memo.get(BFS_SPEC.graph_identity)

    def test_trace_builds_once_and_touches_no_disk(
        self, tmp_path, monkeypatch, builds, cold_memo
    ):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "default"))
        SPEC.trace()
        SPEC.trace()
        assert len(builds) == 1
        assert list(tmp_path.iterdir()) == []

    def test_a_passed_graph_is_used_for_that_call_only(self, cache, cold_memo):
        graph = SPEC.build_graph()
        run, _ = cache.get_or_trace(SPEC, graph=graph)
        assert run.layout.graph is graph
        assert len(cold_memo) == 0

    def test_default_seed_shares_one_entry(self, builds, cold_memo):
        implicit = TraceSpec("PR", "kron", scale_shift=-6).graph()
        explicit = TraceSpec(
            "CC", "kron", scale_shift=-6, seed=dataset_seed("kron")
        ).graph()
        assert implicit is explicit
        assert len(builds) == 1 and len(cold_memo) == 1

    def test_weightedness_is_part_of_the_identity(self, cold_memo):
        unweighted = TraceSpec("PR", "kron", scale_shift=-6).graph()
        weighted = TraceSpec("SSSP", "kron", scale_shift=-6).graph()
        assert weighted.is_weighted and not unweighted.is_weighted

    def test_never_exceeds_its_capacity(self, cold_memo):
        specs = [
            TraceSpec("PR", "mesh", scale_shift=-5, seed=seed)
            for seed in range(cold_memo.capacity + 3)
        ]
        for spec in specs:
            spec.graph()
            assert len(cold_memo) <= cold_memo.capacity
        assert len(cold_memo) == cold_memo.capacity
        # Least recently used first out.
        assert cold_memo.get(specs[0].graph_identity) is None
        assert cold_memo.get(specs[-1].graph_identity) is not None

    def test_memoized_arrays_are_read_only(self, cold_memo):
        graph = TraceSpec("SSSP", "kron", scale_shift=-6).graph()
        for array in (graph.offsets, graph.neighbors, graph.weights):
            with pytest.raises(ValueError):
                array[0] = 1
        transposed = graph.transpose()
        for array in (transposed.offsets, transposed.neighbors, transposed.weights):
            with pytest.raises(ValueError):
                array[0] = 1

    def test_concurrent_cold_graph_builds_once(self, monkeypatch, cold_memo):
        import threading
        import time

        built = []
        original = TraceSpec.build_graph

        def slow_build(self):
            built.append(self.graph_identity)
            time.sleep(0.05)  # let the other thread reach the memo
            return original(self)

        monkeypatch.setattr(TraceSpec, "build_graph", slow_build)
        start = threading.Barrier(2)
        graphs = []

        def worker():
            start.wait(timeout=10)
            graphs.append(SPEC.graph())

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert len(built) == 1
        assert len(graphs) == 2 and graphs[0] is graphs[1]

    def test_threads_never_overfill_or_mix_up_entries(self):
        import sys
        import threading

        memo = GraphMemo(capacity=3)
        graphs = [build_csr(4, [(0, i % 4)], name=str(i)) for i in range(8)]
        problems = []

        def worker(offset):
            try:
                for step in range(5000):
                    i = (offset + step) % len(graphs)
                    got = memo.get_or_build(i, lambda: graphs[i])
                    if got is not graphs[i]:
                        problems.append(("mixed up", i))
                    if len(memo) > memo.capacity:
                        problems.append(("overfull", len(memo)))
            except Exception as exc:  # a lost update corrupting the LRU
                problems.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert problems == []
        assert len(memo) == memo.capacity

    def test_trace_keys_do_not_move(self):
        # Traces stored before the memo existed must still hit.
        assert trace_key(SPEC) == "b8d8ec6741a42b42224ec4750dbf0971"
