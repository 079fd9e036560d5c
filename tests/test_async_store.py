"""Tests for the asyncio-native sharded-store path (repro.store.remote.aio).

The async facade shares the sync client's breaker, fallback and
write-behind queues by reference, so these tests exercise both the
happy path (round trips over real in-process shard servers) and the
shared degraded-mode machinery: a failure on the async transport must
trip the same breaker, owe the same queue, and be drainable by either
side's reconcile.
"""

import asyncio

import pytest

from repro.errors import StoreUnavailableError
from repro.store import ArtifactStore
from repro.store.remote import ShardedStoreClient, StoreServer
from repro.store.remote.aio import AsyncShardClient, AsyncShardedStoreClient


def run(coro):
    return asyncio.run(coro)


@pytest.fixture()
def fleet():
    """Three in-process shard servers; stopped on teardown."""
    servers = [StoreServer(ArtifactStore(cache_dir=None)).start()
               for _ in range(3)]
    yield servers
    for server in servers:
        server.stop()


@pytest.fixture()
def clients(fleet):
    """A sync client over the fleet plus its async facade."""
    sync = ShardedStoreClient([s.url for s in fleet],
                              retries=2, backoff_base=0.001,
                              quarantine_seconds=0.05)
    aio = AsyncShardedStoreClient.over(sync)
    yield sync, aio
    run(aio.close())
    sync.close()


class TestRoundTrips:
    def test_put_get_across_shards(self, clients, fleet):
        sync, aio = clients

        async def main():
            for i in range(24):
                await aio.put(f"key:{i}", {"value": i})
            return [await aio.get(f"key:{i}") for i in range(24)]

        results = run(main())
        assert results == [{"value": i} for i in range(24)]
        # Writes really landed remotely, not just in the fallback.
        remote = sum(len(list(s.store.keys())) for s in fleet)
        assert remote == 24

    def test_remote_hit_visible_to_sync_client(self, clients):
        sync, aio = clients
        run(aio.put("shared-key", {"who": "async"}))
        # The sync client reads the same logical store (same fallback
        # write-through, same shards).
        assert sync.get("shared-key") == {"who": "async"}

    def test_get_misses_cleanly(self, clients):
        _sync, aio = clients
        assert run(aio.get("never-written")) is None

    def test_fresh_get_sees_peer_republish(self, fleet):
        """The hot tier must not shadow a mutable key a *different*
        client republished — the bug class fresh_get exists for."""
        urls = [s.url for s in fleet]
        a = ShardedStoreClient(urls)
        b = ShardedStoreClient(urls)
        try:
            a.put("session-meta:dev", {"epoch": 1})
            assert a.get("session-meta:dev") == {"epoch": 1}
            b.put("session-meta:dev", {"epoch": 2})
            # Plain get serves a's stale hot-tier copy...
            assert a.get("session-meta:dev") == {"epoch": 1}
            # ...fresh_get goes to the owning shard.
            assert a.fresh_get("session-meta:dev") == {"epoch": 2}
            aio = AsyncShardedStoreClient.over(a)
            b.put("session-meta:dev", {"epoch": 3})
            assert run(aio.fresh_get("session-meta:dev")) \
                == {"epoch": 3}
            run(aio.close())
        finally:
            a.close()
            b.close()


class TestRetryLadder:
    def test_dead_shard_exhausts_budget(self):
        shard = AsyncShardClient(
            "tcp://127.0.0.1:1", "127.0.0.1", 1,
            timeout=0.2, retries=3, backoff_base=0.001)

        async def main():
            with pytest.raises(StoreUnavailableError,
                               match="after 3 attempt"):
                await shard.request("ping")

        run(main())
        assert shard.attempts == 3
        assert shard.failures == 3

    def test_single_retry_override(self):
        shard = AsyncShardClient(
            "tcp://127.0.0.1:1", "127.0.0.1", 1,
            timeout=0.2, retries=5, backoff_base=0.001)

        async def main():
            with pytest.raises(StoreUnavailableError):
                await shard.request("ping", retries=1)

        run(main())
        assert shard.attempts == 1


class TestSharedDegradedMode:
    def test_async_failure_trips_shared_breaker_and_owes(self, fleet):
        sync = ShardedStoreClient([s.url for s in fleet],
                                  retries=1, backoff_base=0.001,
                                  quarantine_seconds=30.0)
        aio = AsyncShardedStoreClient.over(sync)
        try:
            keys = [f"owed:{i}" for i in range(40)]
            victim_url = sync.shard_for(keys[0])
            victim = next(s for s in fleet if s.url == victim_url)
            victim_keys = [k for k in keys
                           if sync.shard_for(k) == victim_url]
            assert victim_keys
            victim.stop()

            async def main():
                for key in keys:
                    await aio.put(key, {"k": key})

            run(main())
            # The put to the dead shard degraded: breaker counted the
            # failures, the keys joined the shared write-behind queue,
            # and the value still reads back from the fallback tier.
            assert sync.degraded_puts > 0
            with sync._pending_lock:
                owed = list(sync.pending.get(victim_url, []))
            assert set(victim_keys) <= set(owed)
            assert run(aio.get(victim_keys[0])) == {"k": victim_keys[0]}
        finally:
            run(aio.close())
            sync.close()

    def test_async_reconcile_drains_after_heal(self, fleet):
        sync = ShardedStoreClient([s.url for s in fleet],
                                  retries=1, backoff_base=0.001,
                                  quarantine_seconds=0.05)
        aio = AsyncShardedStoreClient.over(sync)
        try:
            keys = [f"heal:{i}" for i in range(40)]
            victim_url = sync.shard_for(keys[0])
            victim = next(s for s in fleet if s.url == victim_url)
            victim_keys = [k for k in keys
                           if sync.shard_for(k) == victim_url]
            host, port = victim.address
            victim.stop()
            for key in keys:
                sync.put(key, {"k": key})   # sync side owes the debt
            with sync._pending_lock:
                assert sync.pending.get(victim_url)
            # Heal the shard on the same port, wait out the
            # quarantine, then drain over the *async* transport.
            revived = StoreServer(ArtifactStore(cache_dir=None),
                                  host=host, port=port).start()
            try:
                async def main():
                    await asyncio.sleep(0.1)   # cooldown expiry
                    return await aio.reconcile()

                drained = run(main())
                assert drained == len(victim_keys)
                with sync._pending_lock:
                    assert not sync.pending.get(victim_url)
                assert set(victim_keys) <= set(revived.store.keys())
            finally:
                revived.stop()
        finally:
            run(aio.close())
            sync.close()

    def test_reconcile_skips_when_sync_pass_holds_lock(self, clients):
        sync, aio = clients
        sync._reconcile_lock.acquire()
        try:
            assert run(aio.reconcile()) == 0
        finally:
            sync._reconcile_lock.release()


class TestIntrospection:
    def test_ping_all_reports_per_shard_health(self, fleet):
        sync = ShardedStoreClient([s.url for s in fleet],
                                  retries=1, backoff_base=0.001)
        aio = AsyncShardedStoreClient.over(sync)
        try:
            health = run(aio.ping_all())
            assert all(health.values()) and len(health) == 3
            victim_url = fleet[1].url
            fleet[1].stop()
            health = run(aio.ping_all())
            assert health[victim_url] is False
            assert sum(1 for up in health.values() if up) == 2
        finally:
            run(aio.close())
            sync.close()

    def test_stats_delegate_to_sync(self, clients):
        sync, aio = clients
        run(aio.put("stat-key", {"v": 1}))
        assert aio.stats() == sync.stats()
        assert aio.urls == sync.urls

    def test_close_idempotent_and_leaves_sync_open(self, clients):
        sync, aio = clients

        async def main():
            await aio.close()
            await aio.close()

        run(main())
        assert not sync._closed
        sync.put("after-async-close", {"v": 2})
        assert sync.get("after-async-close") == {"v": 2}
