"""The macro soak: one scaled-down day through the whole stack.

This is the tier-1 cross-layer integration gate: BiQL sessions, the
sharded serving tier, per-shard answer caches, scheduled outages, ETL
churn, and the WAL-shipped replica all run together, deterministically,
under the harness seed.
"""

import hashlib
import json

import pytest

from repro.workload import (
    DiurnalPhase,
    MacroSpec,
    OutageSpec,
    PartitionSpec,
    build_macro_federation,
    run_macro,
)
from tests.concurrency.scheduler import harness_seed


def soak_spec(seed=None) -> MacroSpec:
    """Smaller than ``MacroSpec.quick``: a three-epoch day that still
    exercises every layer (outage included)."""
    return MacroSpec(
        name="soak",
        seed=harness_seed() if seed is None else seed,
        shards=2, size=18, users=60,
        phases=(DiurnalPhase("calm", 1, 0.8),
                DiurnalPhase("burst", 1, 3.0),
                DiurnalPhase("calm-again", 1, 1.0)),
        epoch_length=12.0, capacity=3, cache_entries=128,
        etl_steps=2, ship_every=2, biql_per_epoch=1,
        # The window must outlive the epoch's serve makespan *plus*
        # the earlier monitors' sweep costs, or the guarded poll runs
        # after the outage lifted and the staleness bound never grows.
        outages=(OutageSpec(epoch=1, shard=0, source=0, delay=1.0,
                            duration=45.0),),
        # The replica link is cut across the epoch-1 catch-up round
        # and heals before the end-of-day convergence check.
        partitions=(PartitionSpec(epoch=1, delay=0.5, duration=40.0),),
    )


@pytest.fixture(scope="module")
def soak_payload():
    return run_macro(soak_spec()).to_payload()


class TestSoak:
    def test_the_day_actually_served_traffic(self, soak_payload):
        overall = soak_payload["overall"]
        assert overall["offered"] > 30
        assert overall["served"] > 0
        assert 0.0 < overall["goodput_ratio"] <= 1.0

    def test_every_phase_reports(self, soak_payload):
        assert set(soak_payload["phases"]) == {"calm", "burst",
                                               "calm-again"}
        for stats in soak_payload["phases"].values():
            assert stats["offered"] > 0

    def test_cache_works_across_epochs(self, soak_payload):
        cache = soak_payload["cache"]
        assert cache["hits"] > 0
        assert cache["misses"] > 0
        assert 0.0 < cache["hit_rate"] < 1.0

    def test_etl_churn_invalidates_precisely(self, soak_payload):
        assert soak_payload["cache"]["invalidations"] > 0

    def test_outage_grows_the_staleness_bound(self, soak_payload):
        # The epoch-1 outage spans the cache sync, so at least one
        # sweep leaves a source suspect and the bound keeps growing.
        assert soak_payload["staleness"]["max"] > \
            soak_payload["spec"]["epoch_length"]

    def test_replica_ships_and_converges(self, soak_payload):
        replica = soak_payload["replica"]
        assert replica["applied_statements"] > 0
        assert replica["rejected_shipments"] == 0
        assert replica["converged"] is True
        assert replica["lag_max"] > 0.0

    def test_partition_drops_rounds_and_the_drill_fences(self,
                                                         soak_payload):
        # The epoch-1 window swallows that epoch's catch-up round, and
        # the end-of-day failover drill's deposed-epoch straggler is
        # fenced — yet the replica still converges after the heal.
        replica = soak_payload["replica"]
        assert replica["partition_drops"] >= 1
        assert replica["failover_drills"] == 1
        assert replica["shipments_fenced"] == 1
        assert replica["epoch"] == 2
        assert replica["converged"] is True
        assert soak_payload["spec"]["partitions"] == 1

    def test_biql_statements_ran(self, soak_payload):
        biql = soak_payload["biql"]
        assert biql["run"] + biql["refused"] == 3

    def test_headline_is_complete(self, soak_payload):
        assert set(soak_payload["headline"]) == {
            "goodput_ratio", "p50_latency", "p99_latency", "shed_rate",
            "cache_hit_rate", "staleness_max", "replica_lag_max",
            "replica_converged",
        }

    def test_tenancy_is_multi(self, soak_payload):
        assert soak_payload["workload"]["active_tenants"] > 10


class TestDeterminism:
    def test_two_runs_serialize_identically(self):
        spec = soak_spec()
        first = json.dumps(run_macro(spec).to_payload(), sort_keys=True)
        second = json.dumps(run_macro(spec).to_payload(), sort_keys=True)
        assert first == second

    def test_the_seed_matters(self, soak_payload):
        other = run_macro(soak_spec(seed=harness_seed() + 17)).to_payload()
        assert (json.dumps(other, sort_keys=True)
                != json.dumps(soak_payload, sort_keys=True))


#: sha256 of the sorted-key JSON payload of ``MacroSpec.quick(seed)``.
#: ``bench_macro --check`` compares within tolerances; this pins every
#: byte, so any behavioural drift of the whole stack fails here.
GOLDEN_QUICK_DIGESTS = {
    0: "027a21150215f8aee979ee492fceff891a1eb6e613b0429497e7e903415a693e",
    7919: "77f0648c6151107dc9f0e7aa02d4f8e075f613212ef4f4dbe8e66845909af48d",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_QUICK_DIGESTS))
def test_quick_day_payload_is_byte_identical(seed):
    payload = json.dumps(run_macro(MacroSpec.quick(seed)).to_payload(),
                         sort_keys=True)
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_QUICK_DIGESTS[seed]


class TestFederationWiring:
    def test_shards_share_one_clock(self, tmp_path):
        federation = build_macro_federation(soak_spec(),
                                            str(tmp_path))
        assert federation.server.timeline is federation.timeline
        for mediator in federation.mediators:
            assert mediator.timeline is federation.timeline
        assert federation.follower.timeline is federation.timeline

    def test_sharded_admit_inline_consults_every_shard(self, tmp_path):
        federation = build_macro_federation(soak_spec(),
                                            str(tmp_path))
        # Fresh federation: nothing queued, nothing browned out.
        assert federation.server.admit_inline() is None
        # Fill one shard's queue: inline work must now be refused.
        shard = federation.server.servers[0]
        for index in range(shard.policy.queue_capacity):
            shard.queue.push(object(), priority=0, seq=index)
        assert federation.server.admit_inline() == "queue_full"

    def test_accessions_span_every_shard(self, tmp_path):
        federation = build_macro_federation(soak_spec(),
                                            str(tmp_path))
        owners = {federation.shard_map.shard_of(accession)
                  for accession in federation.accessions}
        assert owners == set(range(federation.shard_map.count))
