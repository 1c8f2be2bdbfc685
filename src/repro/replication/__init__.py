"""Replicated read path: WAL-frame shipping and consistent-hash routing.

A primary's commit path publishes every applied :class:`MutationRecord`,
once its WAL commit has returned, to a :class:`ReplicationFeed` — a TCP
listener that streams the same checksummed NDJSON frames the durability
layer writes to disk.  Each
replica process runs a :class:`ReplicaFollower` that bootstraps from a
snapshot stream, applies the live tail through the store's
``apply_journal`` path (so shard-granular cache invalidation and
dynamic-rule re-derivation work unchanged), and acks applied versions
back so the primary can report lag.  A :class:`QueryRouter` fronts the
fleet: reads consistent-hash across replicas by structural query key,
mutations go to the single writer, and read-your-writes is enforced by
pinning each client connection to the store version of its last
mutation.

* :mod:`~repro.replication.ring` — the consistent-hash ring and the
  cross-process-stable route key;
* :mod:`~repro.replication.feed` — the primary's frame feed (initial
  sync + live tail + acks);
* :mod:`~repro.replication.follower` — the replica's bootstrap / apply /
  reconnect loop;
* :mod:`~repro.replication.router` — the ``python -m repro route`` tier.
"""

from .feed import ReplicationFeed
from .follower import ReplicaFollower, ReplicationError
from .ring import ConsistentHashRing, route_key
from .router import QueryRouter

__all__ = [
    "ConsistentHashRing",
    "QueryRouter",
    "ReplicaFollower",
    "ReplicationError",
    "ReplicationFeed",
    "route_key",
]
