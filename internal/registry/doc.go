// Package registry owns the multi-tenant scenario index of the serving
// stack: a sharded, concurrency-safe map from scenario ID to per-tenant
// state.
//
// The paper evaluates placement and localization per network (one
// topology, one service set, one placement — the Section VI setup); the
// related many-topology work (Johnson et al.'s set-cover-by-pairs
// instances, Ma et al.'s per-topology capability studies) operates on
// fleets of independent instances. This package is the piece that lets
// one placemond process host such a fleet: every scenario is an
// isolated bundle (its own monitor state, dedup window, trace ring) and
// lookups take only a per-shard read lock, so tenants never serialize
// against each other on the hot ingest path.
//
// The package is generic over the tenant payload and depends only on the
// standard library; the serving layer (internal/server) instantiates it
// with its tenant type. Persistence is not its concern: scenarios live in
// memory, or in the serving layer's write-ahead log (internal/wal).
package registry
