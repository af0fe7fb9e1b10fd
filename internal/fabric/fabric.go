// Package fabric is the distributed campaign tier: a coordinator that
// shards a campaign grid over worker processes and streams the result
// back bit-identical to a single-process run.
//
// The pieces:
//
//   - Ring (ring.go): rendezvous (highest-random-weight) hashing over
//     worker base URLs, keyed on each grid point's machine
//     Fingerprint(): the owner is the worker scoring highest for the
//     key. Points sharing a machine variant land on the same worker,
//     so its config-keyed suite cache concentrates exactly the
//     variants it owns — and a worker restarted from a cache snapshot
//     (core.RestoreCache) is warm for its own shard.
//
//   - The point codec (point.go): one frame per evaluated
//     CampaignPoint in a fixed canonical layout, length-prefixed for
//     incremental stream decoding. Its reader (internal/canon) is the
//     one core's suite-cache snapshot decodes with. Float64 fields travel as IEEE-754
//     bit patterns, so a point decoded from a worker is bit-identical
//     to one evaluated locally.
//
//   - Worker (worker.go): the HTTP handler behind sg2042d -worker. It
//     answers POST /v1/fabric/points — a shard-scoped campaign API:
//     the client's campaign spec plus the grid indices this worker
//     owns — streaming one frame per point as evaluation completes,
//     unflushed, so frames batch in net/http's buffers. A worker only
//     answers; it makes no outbound request.
//
//   - Coordinator (coordinator.go): expands the grid, assigns points
//     by ring, fans requests out, and emits points in grid order from
//     its own reorder loop (run.decide emits each newly decided
//     in-order prefix), then assembles the ranked summaries with
//     repro.AssembleCampaignResult, as a local campaign computes them. A
//     worker that dies, stalls past PointTimeout, or misbehaves is
//     excluded and its outstanding points re-dispatched to survivors;
//     the campaign completes as long as one worker lives, and fails
//     with *AllWorkersDownError once none do. When a worker (re)joins,
//     the coordinator relays its live peers' snapshots of its keys to
//     it (a warm join).
//
// Determinism contract, extended across the network: the coordinator
// assembles the full grid and renders through the exact code paths a
// single process uses, so a sharded campaign's bytes — text, CSV,
// JSON, NDJSON and binary alike — equal the single-process bytes, for
// any worker count and under any single-worker failure. The
// fault-injection harness (faulttest/) and the distributed-determinism
// CI job hold the contract.
package fabric

// PointsPath is the worker's shard-scoped campaign endpoint.
const PointsPath = "/v1/fabric/points"

// HealthPath is the worker's fabric-readiness probe: 200 "ok" when the
// worker can serve shard traffic. It is distinct from the daemon's own
// /healthz (which gates on prewarm) — a cold fabric worker is still a
// correct fabric worker, so membership probes must not flap on warmth.
const HealthPath = "/v1/fabric/healthz"

// SnapshotPath is the worker's suite-cache snapshot endpoint:
// GET ?owner=<url>&fleet=<url>&fleet=<url>... answers the cache entries
// whose machine fingerprints owner wins over the full fleet, exclusions
// ignored (core's fixed snapshot layout); no parameters means the full
// cache.
// An owner without a fleet, a fleet NewRing rejects, or an owner not in
// the fleet is a 400. On a warm-join the coordinator GETs each live
// peer's share for the joining worker from here.
const SnapshotPath = "/v1/fabric/snapshot"

// WarmPath is the worker's warm-join endpoint: POST one snapshot, as
// SnapshotPath answers it, and the worker installs its entries into its
// own suite cache. On every rejoin/join transition the coordinator
// relays each live peer's owner-filtered snapshot here unchanged, one
// POST per peer. A body that is not a whole snapshot of the current
// SnapshotVersion (an older coordinator's JSON order included), or is
// longer than 64 MiB, is a 400 and installs nothing: it costs the
// joiner its warmth (a cold worker is still correct) and counts in
// FabricStats.WarmErrors. The worker never dials out.
const WarmPath = "/v1/fabric/warm"

// ContentType is the media type of a worker's point-frame stream: a
// sequence of uvarint-length-prefixed point frames (point.go), one per
// point.
const ContentType = "application/vnd.sg2042.fabric-frames"

// SnapshotContentType is the media type of an owner-filtered suite-cache
// snapshot (core's fixed snapshot layout, docs/PERFORMANCE.md).
const SnapshotContentType = "application/vnd.sg2042.cache-snapshot"
