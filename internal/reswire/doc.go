// Package reswire puts the resd reservation-admission service on the
// network: a length-prefixed binary protocol, a TCP server that decodes
// frames straight into the shard event loops, and a pipelining client
// that multiplexes concurrent callers over a handful of connections.
//
// # Protocol
//
// Every message is one frame: a uint32 payload length, then a fixed
// header (magic "RW", version, op, uint64 request id) and an op-specific
// body of fixed-width big-endian fields. Responses echo the request id and
// carry a status Code; every non-OK code maps onto one of resd's typed
// errors — REJECTED_DEADLINE arrives as resd.ErrDeadline,
// REJECTED_NEVER_FITS as resd.ErrNeverFits, REJECTED_QUOTA as
// tenant.ErrQuota — so remote callers branch with errors.Is exactly as
// in-process callers do. The decoder validates magic, version, op, frame
// bounds (MaxFrame) and vector lengths before allocating, never panics on
// hostile bytes, and requires each frame to be consumed exactly;
// FuzzWireCodec enforces all of that plus canonical round-tripping, and
// the golden frames in golden_test.go pin every op's bytes.
//
// There is one protocol revision, Version. A frame carrying any other
// version byte fails with ErrVersion; the server journals and counts the
// refusal and closes the connection, as for any malformed frame.
//
// # Ops
//
//   - Reserve admits a reservation: ready, width, length, deadline, the
//     tenant the admission is accounted to (a length-prefixed name, empty
//     for the default tenant), the client's send stamp and a force-trace
//     flag. The answer is the admitted resd.Reservation.
//   - Cancel, Query and Snapshot release a reservation, read per-shard
//     free capacity at an instant, and copy one shard's capacity profile.
//   - Ping is an empty round trip.
//   - Stats reads every shard's resd.ShardStats, including the
//     rebalancer's MigratedIn/MigratedOut and the p99 start-time slack.
//   - QuotaGet and QuotaSet read and re-budget one tenant's share of the
//     server's quota registry at runtime.
//   - Trace reads up to Limit of the server's newest sampled admission
//     traces (resd.TraceRecord: the client-send, route, enqueue,
//     batch-start and decision stamps, outcome and tenant).
//   - Watch turns a request into a subscription. The body names a push
//     interval (clamped into [MinWatchInterval, MaxWatchInterval]) and a
//     family mask (WatchShards | WatchTenants | WatchWAL | WatchTraces |
//     WatchSLO), and the server answers with an open-ended stream of
//     Telemetry frames: sequence-numbered snapshots of per-shard load and
//     queue depth, per-tenant budget usage, write-ahead-log state,
//     trace-ring counters and evaluated SLO states (empty on servers
//     running without an SLO engine — see internal/slo). Frames are
//     assembled from the same published atomics a /metrics scrape reads,
//     so a subscriber never touches a shard event loop; a slow subscriber
//     (full write queue, stalled socket) has frames dropped and marked —
//     Seq stays monotone and the next delivered frame's Dropped field
//     counts the gap — rather than ever back-pressuring the server.
//     Subscriptions are capped per connection (CodeBadRequest past the
//     limit).
//
// Client.Watch is the subscription's client face: it runs each
// subscription on its own dedicated connection (pushed frames never
// contend with the request/response window) and, when the transport
// fails, redials and resubscribes transparently until its context is
// cancelled or the client closes. Frame Seq restarts after a
// resubscribe, so a consumer that must distinguish "my stream bounced"
// from "the counters moved" watches for the restart — cmd/obscheck's
// -watch mode treats it as a failed check.
//
// # Instrumentation
//
// Both sides can carry obs instrumentation: NewMetrics builds the
// reswire_* families (per-op latency summaries, in-flight gauge, socket
// byte counters, frame-error and response-code counters) against an
// obs.Registry, attached via Server.SetMetrics and Options.Metrics. The
// two sides share family names and are kept apart by the side label. A
// nil Metrics — the default — leaves the hot path uninstrumented.
//
// # Server
//
// The server runs one reader and one writer per connection. The reader
// decodes frames and dispatches each request into the resd.Service on its
// own goroutine (bounded per connection), so concurrent requests from one
// client land in the shard event loops' group-commit batches exactly like
// in-process traffic — the lock-free admission path is preserved end to
// end. The writer coalesces: each wakeup drains every response already
// queued and flushes once, so under load many responses share a syscall.
//
// # Client
//
// The client spreads callers round-robin over Options.Conns connections.
// With Options.Pipeline, each connection allows a window of in-flight
// requests whose frames are batched into shared flushes (responses are
// matched back by request id, so ordering is free to differ); without it,
// each connection carries one request at a time — the classic
// write-flush-wait RPC shape, kept as the benchmark baseline.
// BenchmarkWireThroughput (repository root, recorded in
// BENCH_reswire.json) measures the gap: pipelining is the difference
// between paying one round trip per admission and amortising the wire
// across a batch.
//
// Client.Admit mirrors resd.Service.Admit field for field: the one
// resd.Request struct is the admission vocabulary on both sides of the
// socket.
//
// Options.CallTimeout bounds every call end to end — waiting for a
// window slot, getting the frame onto the socket, and waiting for the
// response — failing with ErrTimeout. A timed-out call releases its
// window slot
// immediately and marks its request id stale; if the response arrives
// late, the reader discards it and keeps the connection, so one slow
// request degrades to one failed call, not a poisoned connection. Zero
// means no timeout. After Close every call fails with ErrClientClosed.
package reswire
