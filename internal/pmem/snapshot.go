package pmem

import (
	"repro/internal/core"
	"repro/internal/memmodel"
	"repro/internal/persist"
	"repro/internal/trace"
)

// WorldSnapshot captures a World at a crash boundary so exploration can
// resume from that point instead of replaying the whole prefix. Take it
// only immediately after Crash: store buffers, pending flushes, the
// volatile cache, and the spawned-thread list are then all empty, so the
// snapshot reduces to the crash image's sealed bounds, the checker's
// constraint state, a trace mark, the random source's position, and a
// handful of counters — O(sealed epochs + constraints), not O(world).
type WorldSnapshot struct {
	model          *persist.ImageSnapshot
	checker        *core.Snapshot
	trace          trace.TraceMark
	heapNext       memmodel.Addr
	rngSeed        int64 // normalised seed of the random source
	rngDraws       int   // draws since that seeding
	ops            int
	threads        int
	assertFailures int
}

// Snapshot captures the world's state for later Restores. See
// WorldSnapshot for the call-point contract.
func (w *World) Snapshot() *WorldSnapshot {
	return &WorldSnapshot{
		model:          w.M.Snapshot(),
		checker:        w.Checker.Snapshot(),
		trace:          w.M.Trace().Mark(),
		heapNext:       w.Heap.next,
		rngSeed:        w.src.x0,
		rngDraws:       w.src.draws(),
		ops:            w.ops,
		threads:        len(w.threadIDs),
		assertFailures: len(w.assertFailures),
	}
}

// Restore rewinds the world to a previously captured Snapshot,
// discarding everything executed since. A snapshot may be restored any
// number of times. The per-operation probe is cleared (as with Reset,
// harnesses re-install it each execution). The random source is rewound
// too, by reseeding it and replaying the draws made before the
// snapshot: any multi-threaded phase draws its schedule from it, so a
// restored execution must see the stream a full replay would.
func (w *World) Restore(s *WorldSnapshot) {
	w.M.Restore(s.model)
	w.rng.Seed(s.rngSeed)
	w.src.skip(s.rngDraws)
	w.M.Trace().Rewind(s.trace)
	w.Checker.Restore(s.checker)
	w.Heap.next = s.heapNext
	w.ops = s.ops
	// The snapshot point is immediately after Crash, which zeroes the
	// fence counter and the crashed flag; spawned threads are always
	// drained by then.
	w.fenceOps = 0
	w.crashed = false
	w.spawned = nil
	w.threadIDs = w.threadIDs[:s.threads]
	// Cap capacity so a post-restore append reallocates instead of
	// overwriting entries a harness may have retained from executions
	// since the snapshot.
	w.assertFailures = w.assertFailures[:s.assertFailures:s.assertFailures]
	w.probe = nil
}
