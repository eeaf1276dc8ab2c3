// Ordered assembly of work-unit streams for the dispatch supervisor.
//
// Assembler is the exported twin of the pool engine's assembly walk
// (pool.go asm): units are fed in canonical order — subtree-ordinal
// order for model checking, range order for random mode — and their
// execution streams are folded into a Result with exactly the engine's
// collector semantics: global indices assigned in order, violations
// merged first-found, truncation at the Executions cap, the cut at the
// first unit with uncollected work, and a checkpoint at the cut.
// Because the fold is a pure function of the unit streams, and each
// unit's stream is deterministic in its spec, the assembled Result is
// bit-identical to an in-process run's at any worker count, under any
// kill schedule, and across supervisor restarts.
package explore

import (
	"time"

	"repro/internal/obs"
)

// Assembler folds unit results, fed in canonical order, into a Result.
type Assembler struct {
	opt   Options
	res   *Result
	seen  map[string]bool
	start time.Time
	idx   int // canonical stream cursor

	cut       *UnitSpec // first unit with uncollected work
	truncated bool      // the Executions cap bound before the frontier drained
	frontier  int

	// cache-registration log for checkpoints, frozen at the cut (the
	// engine's checkpoint covers subtrees up to the cut only; later
	// lookups are re-derived on resume).
	cacheKeys        []CacheEntry
	hits, misses     int
	ckKeys           []CacheEntry
	ckHits, ckMisses int
}

// NewAssembler starts an assembly for program under opt (interpreted as
// in Run; opt.Resume primes the cursor, counters, and dedup set exactly
// like a resumed in-process run).
func NewAssembler(program string, opt Options) *Assembler {
	opt.applyWindowConstraints()
	opt.em = obs.ExploreInstruments(opt.Obs.Reg())
	opt.tr = opt.Obs.Trace()
	a := &Assembler{
		opt:   opt,
		res:   &Result{Program: program, Mode: opt.Mode, Workers: opt.Workers, Window: opt.Model.Window},
		seen:  make(map[string]bool),
		start: time.Now(),
	}
	if ck := opt.Resume; ck != nil {
		primeFromCheckpoint(a.res, a.seen, ck)
		a.idx = ck.Collected
		if ck.MC != nil {
			a.cacheKeys = append(a.cacheKeys, ck.MC.CacheKeys...)
			a.hits, a.misses = ck.MC.CacheHits, ck.MC.CacheMisses
		}
	}
	return a
}

// Collected returns the canonical cursor: how many executions have been
// assembled (including a resumed checkpoint's).
func (a *Assembler) Collected() int { return a.idx }

// Truncated reports whether the Executions cap cut collection short.
func (a *Assembler) Truncated() bool { return a.truncated }

// setCut freezes the checkpoint cut at spec (first-setter wins, like
// the engine walk's a.cut).
func (a *Assembler) setCut(spec *UnitSpec) {
	if a.cut != nil {
		return
	}
	a.cut = spec
	a.ckKeys = append([]CacheEntry(nil), a.cacheKeys...)
	a.ckHits, a.ckMisses = a.hits, a.misses
}

// Add folds one unit's completed stream. Units must arrive in canonical
// order; a unit whose result was lost (poisoned, undelivered at a stop)
// is fed to AddLost in its place.
func (a *Assembler) Add(spec UnitSpec, ur *UnitResult) {
	a.res.WorkerTime += time.Duration(ur.WorkNanos)
	a.res.SnapshotRestores += ur.SnapshotRestores
	if ur.Classified {
		if ur.Class.Keyed {
			a.cacheKeys = append(a.cacheKeys, ur.Class.Key)
			a.misses++
		}
		if ur.Class.Pruned {
			a.hits++
		}
	}
	collected := true
	for _, ex := range ur.Execs {
		if a.cut == nil && a.idx >= a.opt.Executions {
			a.truncated = true
			a.setCut(&spec)
		}
		if a.cut != nil {
			collected = false
			continue
		}
		if ex.Err != nil && ex.Err.Exec < 0 {
			ex.Err.Exec = a.idx
		}
		a.res.collect(execOutcome{
			index: a.idx, aborted: ex.Aborted, violations: ex.Violations, execErr: ex.Err,
			ops: ex.Ops, retirements: ex.Retirements,
			retiredStores: ex.RetiredStores, retiredEvents: ex.RetiredEvents,
			pinnedRoots: ex.PinnedRoots, sweepNanos: ex.SweepNanos,
		}, a.seen, &a.opt)
		a.idx++
	}
	if !ur.Done {
		a.setCut(&spec)
	}
	if !ur.Done || !collected {
		a.frontier++
	}
}

// AddLost records a unit in canonical position whose stream never
// arrived — poisoned, or undelivered when the campaign stopped. It cuts
// the canonical stream (nothing after it may be collected) and counts
// toward the frontier.
func (a *Assembler) AddLost(spec UnitSpec) {
	a.setCut(&spec)
	a.frontier++
}

// Finish closes the assembly. stopReason is the supervisor's stop cause
// ("" for a run whose frontier drained); like the engines, a cut with
// no external stop is an "exec-budget" truncation, and only a
// non-truncated stop yields a checkpoint.
func (a *Assembler) Finish(stopReason string) *Result {
	res := a.res
	res.CacheHits, res.CacheMisses = a.hits, a.misses
	if a.cut != nil {
		res.Partial = true
		if stopReason != "" {
			res.noteStop(stopReason)
		} else {
			res.noteStop("exec-budget")
		}
		res.FrontierRemaining = a.frontier
		if a.opt.Mode == Random {
			res.FrontierRemaining = a.opt.Executions - a.idx
		}
		// Like the engines, only an external stop yields a checkpoint;
		// budget truncation (cap reached, or a unit that bowed out on its
		// dispatch budget) is re-run with a larger budget instead.
		if stopReason != "" && !a.truncated {
			res.Checkpoint = a.checkpoint()
		}
	} else if stopReason != "" {
		res.noteStop(stopReason)
	}
	res.Elapsed = time.Since(a.start)
	return res
}

// checkpoint builds the resume state at the cut. A model-check cut
// unit's spec is already checkpoint-shaped — its MC block names the cut
// subtree, trail, and spawn flag — so the checkpoint is that block plus
// the frozen cache-registration log. A cut unit that classified but
// whose stream was lost re-classifies on resume (its registration is
// deliberately not in the log; re-registering is idempotent for the
// hit/miss pattern of later subtrees).
func (a *Assembler) checkpoint() *Checkpoint {
	ck := &Checkpoint{
		Version:       checkpointVersion,
		Program:       a.res.Program,
		Mode:          a.opt.Mode.String(),
		Seed:          a.opt.Seed,
		Model:         resolveModel(a.opt.Model.Name),
		Window:        a.opt.Model.Window,
		Collected:     a.idx,
		Aborted:       a.res.Aborted,
		Quarantined:   a.res.Quarantined,
		ViolationKeys: keysOf(a.seen),
	}
	if a.opt.Mode == ModelCheck {
		mc := &MCCheckpoint{
			CacheKeys:   a.ckKeys,
			CacheHits:   a.ckHits,
			CacheMisses: a.ckMisses,
		}
		if a.cut.MC != nil {
			mc.Subtree = a.cut.MC.Subtree
			mc.Started = a.cut.MC.Started
			mc.Trail = a.cut.MC.Trail
			mc.SpawnNext = a.cut.MC.SpawnNext
		}
		ck.MC = mc
	}
	return ck
}
