// Parallel exploration engine: a worker pool for random mode and a
// deterministic work-stealing scheduler for model-checking mode.
//
// Determinism is the design constraint. Per-execution worlds are fully
// self-contained (machine, trace, checker, heap, RNG), so executions
// can run on any worker; what must not leak is *scheduling*. Random
// mode derives every execution's seed from its index, and a collector
// folds outcomes into the result strictly in index order (workers hand
// batches of consecutive outcomes over in one channel send each).
// Model-check mode runs the DFS as a tree of *work units*: each unit
// owns a sub-range of the decision tree, bounded below by its root
// trail index. A busy unit donates the shallowest still-unexplored
// cut of its own trail to hungry workers (work stealing, inverted:
// the victim carves at its loop top, so the donated range is always a
// whole untouched branch suffix), and the assembly walk at the end
// reorders every unit's execution list back into canonical depth-first
// order — byte-for-byte the order one depth-first walk visits,
// truncated at the Executions cap. See DESIGN.md, "Work-stealing scheduler".
//
// Graceful degradation preserves both properties: workers consult the
// run's stopper only *between* executions (an execution, once claimed,
// always runs to completion and is collected), so a stopped run's
// collected stream is always a contiguous prefix of the uninterrupted
// run's canonical stream — which is what makes the checkpoint cut
// well-defined and resume deterministic.
package explore

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pmem"
)

// collectorSlack bounds how far ahead of the collector workers may run:
// at most Workers*collectorSlack batches are in flight or buffered out
// of order at once, which bounds retained worlds/violations.
const collectorSlack = 4

// maxRandomBatch caps how many consecutive executions a random-mode
// worker claims per collector handoff. Batching amortizes the channel
// send and the collector wakeup; the cap keeps stop latency (a claimed
// batch always runs to completion) and out-of-order buffering small.
const maxRandomBatch = 8

// execBatch is one worker's chunk of consecutive outcomes, published to
// the collector in a single channel send.
type execBatch struct {
	base int // index of outs[0]
	outs []execOutcome
}

// randomBatchSize picks the per-claim batch for a run. Worlds retained
// for AfterExecution are heavy, so keepWorld runs stay at one outcome
// per send (the in-flight bound is then identical to the unbatched
// engine); otherwise the batch grows with the per-worker backlog up to
// maxRandomBatch.
func randomBatchSize(opt *Options, plan *randomPlan) int {
	if plan.keepWorld {
		return 1
	}
	b := opt.Executions / (opt.Workers * collectorSlack * 2)
	if b < 1 {
		b = 1
	}
	if b > maxRandomBatch {
		b = maxRandomBatch
	}
	return b
}

// runRandomParallel fans random-mode executions over opt.Workers
// goroutines and folds outcomes through the ordered collector. Results
// are bit-identical to the serial loop: seeds depend only on indices,
// and the collector emits in index order on the calling goroutine. The
// stop check sits before the batch claim, so every claimed batch is
// executed and sent in full — the collected stream has no gaps and the
// returned cursor is the exact resume point. Returns the canonical
// stream position: every execution below it (from startExec) was
// collected.
func runRandomParallel(p Program, opt *Options, plan *randomPlan, res *Result, seen map[string]bool, st *stopper, startExec int) int {
	batch := randomBatchSize(opt, plan)
	tokens := make(chan struct{}, opt.Workers*collectorSlack)
	outc := make(chan execBatch, opt.Workers*collectorSlack)
	next := int64(startExec) - int64(batch)
	var wg sync.WaitGroup
	for i := 0; i < opt.Workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// worker-lifetime reusable world + scratch; tid id+1 is the
			// worker's trace timeline (tid 0 is the campaign thread).
			ws := newWorkerState(p, opt, id+1)
			ws.tr.NameThread(ws.tid, "worker-"+strconv.Itoa(ws.tid))
			metered := ws.wm.IdleNanos != nil
			for {
				var idleStart time.Time
				if metered {
					idleStart = time.Now()
				}
				select {
				case tokens <- struct{}{}: // wait for the collector to keep up
				case <-st.done():
					return
				}
				if metered {
					idle := int64(time.Since(idleStart))
					ws.wm.IdleNanos.Add(idle)
					opt.em.WorkerIdle.Add(idle)
				}
				if st.stopped() {
					<-tokens
					return
				}
				base := int(atomic.AddInt64(&next, int64(batch)))
				if base >= opt.Executions {
					<-tokens
					return
				}
				end := base + batch
				if end > opt.Executions {
					end = opt.Executions
				}
				b := execBatch{base: base, outs: make([]execOutcome, 0, end-base)}
				// No stop check inside the batch: a claimed batch always
				// completes, keeping the collected stream gapless.
				for exec := base; exec < end; exec++ {
					ws.wm.Dispatches.Inc()
					o := randomExecution(p, opt, plan, ws, exec)
					ws.wm.BusyNanos.Add(int64(o.elapsed))
					b.outs = append(b.outs, o)
				}
				outc <- b
			}
		}(i)
	}
	go func() {
		wg.Wait()
		close(outc)
	}()
	// Ordered collector: buffer out-of-order batches, emit in base
	// order, releasing one token per emitted batch. Any pending base is
	// held by a worker that owns a token, so the collector can never
	// wait on a worker that is blocked acquiring one; and since claimed
	// bases are contiguous and always delivered, draining outc to close
	// leaves no gap below the final cursor.
	pending := make(map[int][]execOutcome)
	nextBase := startExec
	cursor := startExec
	for b := range outc {
		pending[b.base] = b.outs
		for {
			outs, ok := pending[nextBase]
			if !ok {
				break
			}
			delete(pending, nextBase)
			for _, o := range outs {
				res.collect(o, seen, opt)
			}
			cursor = nextBase + len(outs)
			nextBase += batch
			<-tokens
		}
	}
	return cursor
}

// --- model checking: work-stealing DFS ---

// phaseSnap is one crash-boundary world snapshot on a work unit's
// current DFS path. It is taken immediately after the crash at `phase`,
// with `pos` controller decisions consumed; restoring it and rerunning
// phases phase+1.. replays the execution's suffix without re-executing
// the prefix. A snapshot stays valid for as long as decisions [0, pos)
// are unchanged — i.e. while every backtrack changes a decision at
// index >= pos (lazy consumption in runPhasesMC makes trail order equal
// decision-use order, which is what makes this check sufficient).
type phaseSnap struct {
	ws    *pmem.WorldSnapshot
	phase int
	pos   int
}

// pruneSnaps pops snapshots invalidated by a backtrack that changed the
// decision at index `changed` (and truncated everything after it).
func pruneSnaps(snaps []phaseSnap, changed int) []phaseSnap {
	for len(snaps) > 0 && snaps[len(snaps)-1].pos > changed {
		snaps[len(snaps)-1] = phaseSnap{} // release the snapshot
		snaps = snaps[:len(snaps)-1]
	}
	return snaps
}

// mcExec is one completed execution inside a work unit, in sub-DFS
// order.
type mcExec struct {
	aborted    bool
	violations []*core.Violation
	// execErr marks a quarantined execution; its canonical index is
	// assigned at assembly time.
	execErr *ExecError
	// ops and the retirement counts mirror execOutcome's world stats;
	// they ride to the assembly walk (and, via UnitExec, across the
	// process boundary) so Result sums are the same whichever worker or
	// process ran the unit.
	ops           int64
	retirements   int64
	retiredStores int64
	retiredEvents int64
	pinnedRoots   int64
	sweepNanos    int64
}

// capRec records a domain cap placed on a unit's live trail when a
// child was carved off it: the decision at trail index idx kept the
// values below the carve point and the child took the rest, so the
// unit's in-memory domain was clamped. dom is the decision's *original*
// domain (possibly < 0 for a still-open crash decision) — a checkpoint
// cut at this unit restores it, so an unbounded resume backtrack
// re-derives every donated (and therefore canonically-after-the-cut)
// range. Records are dropped as soon as a backtrack pops past their
// index (passCuts): a later execution may re-create a decision at the
// same index with a fresh domain.
type capRec struct {
	idx, dom int
}

// mcChild is one unit carved off this unit's trail. splitAt is the
// parent's execution count at the moment the parent backtracked past
// the carve index (-1 while pending): every parent execution before it
// is canonically before the child's whole range, every one after is
// canonically after, so the assembly walk inserts the child's stream at
// exactly that position.
type mcChild struct {
	unit    *mcUnit
	cut     int // trail index the child was carved at
	splitAt int // parent exec count when passed; -1 while pending
	passed  bool
}

// mcUnit is one work unit of the model-check DFS: a bounded sub-DFS
// over the decision tree, rooted at trail index `root` (backtracking
// never pops past it). The subtree's root unit has root covering the
// primed phase-0 decision; stolen units root at their carve index.
type mcUnit struct {
	sub    *mcSubtree
	subOrd int // subtree ordinal (= phase-0 crash target)
	root   int // lowest trail index this unit may backtrack to
	// trail is the unit's starting decision trail (the worker's live
	// controller adopts it while the unit runs).
	trail []decision
	// path is the starting trail's value vector — the canonical-order
	// sort key for queue and assembly ordering.
	path []int
	// caps are the domain caps currently clamping the live trail (one
	// per unpassed carved child plus the records inherited from
	// ancestors for indices at or below root). See capRec.
	caps []capRec
	// baseOff is a lower bound on the unit's first execution's
	// subtree-relative canonical index (the parent's collected count at
	// carve time; the parent may still produce more path-earlier
	// executions). The allowance check uses it: an underestimate only
	// ever lets a unit overshoot the budget (trimmed at assembly),
	// never stop short of the canonical first-cap prefix.
	baseOff int
	// stolen marks a carved (donated) unit; classify marks the unit
	// that must run the subtree's first execution (cache probe, next-
	// subtree spawn).
	stolen   bool
	classify bool
	seq      int // enqueue sequence number (queue-order tie break)

	// --- owner-worker state (read by assembly/checkpoint after the
	// scheduler quiesces) ---

	execs    []mcExec
	children []*mcChild
	// popped: a worker dequeued the unit (its trail may have advanced);
	// started: it ran at least one execution; done: its sub-DFS ran to
	// exhaustion; stoppedAt/trailSnap: it observed a stop at its loop
	// top and snapshotted its trail — the checkpoint resume point.
	popped    bool
	started   bool
	done      bool
	stoppedAt bool
	trailSnap []decision
	// snapRestores/work: per-unit diagnostics, summed into the Result
	// by the assembly walk.
	snapRestores int
	work         time.Duration
}

// mcSubtree is the shared record of one crash-target subtree: the
// classification outcome of its first execution plus the running
// execution total the budget allowance consults. All classification
// fields are written only by the subtree's classify unit's worker and
// read after the scheduler quiesces.
type mcSubtree struct {
	rootUnit *mcUnit
	// nexecs counts executions recorded by all of the subtree's units —
	// the monotone lower bound later subtrees' allowance subtracts.
	nexecs atomic.Int64
	// pruned: the subtree's crash-0 persistent image matched an earlier
	// subtree's, so its whole enumeration was skipped (state cache).
	pruned bool
	// keyed/key: the first execution registered this state-cache key
	// (a miss); replayed into checkpoints.
	keyed bool
	key   cacheKey
	// injectionFired: the first execution's phase-0 crash injection
	// fired, i.e. subtree ordinal+1 exists and was spawned. Restored
	// from the checkpoint on resume so a re-checkpoint still spawns it.
	injectionFired bool
	// started: execution 0 ran (classifying the subtree), in this run
	// or — restored on resume — before the cut. A started subtree's
	// checkpoint must carry its trail; an unstarted one restarts fresh.
	started bool
}

// mcWorkerState is one scheduler worker's reusable machinery: the
// controller its worlds' choosers close over (unit trails are swapped
// in and out of it) and the world reused across executions *and* units
// (World.Reset restores the initial state exactly, bar the checker's
// reported set, which runUnit empties; the reuse tests assert it).
type mcWorkerState struct {
	w      *pmem.World
	ctl    *controller
	phases []func(*pmem.World)
}

// mcEngine coordinates the parallel model-checking run: a fixed pool of
// workers draining a canonically ordered queue of work units, with
// busy units donating trail cuts to hungry workers.
type mcEngine struct {
	p      Program
	opt    *Options
	st     *stopper
	numPre int

	wg sync.WaitGroup
	// reg is the campaign metrics registry (nil when observability is
	// off); it gates the engine's optional timestamps.
	reg *obs.Registry

	mu      sync.Mutex
	cond    *sync.Cond
	pending []*mcUnit // insertion-sorted by unitBefore
	active  int       // workers currently running a unit
	waiting int       // workers blocked on cond
	seq     int       // enqueue sequence counter
	steals  int       // donated units (Result.Steals)
	subs    []*mcSubtree

	// hungry mirrors (waiting > 0 && pending empty) so busy units can
	// poll the donation trigger without taking the lock.
	hungry atomic.Bool

	// solo runs the engine as a single exported work unit (RunUnit,
	// unit.go): exactly one subtree's root unit, no successor spawning
	// (the dispatch supervisor spawns successors as their own units), and
	// the budget bounds this unit's recorded executions directly instead
	// of the cross-subtree allowance sum.
	solo       bool
	soloBudget int // 0: unbounded
	// onExec and onClassify are the solo unit's progress hooks (worker
	// heartbeats, early classification reporting). Nil in pool runs.
	onExec     func(n int)
	onClassify func(UnitClassification)

	cache *stateCache // nil when disabled

	// --- resume state (from Options.Resume) ---
	haveResume      bool
	baseExecs       int // canonical executions collected before the cut
	startSubtree    int // the cut subtree's ordinal
	resumeStarted   bool
	resumeTrail     []decision
	resumeSpawnNext bool
	// primedKeys / baseHits / baseMisses replay the pre-cut cache so
	// re-checkpointing a resumed run stays cumulative.
	primedKeys           []CacheEntry
	baseHits, baseMisses int
}

func newMCEngine(p Program, opt *Options, st *stopper) *mcEngine {
	e := &mcEngine{
		p:      p,
		opt:    opt,
		st:     st,
		numPre: len(p.Phases()) - 1,
		reg:    opt.Obs.Reg(),
	}
	e.cond = sync.NewCond(&e.mu)
	if !opt.NoStateCache && e.numPre > 0 {
		e.cache = newStateCache(obs.CacheInstruments(e.reg))
	}
	if ck := opt.Resume; ck != nil && ck.MC != nil {
		e.haveResume = true
		e.baseExecs = ck.Collected
		e.startSubtree = ck.MC.Subtree
		e.resumeStarted = ck.MC.Started
		e.resumeTrail = trailFromCheckpoint(ck.MC.Trail)
		e.resumeSpawnNext = ck.MC.SpawnNext
		e.primedKeys = ck.MC.CacheKeys
		e.baseHits, e.baseMisses = ck.MC.CacheHits, ck.MC.CacheMisses
		if e.cache != nil {
			for _, ce := range ck.MC.CacheKeys {
				e.cache.prime(cacheKey{image: ce.Image, heap: ce.Heap})
			}
			e.cache.seed(ck.MC.CacheHits, ck.MC.CacheMisses)
		}
	}
	return e
}

// subtree returns (allocating if needed) the record for ordinal v.
func (e *mcEngine) subtree(v int) *mcSubtree {
	e.mu.Lock()
	defer e.mu.Unlock()
	for len(e.subs) <= v {
		e.subs = append(e.subs, &mcSubtree{})
	}
	return e.subs[v]
}

// pathLess is canonical DFS path order: lexicographic on decision
// values, a proper prefix before its extensions.
func pathLess(a, b []int) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// unitBefore is the queue's dispatch order: canonical stream order
// (subtree ordinal, then starting-path order), so the earliest pending
// work — the work a stop would cut at — is always dispatched first.
func unitBefore(a, b *mcUnit) bool {
	if a.subOrd != b.subOrd {
		return a.subOrd < b.subOrd
	}
	if pathLess(a.path, b.path) {
		return true
	}
	if pathLess(b.path, a.path) {
		return false
	}
	return a.seq < b.seq
}

// refreshHungry recomputes the lock-free donation trigger; callers hold
// e.mu.
func (e *mcEngine) refreshHungry() {
	e.hungry.Store(e.waiting > 0 && len(e.pending) == 0)
}

// enqueue inserts a unit into the pending queue in canonical order and
// wakes a waiting worker.
func (e *mcEngine) enqueue(u *mcUnit) {
	e.opt.em.FrontierDepth.Add(1)
	e.mu.Lock()
	u.seq = e.seq
	e.seq++
	i := sort.Search(len(e.pending), func(i int) bool { return unitBefore(u, e.pending[i]) })
	e.pending = append(e.pending, nil)
	copy(e.pending[i+1:], e.pending[i:])
	e.pending[i] = u
	if u.stolen {
		e.steals++
	}
	e.refreshHungry()
	e.mu.Unlock()
	e.cond.Broadcast()
}

// spawnRoot enqueues subtree v's root unit. It is called either for the
// start subtree or from subtree v-1's first execution after it
// registered its crash-0 image, which keeps the state-cache
// registration order — and so the hit/miss pattern — deterministic.
func (e *mcEngine) spawnRoot(v int) {
	if e.solo {
		// The classification (sub.injectionFired) is still recorded; the
		// dispatch supervisor — not this engine — owns the successor.
		return
	}
	sub := e.subtree(v)
	u := &mcUnit{sub: sub, subOrd: v, classify: true}
	if e.numPre > 0 {
		u.trail = []decision{{val: v, domain: v + 1}}
	}
	u.path = trailValues(u.trail)
	sub.rootUnit = u
	e.enqueue(u)
}

// start seeds the queue with the first subtree's root unit, restoring
// the resume state when continuing a checkpointed run.
func (e *mcEngine) start() {
	v := e.startSubtree
	sub := e.subtree(v)
	u := &mcUnit{sub: sub, subOrd: v, classify: true}
	if e.numPre > 0 {
		u.trail = []decision{{val: v, domain: v + 1}}
	}
	if e.haveResume && e.resumeStarted {
		// Resume the cut subtree mid-DFS: adopt its snapshotted trail and
		// skip the first-execution classification — its cache
		// registration happened before the cut (replayed from the
		// checkpoint) and its successor, if any, is spawned here. The
		// classification outcome itself (started, injectionFired) is
		// restored too, so a second cut re-checkpoints it faithfully.
		u.classify = false
		u.trail = append([]decision(nil), e.resumeTrail...)
		sub.started = true
		sub.injectionFired = e.resumeSpawnNext
		if e.resumeSpawnNext {
			e.spawnRoot(v + 1)
		}
	}
	u.path = trailValues(u.trail)
	sub.rootUnit = u
	e.enqueue(u)
}

// allowance reports whether unit u may run another execution under the
// global cap. It compares the unit's lower-bound canonical offset
// against the cap minus the executions recorded by all earlier
// subtrees (plus, on resume, the checkpoint's already-collected
// count): since those counts only grow toward their final values and
// baseOff underestimates the unit's true offset, the bound is
// conservative — a unit can overshoot (trimmed at assembly) but never
// stops before producing every execution the canonical first-cap
// prefix needs.
func (e *mcEngine) allowance(u *mcUnit) bool {
	if e.solo {
		// Solo units get an explicit per-unit budget from the dispatch
		// supervisor (a conservative overestimate of the canonical
		// remainder; the supervisor truncates at assembly exactly like
		// this engine's own walk).
		return e.soloBudget <= 0 || len(u.execs) < e.soloBudget
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	sum := e.baseExecs
	for i := 0; i < u.subOrd && i < len(e.subs); i++ {
		sum += int(e.subs[i].nexecs.Load())
	}
	return u.baseOff+len(u.execs) < e.opt.Executions-sum
}

// donate carves the shallowest still-unexplored cut off ctl's live
// trail into a new stolen unit and enqueues it. A trail index is
// donatable when it has unexplored sibling values: a closed decision
// with val+1 < domain, or a still-open crash decision that already
// fired (it has deeper trail entries) — an open decision at the trail's
// *last* index is excluded, because its current value has not run yet:
// if that value turns out past the phase's op count, the donated val+1
// would re-enumerate the same "crash after the last operation" run.
//
// The child takes values val+1.. at the cut (its trail keeps the
// original domain there); the donor's live domain is clamped to val+1
// and a capRec preserves the original for checkpoints. Inherited caps
// at or below the cut ride along to the child, so a cut at *it* also
// restores every ancestor domain.
func (e *mcEngine) donate(u *mcUnit, ctl *controller) {
	trail := ctl.trail
	for i := u.root; i < len(trail); i++ {
		d := trail[i]
		if d.val+1 < d.domain || (d.domain < 0 && i < len(trail)-1) {
			child := &mcUnit{
				sub:     u.sub,
				subOrd:  u.subOrd,
				root:    i,
				stolen:  true,
				baseOff: u.baseOff + len(u.execs),
			}
			child.trail = append([]decision(nil), trail[:i+1]...)
			child.trail[i].val = d.val + 1
			child.path = trailValues(child.trail)
			for _, c := range u.caps {
				if c.idx <= i {
					child.caps = append(child.caps, c)
				}
			}
			u.caps = append(u.caps, capRec{idx: i, dom: d.domain})
			ctl.trail[i].domain = d.val + 1
			u.children = append(u.children, &mcChild{unit: child, cut: i, splitAt: -1})
			e.opt.em.Steals.Inc()
			e.opt.fr.Record("explore", "steal", -1,
				fmt.Sprintf("subtree %d carved at trail %d", u.subOrd, i))
			e.enqueue(child)
			return
		}
	}
}

// passCuts records that a backtrack changed trail index pChanged: every
// carved child whose cut index was popped is now "passed" — all of the
// donor's future executions are canonically after the child's range —
// and its splitAt freezes at the donor's current execution count. The
// matching caps are dropped: the live trail no longer holds those
// decisions, and a later execution may re-create them with fresh
// domains a stale record would corrupt.
func (u *mcUnit) passCuts(pChanged int) {
	for _, c := range u.children {
		if !c.passed && c.cut > pChanged {
			c.passed = true
			c.splitAt = len(u.execs)
		}
	}
	kept := u.caps[:0]
	for _, c := range u.caps {
		if c.idx <= pChanged {
			kept = append(kept, c)
		}
	}
	u.caps = kept
}

// markDone finishes an exhausted unit: any still-unpassed children
// (carved at indices the final backtrack never popped past, because the
// search ended) sit canonically after everything the unit ran.
func (u *mcUnit) markDone() {
	for _, c := range u.children {
		if !c.passed {
			c.passed = true
			c.splitAt = len(u.execs)
		}
	}
	u.done = true
}

// backtrackFrom advances the trail to the next unexplored branch — the
// deepest decision with an untried value — without ever popping the
// decision at index root, the unit's floor. It returns false when the
// unit's range is exhausted, leaving the trail in place.
func (c *controller) backtrackFrom(root int) bool {
	for len(c.trail) > root {
		last := &c.trail[len(c.trail)-1]
		if last.domain < 0 || last.val+1 < last.domain {
			last.val++
			c.pos = 0
			return true
		}
		if len(c.trail)-1 == root {
			return false
		}
		c.trail = c.trail[:len(c.trail)-1]
	}
	return false
}

// worker is one scheduler goroutine: pop the canonically earliest
// pending unit, run its bounded sub-DFS, repeat until the queue drains
// with no unit in flight (or a stop parks everything). The stop check
// happens *before* popping, so a stopped run leaves parked units
// parked — the assembly cut then falls on the earliest of them with the
// unit's starting trail intact for the checkpoint.
func (e *mcEngine) worker(id int) {
	defer e.wg.Done()
	tid := id + 1 // 1-based worker timeline, matching random mode
	wm := obs.WorkerInstruments(e.reg, tid)
	e.opt.tr.NameThread(tid, "worker-"+strconv.Itoa(tid))
	metered := wm.IdleNanos != nil
	ws := &mcWorkerState{ctl: &controller{}, phases: e.p.Phases()}
	for {
		var idleStart time.Time
		if metered {
			idleStart = time.Now()
		}
		e.mu.Lock()
		waited := false
		for !e.st.stopped() && len(e.pending) == 0 && e.active > 0 {
			e.waiting++
			e.refreshHungry()
			waited = true
			e.cond.Wait()
			e.waiting--
			e.refreshHungry()
		}
		if e.st.stopped() || len(e.pending) == 0 {
			// Stopped, or natural drain (queue empty, nothing in flight
			// that could refill it). A worker that went hungry and is
			// exiting while work still exists was starved by the stop.
			starved := waited && (len(e.pending) > 0 || e.active > 0)
			e.mu.Unlock()
			if metered {
				idle := int64(time.Since(idleStart))
				wm.IdleNanos.Add(idle)
				e.opt.em.WorkerIdle.Add(idle)
			}
			if starved {
				e.opt.em.StealFailures.Inc()
			}
			return
		}
		u := e.pending[0]
		e.pending = e.pending[1:]
		e.active++
		e.refreshHungry()
		e.mu.Unlock()
		if metered {
			idle := int64(time.Since(idleStart))
			wm.IdleNanos.Add(idle)
			e.opt.em.WorkerIdle.Add(idle)
		}
		wm.Dispatches.Inc()
		start := time.Now()
		e.runUnit(u, ws, tid)
		u.work += time.Since(start)
		wm.BusyNanos.Add(int64(u.work))
		e.opt.em.FrontierDepth.Add(-1)
		e.mu.Lock()
		e.active--
		e.refreshHungry()
		e.mu.Unlock()
		e.cond.Broadcast()
	}
}

// runUnit runs unit u's bounded sub-DFS: every execution of the
// decision tree under u.trail whose backtracks stay at or above
// u.root, enumerated exactly as one depth-first walk would (modulo
// ranges donated away, which the assembly walk splices back in order).
//
// Prefix snapshots (useSnaps) ride on the sub-DFS, unit-local so any
// worker count — and any checkpoint cut — produces the same canonical
// stream: after every crash the world is snapshotted; after a backtrack
// the deepest snapshot whose decision prefix is still unchanged is
// restored and only the suffix phases re-run. Bit-identical results,
// integer-factor fewer phase executions. A resume re-enters a later
// phase without re-running earlier ones, which the world-pure Program
// contract makes sound.
func (e *mcEngine) runUnit(u *mcUnit, ws *mcWorkerState, tid int) {
	sub := u.sub
	ctl := ws.ctl
	ctl.trail = u.trail
	ctl.pos = 0
	u.popped = true
	if ws.w != nil {
		ws.w.Checker.ForgetReported() // the unit is the dedup scope (dedupExec)
	}
	first := u.classify
	useSnaps := !e.opt.DisableSnapshots && !e.opt.FreshWorlds
	// Donation gating: armed chaos injection disables demand-driven
	// donation (unit-local fault ordinals must not depend on scheduler
	// timing) unless ForceSteals makes the unit tree trail-driven.
	canDonate := !e.opt.DisableStealing && (e.opt.ForceSteals || e.opt.InjectFault == nil)
	// snaps is unit-local: a unit's first execution always replays from
	// the program start (or a fresh world), never from another unit's
	// snapshot.
	var snaps []phaseSnap
	// onCrash runs after every crash of every execution: first-execution
	// subtree classification, then the snapshot.
	onCrash := func(phase int, fired bool) bool {
		if first && phase == 0 {
			// The subtree's first execution classifies the subtree at
			// its first crash: record whether the injection fired (so
			// the next subtree exists), then consult the state cache —
			// every execution of the subtree shares the same phase-0
			// prefix and so the same crash-0 image.
			keep := true
			if e.cache != nil {
				ps := e.opt.tr.Now()
				k := stateKey(ws.w)
				hit := e.cache.lookupOrRegister(k)
				e.opt.tr.CompleteSince(tid, "statecache", "cache-probe", ps, -1)
				if hit {
					sub.pruned = true
					keep = false
				} else {
					sub.keyed = true
					sub.key = k
				}
			}
			if fired && e.numPre > 0 {
				sub.injectionFired = true
				e.spawnRoot(u.subOrd + 1)
			}
			if e.onClassify != nil {
				e.onClassify(UnitClassification{
					Pruned:         sub.pruned,
					Keyed:          sub.keyed,
					Key:            CacheEntry{Image: sub.key.image, Heap: sub.key.heap},
					InjectionFired: sub.injectionFired,
				})
			}
			if !keep {
				return false
			}
		}
		if useSnaps {
			snaps = append(snaps, phaseSnap{ws: ws.w.Snapshot(), phase: phase, pos: ctl.pos})
			e.opt.em.SnapshotsTaken.Inc()
		}
		return true
	}
	for {
		if e.st.stopped() {
			// Snapshot the resume point: the trail sits at the next
			// unexplored execution (backtrack already advanced it).
			u.stoppedAt = true
			u.trailSnap = append([]decision(nil), ctl.trail...)
			break
		}
		// Donation before the allowance check: the carve decision must
		// depend only on the trail (and, in demand mode, on worker
		// hunger) — never on the cross-subtree execution totals the
		// allowance reads, which near a binding budget vary with
		// scheduling.
		if canDonate && (e.opt.ForceSteals || e.hungry.Load()) {
			e.donate(u, ctl)
		}
		if !e.allowance(u) {
			break
		}
		e.opt.em.Started.Inc()
		var execStart time.Time
		if e.reg != nil || e.opt.tr != nil {
			execStart = time.Now()
		}
		startPhase := 0
		switch {
		case ws.w == nil || e.opt.FreshWorlds:
			ws.w = mcWorld(e.opt, ctl)
			snaps = pruneSnaps(snaps, -1)
			ctl.pos = 0
		case len(snaps) > 0:
			// Resume from the deepest crash snapshot that survived the
			// last backtrack: the world state after phase `top.phase`'s
			// crash, with `top.pos` decisions consumed, is identical to
			// what a full replay would recompute.
			top := snaps[len(snaps)-1]
			ws.w.Restore(top.ws)
			ctl.pos = top.pos
			startPhase = top.phase + 1
			u.snapRestores++
			e.opt.em.SnapshotsRestored.Inc()
		default:
			ws.w.Reset(0)
			if e.opt.DisableChecker {
				ws.w.Checker.SetEnabled(false)
			}
			ctl.pos = 0
		}
		installProbe(ws.w, e.opt, len(u.execs))
		oc := onCrash
		if !first && !useSnaps {
			oc = nil // no per-crash work left; keep the hot path bare
		}
		aborted, pruned, execErr := runPhasesMC(ws.phases, ws.w, ctl, startPhase, oc, e.opt.tr, tid)
		switch {
		case pruned:
			e.opt.em.Pruned.Inc()
		case execErr != nil:
			e.opt.em.Quarantined.Inc()
			e.opt.fr.Record("explore", "quarantine", -1, execErr.Kind)
		case aborted:
			e.opt.em.Aborted.Inc()
		default:
			e.opt.em.Completed.Inc()
		}
		if !execStart.IsZero() {
			d := time.Since(execStart)
			e.opt.em.ExecNanos.Observe(int64(d))
			e.opt.tr.Complete(tid, "explore", "execution", execStart, d, -1)
		}
		if first {
			sub.started = true
		}
		first = false
		u.started = true
		if pruned {
			// The whole subtree is a duplicate of one already explored;
			// it contributes no executions.
			u.markDone()
			break
		}
		ex := mcExec{aborted: aborted, execErr: execErr}
		if execErr != nil {
			// The panic left the world in an undefined state: discard
			// it (next iteration builds fresh) and drop its violations,
			// along with every snapshot taken in it.
			execErr.Program = e.p.Name()
			execErr.Mode = ModelCheck
			execErr.Prefix = trailValues(ctl.trail)
			ws.w = nil
			snaps = pruneSnaps(snaps, -1)
		} else {
			ex.violations = ws.w.Checker.Violations()
			ex.ops = int64(ws.w.Ops())
			rs := ws.w.M.Trace().Retired()
			ex.retirements = int64(rs.Retirements)
			ex.retiredStores = int64(rs.RetiredStores)
			ex.retiredEvents = int64(rs.RetiredEvents)
			ex.pinnedRoots = int64(rs.MaxPinnedRoots)
			ex.sweepNanos = ws.w.SweepNanos()
		}
		u.execs = append(u.execs, ex)
		sub.nexecs.Add(1)
		if e.onExec != nil {
			e.onExec(len(u.execs))
		}
		if !ctl.backtrackFrom(u.root) {
			u.markDone()
			break
		}
		// The backtrack changed the trail's last decision; everything
		// before it replays the previous execution's prefix unchanged.
		changed := len(ctl.trail) - 1
		u.passCuts(changed)
		snaps = pruneSnaps(snaps, changed)
	}
	// Hand the (possibly reallocated) live trail back to the unit; the
	// checkpoint path reads trailSnap for units stopped mid-DFS and the
	// starting trail for parked ones, but keeping the field current
	// costs nothing and aids debugging.
	u.trail = ctl.trail
	// Snapshots never outlive the unit (the world is reused by the next
	// one).
	pruneSnaps(snaps, -1)
}

// asm is the assembly walk's accumulator: it splices every unit's
// execution list back into canonical depth-first order, truncates at
// the Executions cap, and finds the cut — the first unit in canonical
// order with uncollected work.
type asm struct {
	e         *mcEngine
	res       *Result
	seen      map[string]bool
	idx       int     // canonical stream cursor
	cut       *mcUnit // first unit with uncollected work
	truncated bool    // the Executions cap bound before the frontier drained
	frontier  int     // units with uncollected work
}

// walk assembles unit u: its own executions interleaved with its passed
// children's streams at their split points — which is exactly canonical
// order (every parent execution before splitAt precedes the child's
// whole range, every one after follows it; children sort by splitAt,
// then path). Past the cut nothing is collected — a resume re-derives
// it — but the walk continues for the frontier count and the
// diagnostic sums. Unpassed children are always canonically after
// their donor's remaining work, so they are walked last, after the
// donor's own cut (if any) is recorded.
func (a *asm) walk(u *mcUnit) {
	a.res.WorkerTime += u.work
	a.res.SnapshotRestores += u.snapRestores
	var passed []*mcChild
	for _, c := range u.children {
		if c.passed {
			passed = append(passed, c)
		}
	}
	sort.SliceStable(passed, func(i, j int) bool {
		if passed[i].splitAt != passed[j].splitAt {
			return passed[i].splitAt < passed[j].splitAt
		}
		return pathLess(passed[i].unit.path, passed[j].unit.path)
	})
	collected := true
	pi := 0
	for ei := 0; ei <= len(u.execs); ei++ {
		for pi < len(passed) && passed[pi].splitAt == ei {
			a.walk(passed[pi].unit)
			pi++
		}
		if ei == len(u.execs) {
			break
		}
		if a.cut == nil && a.idx >= a.e.opt.Executions {
			a.truncated = true
			a.cut = u
		}
		if a.cut != nil {
			collected = false
			continue
		}
		ex := u.execs[ei]
		if ex.execErr != nil && ex.execErr.Exec < 0 {
			ex.execErr.Exec = a.idx
		}
		a.res.collect(execOutcome{
			index: a.idx, aborted: ex.aborted, violations: ex.violations, execErr: ex.execErr,
			ops: ex.ops, retirements: ex.retirements,
			retiredStores: ex.retiredStores, retiredEvents: ex.retiredEvents,
			pinnedRoots: ex.pinnedRoots, sweepNanos: ex.sweepNanos,
		}, a.seen, a.e.opt)
		a.idx++
	}
	if !u.done && a.cut == nil {
		a.cut = u
	}
	if !u.done || !collected {
		a.frontier++
	}
	for _, c := range u.children {
		if !c.passed {
			a.walk(c.unit)
		}
	}
}

// run executes the engine and assembles the canonical result.
func (e *mcEngine) run() *Result {
	res := &Result{Program: e.p.Name(), Mode: ModelCheck, Workers: e.opt.Workers}
	start := time.Now()
	seen := make(map[string]bool)
	if e.haveResume {
		primeFromCheckpoint(res, seen, e.opt.Resume)
	}
	e.start()
	for i := 0; i < e.opt.Workers; i++ {
		e.wg.Add(1)
		go e.worker(i)
	}
	e.wg.Wait()
	// Units a stop left parked never ran; retire their frontier-gauge
	// contribution here so the gauge always returns to zero.
	for range e.pending {
		e.opt.em.FrontierDepth.Add(-1)
	}

	// Assembly: walk each subtree's unit tree in subtree order,
	// splicing unit streams into canonical depth-first visit order and
	// truncating at the cap. Collector callbacks (Progress) therefore
	// see strictly increasing indices no matter how units were
	// scheduled or stolen. Collection stops at the cut — the first unit
	// with uncollected work; everything canonically after it is dropped
	// and re-derived on resume.
	a := &asm{e: e, res: res, seen: seen, idx: e.baseExecs}
	for si := e.startSubtree; si < len(e.subs); si++ {
		if u := e.subs[si].rootUnit; u != nil {
			a.walk(u)
		}
	}
	e.mu.Lock()
	res.Steals = e.steals
	e.mu.Unlock()
	if e.cache != nil {
		res.CacheHits, res.CacheMisses = e.cache.stats()
	}
	if a.cut != nil {
		res.Partial = true
		if e.st.stopped() {
			res.noteStop(e.st.why())
		} else {
			res.noteStop("exec-budget")
		}
		res.FrontierRemaining = a.frontier
		// A checkpoint needs the cut unit's canonical position to line
		// up with a trail: either the unit observed the stop at its
		// loop top (trailSnap) or it never ran (its starting trail is
		// the cut). Budget truncation — including a unit that bowed out
		// on its allowance — yields no checkpoint; re-run with a larger
		// budget instead.
		if e.st.stopped() && !a.truncated && (a.cut.stoppedAt || !a.cut.popped) {
			res.Checkpoint = e.checkpoint(res, seen, a.cut, a.idx)
		}
	} else if e.st.stopped() {
		// Stop observed in the same tick the last unit finished: the
		// run is complete but the reason is still reported (noteStop).
		res.noteStop(e.st.why())
	}
	res.Elapsed = time.Since(start)
	return res
}

// checkpoint builds the resume state for a stop cut at unit cutU. The
// persisted trail is the cut unit's with every live domain cap undone
// (capRec.dom): the donated ranges those caps carved off are all
// canonically after the cut, so restoring the original domains makes
// the resumed run's unbounded backtrack re-derive exactly the dropped
// remainder.
func (e *mcEngine) checkpoint(res *Result, seen map[string]bool, cutU *mcUnit, collected int) *Checkpoint {
	mc := &MCCheckpoint{
		Subtree: cutU.subOrd,
		// A stolen unit always carries a trail (its carved prefix); a
		// subtree root only once its first execution ran.
		Started:   cutU.started || !cutU.classify,
		SpawnNext: cutU.sub.injectionFired,
	}
	if mc.Started {
		src := cutU.trail
		if cutU.stoppedAt {
			src = cutU.trailSnap
		}
		t := append([]decision(nil), src...)
		for _, c := range cutU.caps {
			if c.idx < len(t) {
				t[c.idx].domain = c.dom
			}
		}
		mc.Trail = trailToCheckpoint(t)
	}
	// Cache registrations of subtrees up to the cut, in registration
	// (spawn-chain = ordinal) order: the pre-cut primed keys first, then
	// this run's. Hit/miss counters likewise cover only subtrees up to
	// the cut — later subtrees' lookups are re-derived on resume.
	mc.CacheKeys = append(mc.CacheKeys, e.primedKeys...)
	mc.CacheHits, mc.CacheMisses = e.baseHits, e.baseMisses
	for si := e.startSubtree; si <= cutU.subOrd && si < len(e.subs); si++ {
		sub := e.subs[si]
		if sub.keyed {
			mc.CacheKeys = append(mc.CacheKeys, CacheEntry{Image: sub.key.image, Heap: sub.key.heap})
			mc.CacheMisses++
		}
		if sub.pruned {
			mc.CacheHits++
		}
	}
	return &Checkpoint{
		Version:       checkpointVersion,
		Program:       res.Program,
		Mode:          ModelCheck.String(),
		Seed:          e.opt.Seed,
		Model:         resolveModel(e.opt.Model.Name),
		Window:        e.opt.Model.Window,
		Collected:     collected,
		Aborted:       res.Aborted,
		Quarantined:   res.Quarantined,
		ViolationKeys: keysOf(seen),
		MC:            mc,
	}
}
