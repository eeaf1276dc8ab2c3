// Package explore is the execution-exploration harness that plays the
// role of the Jaaru model checker in the original system (§4, §6.1).
//
// It supports the paper's two strategies:
//
//   - Random mode: explores random executions with random crash points,
//     random thread interleavings, and random post-crash reads, steering
//     loads away from already-diagnosed violations so one execution can
//     expose several bugs.
//   - Model-checking mode: systematically inserts crashes before each
//     fence-like operation and after the last operation of every
//     non-final phase, and exhaustively explores every store each
//     post-crash load can read, via depth-first search over the
//     execution's decision points.
//
// Programs under test are sequences of phases separated by crashes; the
// final phase is the recovery/reader code and runs to completion.
package explore

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/pmem"
	"repro/internal/trace"
)

// Program is a persistent-memory test program: one or more crash-
// delimited phases. The explorer injects a crash inside (or at the end
// of) every phase except the last, then runs the next phase on the
// surviving persistent image. Phase functions must be deterministic
// given the world (all nondeterminism flows through the world's random
// source and read policy).
type Program interface {
	// Name identifies the program in reports.
	Name() string
	// Phases returns the phase functions, pre-crash first.
	Phases() []func(*pmem.World)
}

// FuncProgram adapts plain functions to the Program interface.
type FuncProgram struct {
	ProgName  string
	PhaseFns  []func(*pmem.World)
	SetupNote string
}

// Name implements Program.
func (p *FuncProgram) Name() string { return p.ProgName }

// Phases implements Program.
func (p *FuncProgram) Phases() []func(*pmem.World) { return p.PhaseFns }

// InstancedProgram builds a fresh set of phase closures for every
// execution. Ports whose phase functions mutate receiver state (pointer
// mirrors filled in during the pre-crash phase) use it so concurrent
// executions never share that state: the harness calls Phases once per
// execution, and each call gets its own instance.
type InstancedProgram struct {
	ProgName string
	// New returns a freshly instantiated phase slice. It must be safe
	// to call from multiple goroutines and each returned slice must be
	// independent of every other.
	New func() []func(*pmem.World)
}

// Name implements Program.
func (p *InstancedProgram) Name() string { return p.ProgName }

// Phases implements Program.
func (p *InstancedProgram) Phases() []func(*pmem.World) { return p.New() }

// ReentrantPhases is an optional Program capability: a program reports
// true when its phase functions derive all cross-phase state from the
// World — no mutable receiver or captured state carried from one phase
// into the next — so the explorer may re-enter a later phase on a
// restored world snapshot without re-running the earlier ones.
//
// FuncProgram qualifies by construction: the parallel engine already
// calls the same closures concurrently from many workers, so they
// cannot carry mutable shared state. InstancedProgram exists precisely
// for ports that mutate per-execution receiver state (pointer mirrors
// filled in pre-crash) and reports false. Programs that do not
// implement the interface are conservatively treated as non-reentrant.
type ReentrantPhases interface {
	PhasesReentrant() bool
}

// PhasesReentrant implements ReentrantPhases: plain phase functions are
// shared across concurrent workers and so must already be world-pure.
func (p *FuncProgram) PhasesReentrant() bool { return true }

// PhasesReentrant implements ReentrantPhases: instanced ports mutate
// per-execution receiver state, so a later phase cannot be re-entered
// without re-running the phases that populated it.
func (p *InstancedProgram) PhasesReentrant() bool { return false }

// phasesReentrant resolves the capability with the conservative default.
func phasesReentrant(p Program) bool {
	r, ok := p.(ReentrantPhases)
	return ok && r.PhasesReentrant()
}

// Mode selects the exploration strategy.
type Mode int

const (
	// Random explores randomized executions (§6.1 random search mode).
	Random Mode = iota
	// ModelCheck exhaustively enumerates crash points and post-crash
	// reads (§6.1 model checking mode).
	ModelCheck
)

// String names the mode.
func (m Mode) String() string {
	if m == ModelCheck {
		return "model-check"
	}
	return "random"
}

// Options configures an exploration run.
type Options struct {
	Mode Mode
	// Executions bounds the number of executions: the exact count in
	// Random mode, a safety cap in ModelCheck mode. 0 means 1000.
	Executions int
	// Seed seeds Random mode; ModelCheck is deterministic.
	Seed int64
	// Workers is the number of parallel exploration workers: 0 uses
	// runtime.NumCPU(), 1 runs the exact serial algorithm. Any worker
	// count produces bit-identical results: in Random mode each
	// execution's seed is derived from its index alone (never a shared
	// RNG), and in ModelCheck mode per-subtree results are assembled in
	// canonical depth-first order, so scheduling cannot leak into
	// Violations, ExecutionsToAllBugs, or Aborted.
	Workers int
	// NoStateCache disables the post-crash state cache (ModelCheck
	// mode): crash points whose surviving persistent image is identical
	// to one already explored are normally pruned, since they present
	// identical read candidates to every post-crash load. See
	// statecache.go for the key definition and the soundness argument.
	NoStateCache bool
	// DisableSnapshots makes the model-check engine replay every
	// execution from the program start instead of restoring a world
	// snapshot taken at its deepest still-valid crash boundary.
	// Results are bit-identical either way (the snapshot property test
	// asserts it); the option exists for A/B timing and for debugging
	// suspected restore bugs. Snapshots only apply to programs whose
	// phases are reentrant (see ReentrantPhases) and never to
	// FreshWorlds runs.
	DisableSnapshots bool
	// DisableStealing turns off work stealing in the parallel model-check
	// engine: when a worker's queue drains it normally carves the
	// shallowest unexplored decision-trail cut off the busiest peer and
	// runs it as an independent work unit. Results are bit-identical
	// either way (the assembly walk reorders unit streams into canonical
	// DFS order); the escape hatch exists for A/B timing and for
	// debugging suspected scheduler bugs. See DESIGN.md, "Work-stealing
	// scheduler".
	DisableStealing bool
	// ForceSteals is a test hook: the model-check engine donates a work
	// unit at every sub-DFS loop top where the trail has a donatable cut,
	// whether or not any worker is hungry. Donation decisions then depend
	// only on the decision trail — never on scheduler timing — so the
	// resulting work-unit tree is identical at any worker count, which is
	// what lets the determinism and chaos suites drive steal-heavy
	// schedules reproducibly. Production runs leave it false.
	ForceSteals bool
	// Model selects and configures the persistency-model backend
	// (persist.Config zero value: px86, immediate commit). It is the
	// single model-config path — pmem.Config receives exactly this
	// value, so the two layers cannot disagree. The one exception is
	// random mode's crash-free pilot, which sizes the crash-point
	// ranges: it always commits immediately, so setting DelayedCommit
	// (or StoreBuffers) does not change the ranges.
	Model persist.Config
	// OpLimit bounds operations per execution (0: pmem default).
	OpLimit int
	// DisableChecker turns PSan off, leaving only the simulator — the
	// Jaaru baseline of Table 3.
	DisableChecker bool
	// NoSteering uses the plain random read policy instead of
	// violation-avoidance steering. Timing comparisons set it on both
	// sides so the measured difference is exactly the checker's
	// constraint updates, matching the paper's Table 3 methodology.
	NoSteering bool
	// StoreBuffers runs the machine in delayed-commit mode with random
	// store-buffer drains (random mode only), exposing TSO buffering —
	// stores that were issued but never reached the cache before the
	// crash.
	StoreBuffers bool
	// Progress, when non-nil, receives one call per completed execution
	// with its 1-based execution index. Even with Workers > 1 the calls
	// are serialized through the result collector: they never run
	// concurrently and the indices are strictly increasing (1, 2, …),
	// regardless of the order worker goroutines finish in.
	Progress func(exec int)
	// FreshWorlds builds a new World for every execution instead of
	// resetting and reusing a per-worker one. Results are bit-identical
	// either way (World.Reset restores the initial state exactly, and the
	// reuse property test asserts it); the option exists for that test
	// and for debugging suspected reuse bugs.
	FreshWorlds bool
	// AfterExecution, when non-nil, receives each execution's world
	// after its phases complete, letting post-hoc analyses (the baseline
	// checkers of §6.4) inspect the trace. Like Progress it is
	// serialized through the collector and called in execution-index
	// order. It is Random mode only: the model-check engine reuses and
	// snapshots its worlds, so none can escape, and Run panics if it is
	// set with Mode ModelCheck.
	AfterExecution func(*pmem.World)

	// --- failure containment ---

	// Context, when non-nil, cancels the run early: once it is done, no
	// new executions start, in-flight workers drain, and Run returns a
	// partial Result (Partial, StopReason, Checkpoint). Executions
	// already running are never interrupted mid-flight — the collected
	// stream stays a prefix of the uninterrupted run's.
	Context context.Context
	// Deadline bounds the run's wall-clock time (0: none) with the same
	// graceful-degradation semantics as Context cancellation.
	Deadline time.Duration
	// StepTimeout bounds one execution's wall-clock time (0: none). An
	// execution that exceeds it is aborted via the world's per-operation
	// watchdog and counted in Result.Aborted, exactly like an op-budget
	// abort. It keeps a single stuck schedule (a spin loop whose lock
	// holder crashed, a pathological interleaving) from starving the
	// campaign; because it is timing-dependent, a tripped timeout can
	// make results differ from an untimed run — leave it 0 when
	// bit-reproducibility matters more than liveness.
	StepTimeout time.Duration
	// InjectFault is the chaos-testing hook: when non-nil it is asked,
	// per execution, for a fault plan the engine then deliberately
	// triggers from inside the execution (panics through the pmem/px86
	// stack, slow steps). The argument is a deterministic schedule
	// ordinal — the execution index in Random mode, the work-unit-local
	// execution ordinal in ModelCheck mode — so injection is independent
	// of worker count. Arming it disables demand-driven work stealing
	// (donations would make unit-local ordinals depend on scheduler
	// timing); combine it with ForceSteals to chaos-test steal-heavy
	// schedules, whose trail-driven unit tree keeps ordinals
	// deterministic. Production runs leave it nil.
	InjectFault func(ordinal int) Fault
	// --- observability ---

	// Obs carries the campaign's observability sinks (metrics registry
	// and span tracer, internal/obs). nil — or an Observer whose sinks
	// are nil — disables all instrumentation: every instrument resolves
	// to a nil-receiver no-op and the hot path is allocation-identical
	// to a run without observability. Run propagates the observer to the
	// persistency backend via Model.Obs unless the caller set one.
	Obs *obs.Observer
	// Provenance makes the checker capture a structured obs.Provenance
	// sub-trace for every distinct violation (the racing store, its
	// flush/fence context, the crash point, the post-crash read). It
	// costs a few allocations per distinct violation and nothing on the
	// per-operation path; leave it off for benchmarks.
	Provenance bool

	// em, tr, and fr are the instrument bundle, tracer, and flight
	// recorder resolved once in Run from Obs; all-nil (no-op) when
	// observability is off.
	em obs.ExploreMetrics
	tr *obs.Tracer
	fr *obs.FlightRecorder

	// Resume continues a previously checkpointed partial run: the
	// engines skip (without re-executing) everything the checkpoint
	// already collected and continue the canonical stream from the cut.
	// Callers should Validate the checkpoint first. The resumed Result's
	// counts (Executions, Aborted, Quarantined, cache stats) are
	// cumulative; its Violations contain only bugs first found after the
	// cut — merge key sets with the partial run's for the campaign total.
	Resume *Checkpoint
}

// applyWindowConstraints forces off every feature a bounded window is
// incompatible with. Bounded-window mode releases trace history behind
// the retirement frontier, so every feature whose keys or replays reach
// into retired state must go: crash-boundary snapshots (Trace.Mark is
// unavailable once stores retire) and the post-crash state cache (its
// keys hash persistent images whose retired entries are gone).
// Verdicts are unaffected — the windowed-equivalence suite proves the
// violation sets and final heaps identical. Every engine entry point (Run, RunUnit, NewAssembler)
// calls this, so window semantics are uniform across in-process,
// worker, and supervisor paths.
func (o *Options) applyWindowConstraints() {
	if o.Model.Window > 0 {
		o.DisableSnapshots = true
		o.NoStateCache = true
	}
}

// ParseReduction maps a -reduction flag value onto DisableSnapshots,
// the one vocabulary both CLIs share:
//
//	all   prefix snapshots on (the default)
//	none  snapshots off — every execution replays from the program
//	      start, for A/B timing and debugging
func ParseReduction(name string) (disableSnapshots bool, err error) {
	switch name {
	case "", "all":
		return false, nil
	case "none":
		return true, nil
	default:
		return false, fmt.Errorf("unknown reduction %q (want all or none)", name)
	}
}

// Fault is one execution's chaos-injection plan (Options.InjectFault).
// The zero Fault injects nothing.
type Fault struct {
	// PanicAtOp, when positive, panics (with an internal injectedFault
	// value, classified as "injected-fault") when the execution reaches
	// that operation count — exercising the panic-isolation path from
	// inside the engine.
	PanicAtOp int
	// DelayAtOp, when positive, sleeps Delay once when the execution
	// reaches that operation count — exercising StepTimeout.
	DelayAtOp int
	Delay     time.Duration
}

// Result summarizes an exploration run.
type Result struct {
	Program    string
	Mode       Mode
	Executions int
	// ExecutionsToAllBugs is the 1-based index of the execution that
	// found the last new violation (0 when none were found) — the
	// "# total executions" column of Table 3.
	ExecutionsToAllBugs int
	Aborted             int
	Elapsed             time.Duration
	// Workers is the resolved worker count the run used.
	Workers int
	// WorkerTime is the summed per-execution wall-clock time across all
	// workers. PerExecution divides by it when set, so per-execution
	// cost (the Table 3 methodology) stays meaningful under
	// parallelism: each execution is still timed on its own worker.
	WorkerTime time.Duration
	// CacheHits and CacheMisses count post-crash state-cache lookups in
	// ModelCheck mode: a hit is a crash point whose surviving
	// persistent image was already explored, pruning its entire
	// post-crash enumeration.
	CacheHits, CacheMisses int
	// SnapshotRestores counts executions the ModelCheck engine resumed
	// from a crash-boundary world snapshot instead of replaying from the
	// program start. It is a throughput diagnostic: results are
	// bit-identical with snapshots disabled.
	SnapshotRestores int
	// Steals counts work units the ModelCheck engine's work-stealing
	// scheduler carved off busy workers' decision trails and handed to
	// idle ones. Like SnapshotRestores it is a scheduling diagnostic —
	// the assembled stream is bit-identical at any steal count — and is
	// excluded from the determinism contract.
	Steals int
	// Window is the bounded-window size the run used
	// (persist.Config.Window); 0 = classic unbounded traces.
	Window int
	// Ops sums the scheduled memory operations across collected
	// executions — the denominator long-workload throughput reporting
	// wants (executions alone make a 1M-op run look like one unit of
	// work).
	Ops int64
	// Retirements, RetiredStores, and RetiredEvents sum the
	// bounded-window sweeps' work across collected executions; all zero
	// when Window == 0. Like SnapshotRestores they are diagnostics,
	// excluded from the determinism contract (violations, executions,
	// and final heaps are identical at any window).
	Retirements   int64
	RetiredStores int64
	RetiredEvents int64
	// PinnedRootsMax is the largest pin closure (stores kept live) any
	// collected execution's retirement sweep marked — deterministic,
	// since the closure depends only on the execution's trace.
	// SweepNanos sums the sweeps' wall time across collected executions
	// and is a timing diagnostic. Both zero when Window == 0.
	PinnedRootsMax int64
	SweepNanos     int64
	// Violations are deduplicated across executions by bug identity
	// (store-site pair + diagnosis kind), in first-found order.
	Violations []*core.Violation

	// Partial marks a run that stopped before exhausting its work: a
	// deadline or cancellation tripped, or (ModelCheck mode) the
	// Executions budget bound before the frontier was exhausted. A
	// partial result is still sound — every reported violation is real —
	// it just proves nothing about the unexplored remainder.
	Partial bool
	// StopReason says why a stop tripped: "deadline", "canceled", or
	// "exec-budget". It is recorded first-writer-wins (noteStop) and can
	// be set on a *complete* run too: when a cancellation lands in the
	// same tick the frontier drains, Partial stays false but the reason
	// is still reported, so a SIGINT is never silently swallowed.
	StopReason string
	// FrontierRemaining counts known-unexplored work at the stop:
	// executions not run in Random mode; in ModelCheck mode, DFS work
	// units with uncollected work — in-flight units the stop interrupted,
	// stolen units still parked in the scheduler queue, and units whose
	// finished work fell canonically after the cut (a resume re-derives
	// it). It is exact even when a stop lands mid-steal.
	FrontierRemaining int
	// Quarantined counts executions whose engine panic was contained
	// (see ExecErrors); they contribute no violations.
	Quarantined int
	// ExecErrors are the structured records of contained panics, in
	// collection order, capped at execErrorCap entries (Quarantined
	// keeps the true count).
	ExecErrors []*ExecError
	// Checkpoint carries the resume state of a partial run stopped by a
	// deadline or cancellation; nil for complete runs and for budget
	// truncation (re-run with a larger budget instead).
	Checkpoint *Checkpoint

	// --- process isolation (internal/dispatch) ---
	// These fields are zero for in-process runs; the dispatch supervisor
	// fills them when the campaign ran in worker processes.

	// Isolated marks a Result assembled by the dispatch supervisor from
	// worker-process unit results.
	Isolated bool
	// Redeliveries counts work units re-dispatched after a worker died
	// or its lease expired; WorkerRestarts counts worker processes
	// respawned after such a failure.
	Redeliveries   int
	WorkerRestarts int
	// PoisonUnits are work units quarantined after exhausting their
	// retry budget: the campaign's canonical stream is cut at the first
	// of them (Partial, StopReason "poison") and the records carry the
	// provenance a bug report needs — the same discipline as ExecErrors.
	PoisonUnits []*PoisonUnit
	// Degraded marks a supervised campaign that fell back to in-process
	// execution after repeated supervisor-level trouble (fork/exec
	// failing). Results are still bit-identical — the same unit code runs
	// either way — but the isolation guarantee was lost.
	Degraded bool
}

// PerExecution returns the mean wall-clock time per execution, measured
// on the worker that ran it.
func (r *Result) PerExecution() time.Duration {
	if r.Executions == 0 {
		return 0
	}
	if r.WorkerTime > 0 {
		return r.WorkerTime / time.Duration(r.Executions)
	}
	return r.Elapsed / time.Duration(r.Executions)
}

// ViolationKeys returns the sorted bug identities, for stable assertions.
func (r *Result) ViolationKeys() []string {
	return core.KeySet(r.Violations)
}

// String renders a short human-readable summary.
func (r *Result) String() string {
	s := fmt.Sprintf("%s [%s]: %d executions (%d aborted), %d violations, %s total",
		r.Program, r.Mode, r.Executions, r.Aborted, len(r.Violations), r.Elapsed)
	if r.Quarantined > 0 {
		s += fmt.Sprintf(", %d quarantined", r.Quarantined)
	}
	if r.Partial {
		s += fmt.Sprintf(" [PARTIAL: %s]", r.StopReason)
	}
	return s
}

// stopper is the run-wide graceful-degradation switch. It has no
// goroutines: stopped() consults the context and the deadline directly,
// so a stop is observed deterministically at every check site (workers
// check between executions, sub-DFS loops between iterations).
//
// The first observed cause is latched (atomically — workers race to
// observe it), so why() reports the reason that actually stopped the
// run even if a second cause arrives later: a campaign whose wall-clock
// deadline trips and is then SIGINT-ed while draining reports
// "deadline", not "canceled", and vice versa.
type stopper struct {
	ctx      context.Context
	deadline time.Time // zero: none
	// reason is the latched stop cause: stopNone until the first
	// stopped() call that observes one.
	reason atomic.Int32
	em     obs.ExploreMetrics
	fr     *obs.FlightRecorder
}

const (
	stopNone int32 = iota
	stopDeadline
	stopCanceled
)

func newStopper(opt *Options) *stopper {
	s := &stopper{ctx: opt.Context, em: opt.em, fr: opt.fr}
	if s.ctx == nil {
		s.ctx = context.Background()
	}
	if opt.Deadline > 0 {
		s.deadline = time.Now().Add(opt.Deadline)
	}
	return s
}

// stopped reports whether the run should stop claiming new work,
// latching the cause on the first trip.
func (s *stopper) stopped() bool {
	if s.reason.Load() != stopNone {
		return true
	}
	if err := s.ctx.Err(); err != nil {
		if err == context.DeadlineExceeded {
			s.latch(stopDeadline)
		} else {
			s.latch(stopCanceled)
		}
		return true
	}
	if !s.deadline.IsZero() && !time.Now().Before(s.deadline) {
		s.latch(stopDeadline)
		return true
	}
	return false
}

// latch records the first observed stop cause; losers of the CAS keep
// the winner's reason. The stop counter increments exactly once.
func (s *stopper) latch(code int32) {
	if s.reason.CompareAndSwap(stopNone, code) {
		switch code {
		case stopDeadline:
			s.em.StopDeadline.Inc()
			s.fr.Record("explore", "stop", -1, "deadline")
		case stopCanceled:
			s.em.StopCanceled.Inc()
			s.fr.Record("explore", "stop", -1, "canceled")
		}
	}
}

// why names the latched stop reason for Result.StopReason. A stop can
// be observed without a stopped() call — workers select on done() and
// bail — so an unlatched reason is resolved from the live sources here.
func (s *stopper) why() string {
	if s.reason.Load() == stopNone {
		s.stopped()
	}
	if s.reason.Load() == stopCanceled {
		return "canceled"
	}
	return "deadline"
}

// done is a channel view of the context for blocked workers; the
// wall-clock deadline is only checked at the polling sites, which every
// worker reaches between executions.
func (s *stopper) done() <-chan struct{} { return s.ctx.Done() }

// Run explores the program under the given options.
func Run(p Program, opt Options) *Result {
	if opt.Mode == ModelCheck && opt.AfterExecution != nil {
		panic("explore: Options.AfterExecution is random-mode only; it must be nil with Mode ModelCheck")
	}
	if opt.Executions == 0 {
		opt.Executions = 1000
	}
	if opt.Workers <= 0 {
		opt.Workers = runtime.NumCPU()
	}
	// Resolve the instrument bundle and tracer once; with observability
	// off both are no-op zeros. The observer rides into the backend via
	// the model config so persist counters share the campaign registry.
	opt.em = obs.ExploreInstruments(opt.Obs.Reg())
	opt.tr = opt.Obs.Trace()
	opt.fr = opt.Obs.Recorder()
	if opt.Model.Obs == nil {
		opt.Model.Obs = opt.Obs
	}
	opt.applyWindowConstraints()
	st := newStopper(&opt)
	var res *Result
	switch opt.Mode {
	case ModelCheck:
		// The exhaustive mode runs on Options.Workers scheduler workers
		// draining a queue of DFS work units — one root unit per
		// crash-target subtree, plus any units busy workers carve off
		// their trails for idle peers (work stealing, pool.go).
		res = newMCEngine(p, &opt, st).run()
	default:
		res = runRandom(p, opt, st)
	}
	res.Window = opt.Model.Window
	return res
}

// primeFromCheckpoint folds a resumed checkpoint's already-collected
// totals into the result and seeds the cross-execution dedup set.
func primeFromCheckpoint(res *Result, seen map[string]bool, ck *Checkpoint) {
	res.Executions = ck.Collected
	res.Aborted = ck.Aborted
	res.Quarantined = ck.Quarantined
	for _, k := range ck.ViolationKeys {
		seen[k] = true
	}
}

// noteStop records a stop reason first-writer-wins: the cause that
// actually stopped the run is never overwritten by a later, different
// one, and a reason observed at the moment the frontier drained is kept
// even though the run counts as complete.
func (r *Result) noteStop(reason string) {
	if r.StopReason == "" {
		r.StopReason = reason
	}
}

// mergeViolations folds an execution's violations into the result.
func (r *Result) mergeViolations(seen map[string]bool, vs []*core.Violation, execIndex int) {
	for _, v := range vs {
		if !seen[v.Key()] {
			seen[v.Key()] = true
			r.Violations = append(r.Violations, v)
			r.ExecutionsToAllBugs = execIndex
		}
	}
}

// runPhases is the random-mode phase driver: it executes the program's
// phases in one world, injecting crashes per crashTargets (one entry per
// non-final phase; a target past the phase's fence-like operations
// crashes at the end of the phase). It reports whether the execution
// aborted on its op budget.
//
// Any panic other than pmem.AbortSignal is contained: runPhases returns
// it as a structured execErr instead of unwinding the worker, leaving w
// in an undefined state — the caller must discard the world and
// quarantine the schedule (see execerror.go).
//
// tr/tid attach a crash-resolution span per injected crash to the
// worker's trace timeline; a nil tracer costs two nil checks and reads
// no clock.
func runPhases(p Program, w *pmem.World, crashTargets []int, tr *obs.Tracer, tid int) (aborted bool, execErr *ExecError) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(pmem.AbortSignal); ok {
				aborted = true
				return
			}
			execErr = captureExecError(r)
		}
	}()
	phases := p.Phases()
	for i, phase := range phases {
		last := i == len(phases)-1
		if last {
			w.SetCrashTarget(-1)
		} else {
			w.SetCrashTarget(crashTargets[i])
		}
		w.RunPhase(phase)
		if !last {
			cs := tr.Now()
			w.Crash()
			tr.CompleteSince(tid, "explore", "crash-resolution", cs, -1)
		}
	}
	return false, nil
}

// runPhasesMC is the model-check-mode phase driver: it executes
// phases[startPhase:] in w, consuming each non-final phase's crash-
// target decision from ctl immediately before that phase runs. Lazy
// consumption keeps the decision trail in decision-*use* order — a
// decision at trail index i influences the execution only from the
// point it is consumed — which is the invariant snapshot validity is
// defined over (pool.go) and means phases never reached leave no trail
// entries at all.
//
// Domain discovery is inlined: a target decision whose injection did
// not fire is closed at target+1 as soon as its phase completes
// ("crash after the last operation", §6.1). On an op-budget abort or a
// contained panic the in-flight phase's open target decision is closed
// the same way, so sibling targets — which would deterministically
// replay the same abort or panic before crashing — are never
// enumerated separately (the pruning the upfront-consumption driver
// achieved by closing all unreached domains).
//
// onCrash, when non-nil, is invoked after each crash with the sealed
// image in place and whether the injection fired; returning false
// abandons the remaining phases (pruned) — the state cache uses this to
// skip a subtree it has already explored. Panics other than
// pmem.AbortSignal are contained into execErr; the caller must discard
// the world.
func runPhasesMC(phases []func(*pmem.World), w *pmem.World, ctl *controller, startPhase int, onCrash func(phase int, fired bool) bool, tr *obs.Tracer, tid int) (aborted bool, pruned bool, execErr *ExecError) {
	curDec, curTarget := -1, 0
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(pmem.AbortSignal); ok {
				aborted = true
			} else {
				execErr = captureExecError(r)
			}
			if curDec >= 0 && ctl.trail[curDec].domain < 0 {
				ctl.closeCurrent(curDec, curTarget+1)
			}
		}
	}()
	for i := startPhase; i < len(phases); i++ {
		last := i == len(phases)-1
		if last {
			curDec = -1
			w.SetCrashTarget(-1)
		} else {
			curDec = ctl.pos
			curTarget = ctl.next(-1)
			w.SetCrashTarget(curTarget)
		}
		crashed := w.RunPhase(phases[i])
		if last {
			break
		}
		if !crashed && ctl.trail[curDec].domain < 0 {
			ctl.closeCurrent(curDec, curTarget+1)
		}
		curDec = -1
		cs := tr.Now()
		w.Crash()
		tr.CompleteSince(tid, "explore", "crash-resolution", cs, -1)
		if onCrash != nil && !onCrash(i, crashed) {
			return false, true, nil
		}
	}
	return false, false, nil
}

// hardWatchdogFactor scales StepTimeout into the hard watchdog bound:
// an execution still running this many timeouts past its soft abort is
// stalled — the AbortSignal is evidently being swallowed (a spawned
// thread's unwinder, a port's own recover) — and is quarantined through
// the ExecError path instead of aborted.
const hardWatchdogFactor = 4

// installProbe arms w's watchdog for one execution: the chaos fault
// plan (if any) and the step timeout. The probe runs before every
// memory operation and, via pmem.CountInterpStep's throttle, every 1024
// interpreted statements — so a loop that issues no operations still
// trips the timeout. When neither watchdog applies the probe stays nil
// and the hot path pays nothing.
//
// The timeout is two-tier: past StepTimeout the execution is aborted
// (pmem.AbortSignal, counted in Result.Aborted); past
// hardWatchdogFactor×StepTimeout — reachable only when the abort didn't
// terminate it — a stallFault panic quarantines the schedule as an
// ExecError of kind "stall".
func installProbe(w *pmem.World, opt *Options, ordinal int) {
	var fault Fault
	if opt.InjectFault != nil {
		fault = opt.InjectFault(ordinal)
	}
	if fault == (Fault{}) && opt.StepTimeout <= 0 {
		return
	}
	var start time.Time
	if opt.StepTimeout > 0 {
		start = time.Now()
	}
	delayed := false
	softFired := false
	w.SetProbe(func(ops int) {
		if fault.PanicAtOp > 0 && ops >= fault.PanicAtOp {
			panic(injectedFault{exec: ordinal, op: ops})
		}
		if fault.DelayAtOp > 0 && !delayed && ops >= fault.DelayAtOp {
			delayed = true
			time.Sleep(fault.Delay)
		}
		if opt.StepTimeout > 0 {
			since := time.Since(start)
			// The hard tier arms only after the soft abort was raised: a
			// probe that runs after softFired means something swallowed
			// the AbortSignal and the execution is still going. A single
			// long gap between probes (a slow op, a chaos delay) is not a
			// stall — it aborts like any other timeout.
			if softFired && since > hardWatchdogFactor*opt.StepTimeout {
				panic(stallFault{elapsed: since, limit: opt.StepTimeout})
			}
			if since > opt.StepTimeout {
				softFired = true
				panic(pmem.AbortSignal{})
			}
		}
	})
}

// execOutcome is one execution's contribution to the result, produced
// on a worker and folded in by the collector in index order.
type execOutcome struct {
	index      int // 0-based execution index
	aborted    bool
	violations []*core.Violation
	// world is retained only when AfterExecution needs it.
	world   *pmem.World
	elapsed time.Duration
	// execErr marks a quarantined execution (contained panic): no
	// violations, no world.
	execErr *ExecError
	// ops and the retirement counts carry the execution's world stats
	// into the result sums (noteWorldStats); zero for quarantined
	// executions, whose world is discarded unread.
	ops           int64
	retirements   int64
	retiredStores int64
	retiredEvents int64
	pinnedRoots   int64
	sweepNanos    int64
}

// noteWorldStats records the execution's scheduled-operation count and
// bounded-window retirement totals from the world that ran it.
func (o *execOutcome) noteWorldStats(w *pmem.World) {
	o.ops = int64(w.Ops())
	rs := w.M.Trace().Retired()
	o.retirements = int64(rs.Retirements)
	o.retiredStores = int64(rs.RetiredStores)
	o.retiredEvents = int64(rs.RetiredEvents)
	o.pinnedRoots = int64(rs.MaxPinnedRoots)
	o.sweepNanos = w.SweepNanos()
}

// count classifies the outcome into exactly one of the completion
// counters (quarantined > aborted > completed) and observes the
// execution-duration histogram. It runs at the execution site — every
// execution that ran is counted, even one the ModelCheck assembly later
// truncates at the budget — keeping the invariant
// started == completed + aborted + quarantined (+ pruned, mc mode).
func (o *execOutcome) count(em *obs.ExploreMetrics, fr *obs.FlightRecorder) {
	switch {
	case o.execErr != nil:
		em.Quarantined.Inc()
		fr.Record("explore", "quarantine", -1, o.execErr.Kind)
	case o.aborted:
		em.Aborted.Inc()
	default:
		em.Completed.Inc()
	}
	em.ExecNanos.Observe(int64(o.elapsed))
}

// collect folds one execution's outcome into the result. Callers must
// invoke it in strictly increasing index order (the collector contract
// behind Progress and AfterExecution).
//
// Metric counters (started/completed/aborted/quarantined) are emitted
// at the execution sites, not here: the ModelCheck engine collects at
// assembly time, possibly truncating at the budget, and the counters
// must cover every execution that actually ran. Only the random-mode
// frontier gauge lives here, because "remaining executions" is a
// collector-order notion.
func (r *Result) collect(o execOutcome, seen map[string]bool, opt *Options) {
	if o.aborted {
		r.Aborted++
	}
	if o.execErr != nil {
		r.Quarantined++
		if len(r.ExecErrors) < execErrorCap {
			r.ExecErrors = append(r.ExecErrors, o.execErr)
		}
	}
	r.mergeViolations(seen, o.violations, o.index+1)
	r.Executions++
	r.WorkerTime += o.elapsed
	r.Ops += o.ops
	r.Retirements += o.retirements
	r.RetiredStores += o.retiredStores
	r.RetiredEvents += o.retiredEvents
	if o.pinnedRoots > r.PinnedRootsMax {
		r.PinnedRootsMax = o.pinnedRoots
	}
	r.SweepNanos += o.sweepNanos
	if opt.Mode == Random {
		opt.em.FrontierDepth.Set(int64(opt.Executions - r.Executions))
	}
	if opt.AfterExecution != nil && o.world != nil {
		opt.AfterExecution(o.world)
	}
	if opt.Progress != nil {
		opt.Progress(o.index + 1)
	}
}

// randomPlan is the per-run immutable context shared by all random-mode
// workers: the pilot's crash-point ranges and the derived machine
// configuration. Everything per-execution lives in the World.
type randomPlan struct {
	pilotCounts []int
	chooser     pmem.ReadChooser
	model       persist.Config
	drainPct    int
	keepWorld   bool
	fresh       bool
}

// planRandom runs the pilot execution and fixes the per-run knobs.
func planRandom(p Program, opt *Options) *randomPlan {
	// Pilot execution: run crash-free to size the crash-point ranges,
	// on a count-only world (pmem.NewCountingWorld): it gives the full
	// world's counts without the backend, trace or checker. It always
	// commits immediately, whatever the model config says.
	pilotCounts := make([]int, len(p.Phases())-1)
	// The pilot is sizing scaffolding, not exploration: strip the
	// observer so its ops never land in the campaign's counters. (A
	// supervised campaign runs one pilot per unit; fleet-aggregated
	// counters must still equal the in-process run's, which pilots once.)
	pilotModel := opt.Model
	pilotModel.Obs = nil
	pilot := pmem.NewCountingWorld(pmem.Config{Model: pilotModel, Seed: opt.Seed, OpLimit: opt.OpLimit})
	countingPilot(p, pilot, pilotCounts)

	chooser := pmem.ChooseAvoidingViolations(pmem.ChooseRandom)
	if opt.NoSteering {
		chooser = pmem.ChooseRandom
	}
	model := opt.Model
	drainPct := 0
	if opt.StoreBuffers {
		model.DelayedCommit = true
		drainPct = 25
	}
	return &randomPlan{
		pilotCounts: pilotCounts,
		chooser:     chooser,
		model:       model,
		drainPct:    drainPct,
		keepWorld:   opt.AfterExecution != nil,
		// A world handed to AfterExecution escapes the worker, so it
		// cannot be reused either.
		fresh: opt.FreshWorlds || opt.AfterExecution != nil,
	}
}

// workerState is one worker's reusable per-execution scratch: the world
// (machine, trace, checker, heap, RNG — reset between executions), the
// crash-target buffer, and the worker's observability identity (trace
// timeline tid and per-worker instrument bundle; zero when off).
type workerState struct {
	w       *pmem.World
	targets []int
	tid     int // 1-based trace timeline id
	tr      *obs.Tracer
	wm      obs.WorkerMetrics
}

func (ws *workerState) targetBuf(n int) []int {
	if cap(ws.targets) < n {
		ws.targets = make([]int, n)
	}
	return ws.targets[:n]
}

// randomExecution runs execution exec of a random-mode run. The seed is
// derived from the execution index alone, so the outcome is independent
// of which worker runs it and of every other execution.
func randomExecution(p Program, opt *Options, plan *randomPlan, ws *workerState, exec int) execOutcome {
	start := time.Now()
	opt.em.Started.Inc()
	seed := opt.Seed + int64(exec)*2654435761
	w := ws.w
	if w != nil && !plan.fresh {
		w.Reset(seed)
	} else {
		w = pmem.NewWorld(pmem.Config{
			Model:              plan.model,
			Seed:               seed,
			OpLimit:            opt.OpLimit,
			Chooser:            plan.chooser,
			RandomDrainPercent: plan.drainPct,
			Provenance:         opt.Provenance,
		})
	}
	if opt.DisableChecker {
		w.Checker.SetEnabled(false)
	}
	installProbe(w, opt, exec)
	targets := ws.targetBuf(len(plan.pilotCounts))
	for i := range targets {
		// Uniform over [0, count]: before each fence-like op, or
		// past the end (crash after the last operation).
		targets[i] = w.Rand().Intn(plan.pilotCounts[i] + 1)
	}
	aborted, execErr := runPhases(p, w, targets, ws.tr, ws.tid)
	o := execOutcome{
		index:   exec,
		aborted: aborted,
		elapsed: time.Since(start),
		execErr: execErr,
	}
	o.count(&opt.em, opt.fr)
	ws.tr.Complete(ws.tid, "explore", "execution", start, o.elapsed, int64(exec))
	if execErr != nil {
		// The panic left the world in an undefined state: discard it
		// (never reuse, never expose) and drop its violations.
		ws.w = nil
		execErr.Exec = exec
		execErr.Seed = seed
		execErr.Program = p.Name()
		execErr.Mode = Random
		return o
	}
	o.violations = w.Checker.Violations()
	o.noteWorldStats(w)
	if plan.keepWorld {
		o.world = w
	} else if !plan.fresh {
		ws.w = w
	}
	return o
}

// keysOf returns the sorted contents of a dedup set — the cumulative
// violation keys a checkpoint must carry.
func keysOf(seen map[string]bool) []string {
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runRandom implements random search mode: serial below two workers,
// fan-out through the ordered collector otherwise (pool.go). cursor is
// the canonical stream position: every execution below it has been
// collected (in this run or, via Resume, a previous one).
func runRandom(p Program, opt Options, st *stopper) *Result {
	res := &Result{Program: p.Name(), Mode: Random, Workers: opt.Workers}
	seen := make(map[string]bool)
	start := time.Now()
	startExec := 0
	if ck := opt.Resume; ck != nil {
		primeFromCheckpoint(res, seen, ck)
		startExec = ck.Collected
	}
	plan := planRandom(p, &opt)
	cursor := startExec
	if opt.Workers > 1 {
		cursor = runRandomParallel(p, &opt, plan, res, seen, st, startExec)
	} else {
		ws := &workerState{tid: 1, tr: opt.tr, wm: obs.WorkerInstruments(opt.Obs.Reg(), 1)}
		ws.tr.NameThread(ws.tid, "worker-1")
		for cursor < opt.Executions && !st.stopped() {
			o := randomExecution(p, &opt, plan, ws, cursor)
			ws.wm.BusyNanos.Add(int64(o.elapsed))
			ws.wm.Dispatches.Inc()
			res.collect(o, seen, &opt)
			cursor++
		}
	}
	if cursor < opt.Executions {
		res.Partial = true
		res.noteStop(st.why())
		res.FrontierRemaining = opt.Executions - cursor
		res.Checkpoint = &Checkpoint{
			Version:       checkpointVersion,
			Program:       res.Program,
			Mode:          Random.String(),
			Seed:          opt.Seed,
			Model:         resolveModel(opt.Model.Name),
			Window:        opt.Model.Window,
			Collected:     cursor,
			Aborted:       res.Aborted,
			Quarantined:   res.Quarantined,
			ViolationKeys: keysOf(seen),
		}
	} else if st.stopped() {
		// The stop landed in the same tick the frontier drained (a SIGINT
		// racing the last execution): the run is complete, but the reason
		// is still recorded so the report never swallows it.
		res.noteStop(st.why())
	}
	res.Elapsed = time.Since(start)
	return res
}

// countingPilot runs the program crash-free and records how many
// fence-like operations each non-final phase performs, in counts (one
// entry per non-final phase). It stops after the last of them: nothing
// reads the final phase's count. A phase that exceeds the op budget
// still records the fence-like operations it reached, and ends the
// pilot.
func countingPilot(p Program, w *pmem.World, counts []int) {
	phases := p.Phases()
	for i := range counts {
		if i > 0 {
			w.Crash()
		}
		w.SetCrashTarget(-1)
		aborted := runPilotPhase(w, phases[i])
		counts[i] = w.FenceOps()
		if aborted {
			return
		}
	}
}

// runPilotPhase runs one crash-free pilot phase, reporting whether it
// exceeded the op budget.
func runPilotPhase(w *pmem.World, phase func(*pmem.World)) (aborted bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(pmem.AbortSignal); !ok {
				panic(r)
			}
			aborted = true
		}
	}()
	w.RunPhase(phase)
	return false
}

// --- model checking mode: DFS over decision points ---

// decision is one recorded choice in the DFS trail. domain < 0 marks an
// open-ended crash-target decision whose range is discovered when a run
// no longer crashes.
type decision struct {
	val    int
	domain int
}

// controller replays a decision trail and extends it at new decision
// points, always choosing the first alternative.
type controller struct {
	trail []decision
	pos   int
}

func (c *controller) next(domain int) int {
	if c.pos < len(c.trail) {
		d := c.trail[c.pos]
		c.pos++
		return d.val
	}
	c.trail = append(c.trail, decision{val: 0, domain: domain})
	c.pos++
	return 0
}

// closeCurrent marks the most recently consumed decision's domain (used
// when a crash-target decision turns out to be past the phase's end).
func (c *controller) closeCurrent(idx int, domain int) {
	c.trail[idx].domain = domain
}

// mcWorld builds a fresh model-checking world whose read choices replay
// and extend the controller's decision trail.
func mcWorld(opt *Options, ctl *controller) *pmem.World {
	w := pmem.NewWorld(pmem.Config{
		Model:      opt.Model,
		Seed:       0,
		OpLimit:    opt.OpLimit,
		Provenance: opt.Provenance,
		Chooser: func(_ *pmem.World, _ memmodel.ThreadID, _ memmodel.Addr, cands []persist.Candidate, _ trace.LocID) persist.Candidate {
			return cands[ctl.next(len(cands))]
		},
	})
	if opt.DisableChecker {
		w.Checker.SetEnabled(false)
	}
	return w
}

// trailValues flattens a decision trail into the chosen values — the
// reproduction prefix an ExecError records.
func trailValues(trail []decision) []int {
	vals := make([]int, len(trail))
	for i, d := range trail {
		vals[i] = d.val
	}
	return vals
}
