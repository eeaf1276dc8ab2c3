package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/explore"
	"repro/internal/memmodel"
	"repro/internal/persist"
	"repro/internal/pmem"
	"repro/internal/trace"
)

// timedModelName is the registry name of the timing wrapper around the
// default backend. Only the traced run selects it, so the untraced run
// measures the bare backend.
const timedModelName = "px86-timed"

func init() {
	info, ok := persist.Lookup(persist.DefaultModel)
	if !ok {
		panic("perfbench: default persistency model not registered")
	}
	info.Name = timedModelName
	info.Description = "px86 with per-call timing (benchmark traced run)"
	persist.Register(info, func(cfg persist.Config) persist.Model {
		cfg.Name = persist.DefaultModel
		inner := persist.MustNew(cfg)
		m := &timedModel{inner: inner, retire: inner.(persist.Retirable)}
		activeTracer.Load().addModel(&m.stats)
		return m
	})
}

// activeTracer is the tracer the timed backend reports to: the factory
// is registered once per process, so it finds the traced run's tracer
// here. nil outside a traced run.
var activeTracer atomic.Pointer[tracer]

// op indexes the per-call accumulators of the persist wrapper.
type op int

const (
	opStore op = iota
	opFlush
	opFlushOpt
	opSFence
	opMFence
	opDrainAll
	opDrainOne
	opBufferLen
	opLoadCandidates
	opLoad
	opLoadDefault
	opCAS
	opFAA
	opCrash
	opFingerprint
	opIntern
	opReset
	opSnapshot
	opRestore
	opRetire
	numOps
)

var opNames = [numOps]struct{ layer, name string }{
	{"persist", "store"}, {"persist", "flush"}, {"persist", "flushopt"},
	{"persist", "sfence"}, {"persist", "mfence"}, {"persist", "drain_all"},
	{"persist", "drain_one"}, {"persist", "buffer_len"},
	{"persist", "load_candidates"}, {"persist", "load"},
	{"persist", "load_default"}, {"persist", "cas"}, {"persist", "faa"},
	{"persist", "crash"}, {"persist", "fingerprint"}, {"persist", "intern"},
	{"persist", "reset"}, {"persist", "snapshot"}, {"persist", "restore"},
	{"trace", "retire"},
}

// opStats is one model's call counts and nanoseconds per op. A Model
// is driven by one goroutine at a time, so it needs no locking; the
// tracer reads it after explore.Run has joined its workers.
type opStats [numOps]struct{ n, ns int64 }

func (s *opStats) add(o op, start time.Time) {
	s[o].n++
	s[o].ns += int64(time.Since(start))
}

// timedModel forwards every persist.Model call to the px86 backend and
// times it. It also forwards persist.Retirable, so bounded-window
// retirement reaches the backend and is timed as the trace layer.
type timedModel struct {
	inner  persist.Model
	retire persist.Retirable
	stats  opStats
}

func (m *timedModel) Name() string        { return m.inner.Name() }
func (m *timedModel) Trace() *trace.Trace { return m.inner.Trace() }
func (m *timedModel) Snapshot() *persist.ImageSnapshot {
	t := time.Now()
	s := m.inner.Snapshot()
	m.stats.add(opSnapshot, t)
	return s
}

func (m *timedModel) Intern(loc string) trace.LocID {
	t := time.Now()
	id := m.inner.Intern(loc)
	m.stats.add(opIntern, t)
	return id
}

func (m *timedModel) Reset() {
	t := time.Now()
	m.inner.Reset()
	m.stats.add(opReset, t)
}

func (m *timedModel) Store(th memmodel.ThreadID, a memmodel.Addr, v memmodel.Value, loc trace.LocID) *trace.Store {
	t := time.Now()
	s := m.inner.Store(th, a, v, loc)
	m.stats.add(opStore, t)
	return s
}

func (m *timedModel) Flush(th memmodel.ThreadID, a memmodel.Addr, loc trace.LocID) {
	t := time.Now()
	m.inner.Flush(th, a, loc)
	m.stats.add(opFlush, t)
}

func (m *timedModel) FlushOpt(th memmodel.ThreadID, a memmodel.Addr, loc trace.LocID) {
	t := time.Now()
	m.inner.FlushOpt(th, a, loc)
	m.stats.add(opFlushOpt, t)
}

func (m *timedModel) SFence(th memmodel.ThreadID, loc trace.LocID) {
	t := time.Now()
	m.inner.SFence(th, loc)
	m.stats.add(opSFence, t)
}

func (m *timedModel) MFence(th memmodel.ThreadID, loc trace.LocID) {
	t := time.Now()
	m.inner.MFence(th, loc)
	m.stats.add(opMFence, t)
}

func (m *timedModel) DrainAll(th memmodel.ThreadID) {
	t := time.Now()
	m.inner.DrainAll(th)
	m.stats.add(opDrainAll, t)
}

func (m *timedModel) DrainOne(th memmodel.ThreadID) bool {
	t := time.Now()
	ok := m.inner.DrainOne(th)
	m.stats.add(opDrainOne, t)
	return ok
}

func (m *timedModel) BufferLen(th memmodel.ThreadID) int {
	t := time.Now()
	n := m.inner.BufferLen(th)
	m.stats.add(opBufferLen, t)
	return n
}

func (m *timedModel) LoadCandidates(th memmodel.ThreadID, a memmodel.Addr) []persist.Candidate {
	t := time.Now()
	cs := m.inner.LoadCandidates(th, a)
	m.stats.add(opLoadCandidates, t)
	return cs
}

func (m *timedModel) Load(th memmodel.ThreadID, a memmodel.Addr, c persist.Candidate, loc trace.LocID) memmodel.Value {
	t := time.Now()
	v := m.inner.Load(th, a, c, loc)
	m.stats.add(opLoad, t)
	return v
}

func (m *timedModel) LoadDefault(th memmodel.ThreadID, a memmodel.Addr, loc trace.LocID) memmodel.Value {
	t := time.Now()
	v := m.inner.LoadDefault(th, a, loc)
	m.stats.add(opLoadDefault, t)
	return v
}

func (m *timedModel) CAS(th memmodel.ThreadID, a memmodel.Addr, c persist.Candidate, expected, newV memmodel.Value, loc trace.LocID) (memmodel.Value, bool) {
	t := time.Now()
	v, ok := m.inner.CAS(th, a, c, expected, newV, loc)
	m.stats.add(opCAS, t)
	return v, ok
}

func (m *timedModel) FAA(th memmodel.ThreadID, a memmodel.Addr, c persist.Candidate, delta memmodel.Value, loc trace.LocID) memmodel.Value {
	t := time.Now()
	v := m.inner.FAA(th, a, c, delta, loc)
	m.stats.add(opFAA, t)
	return v
}

func (m *timedModel) Crash() {
	t := time.Now()
	m.inner.Crash()
	m.stats.add(opCrash, t)
}

func (m *timedModel) PersistFingerprint() uint64 {
	t := time.Now()
	f := m.inner.PersistFingerprint()
	m.stats.add(opFingerprint, t)
	return f
}

func (m *timedModel) Restore(s *persist.ImageSnapshot) {
	t := time.Now()
	m.inner.Restore(s)
	m.stats.add(opRestore, t)
}

// Retire implements persist.Retirable.
func (m *timedModel) Retire(extraRoots func(mark func(*trace.Store))) {
	t := time.Now()
	m.retire.Retire(extraRoots)
	m.stats.add(opRetire, t)
}

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's epoch; Parent is the id of the enclosing span (-1 at the
// root) and Campaign the id of the campaign span it belongs to.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Campaign int    `json:"campaign"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans and the persist wrappers' call
// accumulators in memory; write puts them in one file at the end.
type tracer struct {
	epoch  time.Time
	mu     sync.Mutex
	spans  []span
	models []*opStats
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) addModel(s *opStats) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.models = append(t.models, s)
	t.mu.Unlock()
}

// begin opens a span and returns its id; end closes it. A span opened
// with campaign < 0 is its own campaign.
func (t *tracer) begin(name string, parent, campaign int) int {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := len(t.spans)
	if campaign < 0 {
		campaign = id
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Campaign: campaign, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a finished span.
func (t *tracer) record(name string, parent, campaign int, start, end time.Time) {
	s := span{Parent: parent, Campaign: campaign, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// opTotals sums every wrapped model's accumulators.
func (t *tracer) opTotals() opStats {
	var sum opStats
	for _, s := range t.models {
		for i := range sum {
			sum[i].n += s[i].n
			sum[i].ns += s[i].ns
		}
	}
	return sum
}

// spanNanos sums the durations of the spans named name.
func (t *tracer) spanNanos(name string) int64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return ns
}

// write stores the spans, the per-(layer, op) accumulators and the
// machine fingerprint as one JSON document.
func (t *tracer) write(path string, fp fingerprint) error {
	type opRow struct {
		Layer string `json:"layer"`
		Op    string `json:"op"`
		Calls int64  `json:"calls"`
		Nanos int64  `json:"ns"`
	}
	tot := t.opTotals()
	var ops []opRow
	for i, s := range tot {
		ops = append(ops, opRow{opNames[i].layer, opNames[i].name, s.n, s.ns})
	}
	data, err := json.Marshal(struct {
		Fingerprint fingerprint `json:"fingerprint"`
		Ops         []opRow     `json:"ops"`
		Spans       []span      `json:"spans"`
	}{fp, ops, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timedProgram wraps a Program so each phase call is recorded as a span
// of its campaign. Phase calls on the random-mode pilot world (the world
// of the campaign's first phase call) are named "pilot" so the pilot's
// time can be told apart from exploration.
type timedProgram struct {
	inner    explore.Program
	tr       *tracer
	campaign int
	random   bool

	mu    sync.Mutex
	pilot *pmem.World // kept referenced, so its address is never reused
}

func newTimedProgram(p explore.Program, tr *tracer, campaign int, mode explore.Mode) *timedProgram {
	return &timedProgram{inner: p, tr: tr, campaign: campaign, random: mode == explore.Random}
}

func (p *timedProgram) Name() string { return p.inner.Name() }

// PhasesReentrant forwards explore.ReentrantPhases, so wrapping never
// changes which engine path (snapshots or replay) a program takes.
func (p *timedProgram) PhasesReentrant() bool {
	r, ok := p.inner.(explore.ReentrantPhases)
	return ok && r.PhasesReentrant()
}

// Phases wraps the phases the inner program returns for this call, so
// per-execution instances stay per execution.
func (p *timedProgram) Phases() []func(*pmem.World) {
	phases := p.inner.Phases()
	out := make([]func(*pmem.World), len(phases))
	for i, f := range phases {
		f := f
		out[i] = func(w *pmem.World) {
			name := "phase"
			if p.isPilot(w) {
				name = "pilot"
			}
			start := time.Now()
			// Crash injection unwinds the phase with a panic; the span
			// must still close.
			defer func() { p.tr.record(name, p.campaign, p.campaign, start, time.Now()) }()
			f(w)
		}
	}
	return out
}

// isPilot reports whether w is the random-mode pilot world: the engine
// runs the pilot before any exploration, so the first world to enter a
// phase is the pilot.
func (p *timedProgram) isPilot(w *pmem.World) bool {
	if !p.random {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pilot == nil {
		p.pilot = w
	}
	return p.pilot == w
}
