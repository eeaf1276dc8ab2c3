package explore

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/pmem"
)

// figure2Tail is figure2 with fences between the store pairs, so it has
// three crash subtrees that share bugs, and an unflushed z written last
// and read last after the crash: every z alternative the DFS backtracks
// through repeats the x/y bug of the same read prefix in one work unit.
func figure2Tail() Program {
	const addrZ = addrY + 0x1000
	return &FuncProgram{
		ProgName: "figure2-tail",
		PhaseFns: []func(*pmem.World){
			func(w *pmem.World) {
				th := w.Thread(0)
				th.Store(addrX, 1, "x=1")
				th.Store(addrY, 1, "y=1")
				th.MFence("mfence 1")
				th.Store(addrX, 2, "x=2")
				th.Store(addrY, 2, "y=2")
				th.MFence("mfence 2")
				th.Store(addrZ, 1, "z=1")
				th.Store(addrZ, 2, "z=2")
			},
			func(w *pmem.World) {
				th := w.Thread(0)
				th.Load(addrX, "r1=x")
				th.Load(addrY, "r2=y")
				th.Load(addrZ, "r3=z")
			},
		},
	}
}

// runMCCounting runs a model-check campaign as Run does and also
// returns the number of violation reports the checker handed over,
// summed over every execution of every unit: the diagnoses the
// assembly walk's dedup had to look at.
func runMCCounting(p Program, opt Options) (*Result, int) {
	opt.em = obs.ExploreInstruments(opt.Obs.Reg())
	opt.tr = opt.Obs.Trace()
	opt.fr = opt.Obs.Recorder()
	opt.applyWindowConstraints()
	e := newMCEngine(p, &opt, newStopper(&opt))
	res := e.run()
	n := 0
	var walk func(u *mcUnit)
	walk = func(u *mcUnit) {
		for _, ex := range u.execs {
			n += len(ex.violations)
		}
		for _, c := range u.children {
			walk(c.unit)
		}
	}
	for _, s := range e.subs {
		if s.rootUnit != nil {
			walk(s.rootUnit)
		}
	}
	return res, n
}

// TestReportedSetSkipsRediagnosis: a reused world's checker keeps its
// reported set for the whole work unit, so a bug found again later in
// the unit is not diagnosed again. The model-check Result must equal the
// FreshWorlds one in full (reports with fixes and provenance), and the
// reused run must hand over strictly fewer reports — otherwise the
// equivalence says nothing about the mechanism.
func TestReportedSetSkipsRediagnosis(t *testing.T) {
	for _, workers := range []int{1, 4} {
		opt := Options{
			Mode: ModelCheck, Executions: 10000, Workers: workers,
			ForceSteals: workers > 1, Provenance: true,
		}
		reused, nReused := runMCCounting(figure2Tail(), opt)
		opt.FreshWorlds = true
		fresh, nFresh := runMCCounting(figure2Tail(), opt)
		sameResult(t, "figure2-tail", reused, fresh)
		for i, v := range reused.Violations {
			w := fresh.Violations[i]
			if v.String() != w.String() || v.Prov.Narrative() != w.Prov.Narrative() {
				t.Fatalf("workers=%d: report %d differs:\nreused: %s%s\nfresh:  %s%s",
					workers, i, v, v.Prov.Narrative(), w, w.Prov.Narrative())
			}
		}
		if nReused >= nFresh {
			t.Fatalf("workers=%d: reused worlds handed over %d reports, fresh %d: "+
				"the reported set never skipped a diagnosis", workers, nReused, nFresh)
		}
	}
}

// TestReportedSetScopedToUnit: one worker runs the model-check units in
// reverse canonical order — every later crash subtree before the units
// ForceSteals carved off the first — as a busy pool may. Each unit must
// still report every bug it finds, whatever its world's checker reported
// in other units, or the assembly walk credits a bug to a canonically
// later execution. The hand-driven stream must equal Run's.
func TestReportedSetScopedToUnit(t *testing.T) {
	opt := Options{Mode: ModelCheck, Executions: 10000, Workers: 1, ForceSteals: true, Provenance: true}
	want := Run(figure2Tail(), opt)
	opt.em = obs.ExploreInstruments(nil)
	e := newMCEngine(figure2Tail(), &opt, newStopper(&opt))
	e.start()
	ws := &mcWorkerState{ctl: &controller{}, phases: e.p.Phases()}
	for len(e.pending) > 0 {
		u := e.pending[len(e.pending)-1]
		e.pending = e.pending[:len(e.pending)-1]
		e.runUnit(u, ws, 1)
	}
	got := &Result{Program: "figure2-tail", Mode: ModelCheck}
	a := &asm{e: e, res: got, seen: map[string]bool{}}
	for _, s := range e.subs {
		if s.rootUnit != nil {
			a.walk(s.rootUnit)
		}
	}
	if e.steals == 0 || len(e.subs) < 2 {
		t.Fatalf("steals=%d subtrees=%d: no unit ran out of canonical order", e.steals, len(e.subs))
	}
	if got.Executions != want.Executions || got.ExecutionsToAllBugs != want.ExecutionsToAllBugs ||
		len(got.Violations) != len(want.Violations) {
		t.Fatalf("reverse-order run diverged (executions to all bugs %d, want %d):\n got %s\nwant %s",
			got.ExecutionsToAllBugs, want.ExecutionsToAllBugs, got, want)
	}
	for i, v := range got.Violations {
		if w := want.Violations[i]; v.String() != w.String() || v.Prov.Narrative() != w.Prov.Narrative() {
			t.Fatalf("report %d differs:\n%s\nvs:\n%s", i, v, w)
		}
	}
}
