package repro

// Regression tests for the allocation-free hot path: per-worker World
// reuse (World.Reset) must be observationally identical to building a
// fresh World per execution, and the trace's location interner must
// round-trip every label.

import (
	"reflect"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/benchmarks/bench"
	"repro/internal/explore"
	"repro/internal/trace"
)

// TestWorldReuseMatchesFreshWorlds: for every registered benchmark and
// both exploration modes, the default reused-World engine produces the
// same Result as one forced to build a fresh World per execution. This
// is the oracle for Machine.Reset, Trace.Reset, Checker.Reset, and
// Heap.Reset, and for the checker's reported set, which deliberately
// outlives Reset: any state leaking across executions shows up as a
// difference in a violation report, execution count, or abort count.
func TestWorldReuseMatchesFreshWorlds(t *testing.T) {
	execs := scaled(100)
	for _, mode := range []explore.Mode{explore.Random, explore.ModelCheck} {
		mode := mode
		for _, b := range benchmarks.All() {
			b := b
			t.Run(mode.String()+"/"+b.Name, func(t *testing.T) {
				opt := explore.Options{Mode: mode, Executions: execs, Seed: 11, Workers: 1}
				reused := explore.Run(b.Build(bench.Buggy), opt)
				opt.FreshWorlds = true
				fresh := explore.Run(b.Build(bench.Buggy), opt)
				assertSameReports(t, b.Name, reused, fresh)
			})
		}
	}
}

// assertSameReports asserts assertSameOutcome and, beyond the keys, that
// every violation report matches in full: frozen store copies, fixes,
// intervals and provenance are part of the user-visible output.
func assertSameReports(t *testing.T, context string, a, b *explore.Result) {
	t.Helper()
	assertSameOutcome(t, context, a, b)
	if a.Quarantined != b.Quarantined {
		t.Fatalf("%s: Quarantined %d vs %d", context, a.Quarantined, b.Quarantined)
	}
	for i, v := range a.Violations {
		w := b.Violations[i]
		if v.String() != w.String() || v.Prov.Narrative() != w.Prov.Narrative() {
			t.Fatalf("%s: violation %d renders differently:\n%s%s\nvs:\n%s%s",
				context, i, v, v.Prov.Narrative(), w, w.Prov.Narrative())
		}
	}
}

// TestWorldReuseMatchesFreshWorldsParallel covers the per-worker reuse
// paths of the parallel engines: random-mode workers keep one world (and
// its checker's reported set) across all the batches they claim, and
// model-check workers keep theirs across units, forgetting the reported
// set at each unit start. Provenance is on, so it is compared too.
func TestWorldReuseMatchesFreshWorldsParallel(t *testing.T) {
	execs := scaled(100)
	for _, b := range benchmarks.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			for _, opt := range []explore.Options{
				{Mode: explore.Random, Workers: 8},
				{Mode: explore.ModelCheck, Workers: 4, ForceSteals: true},
			} {
				opt.Executions, opt.Seed, opt.Provenance = execs, 11, true
				reused := explore.Run(b.Build(bench.Buggy), opt)
				opt.FreshWorlds = true
				fresh := explore.Run(b.Build(bench.Buggy), opt)
				assertSameReports(t, b.Name+" "+opt.Mode.String(), reused, fresh)
			}
		})
	}
}

// TestInternerRoundTrip: interning is idempotent and Str inverts Intern,
// including across a Trace.Reset (the intern table deliberately
// survives resets so LocIDs stay stable for a reused world).
func TestInternerRoundTrip(t *testing.T) {
	tr := trace.New()
	labels := []string{"", "x=1", "flush x", "r1=x @fig2.pm:3", "x=1"}
	ids := make([]trace.LocID, len(labels))
	for i, s := range labels {
		ids[i] = tr.Intern(s)
		if got := tr.LocString(ids[i]); got != s {
			t.Fatalf("LocString(Intern(%q)) = %q", s, got)
		}
	}
	if ids[0] != trace.NoLoc {
		t.Fatalf("Intern(\"\") = %d, want NoLoc", ids[0])
	}
	if ids[1] != ids[4] {
		t.Fatalf("re-interning %q gave %d, want %d", labels[4], ids[4], ids[1])
	}
	if ids[1] == ids[2] || ids[2] == ids[3] {
		t.Fatal("distinct labels must get distinct ids")
	}
	before := append([]trace.LocID(nil), ids...)
	tr.Reset()
	for i, s := range labels {
		if got := tr.Intern(s); got != before[i] {
			t.Fatalf("after Reset, Intern(%q) = %d, want stable id %d", s, got, before[i])
		}
	}
	if !reflect.DeepEqual(ids, before) {
		t.Fatal("ids mutated")
	}
}
