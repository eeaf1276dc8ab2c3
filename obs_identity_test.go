package repro

// Regression tests for the observability subsystem's disabled-mode
// contract (internal/obs): a campaign run without sinks — whether the
// observer is nil or merely empty — must be allocation-identical to
// one that predates the subsystem, so the PR 2 allocation-free hot
// path cannot silently regress behind a nil check.

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/benchmarks/bench"
	"repro/internal/explore"
	"repro/internal/obs"
)

// TestObservabilityDisabledAllocIdentity measures the allocations of
// the same serial random campaign with Obs nil and with an empty
// Observer (the shape the CLIs pass when no telemetry flag is set): the
// counts must be identical, proving every instrument resolved from the
// empty observer is a true no-op on the hot path.
//
// One campaign's count is not exact: clearing a map reseeds its hash,
// so how often a reused world's maps grow while they refill varies from
// campaign to campaign, and now and then the runtime allocates during a
// campaign too. A mean over many campaigns therefore lands between
// integers, and comparing the floors of two such means failed whenever
// they straddled one. The median campaign's count is an integer that
// repeats, so each side runs many interleaved campaigns and the two
// medians must be equal. An instrument that allocates costs at least
// one allocation in every campaign and moves the median.
func TestObservabilityDisabledAllocIdentity(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation perturbs allocation counts; the identity is asserted in the uninstrumented tiers")
	}
	bm := benchmarks.ByName("CCEH")
	if bm == nil {
		t.Fatal("CCEH not registered")
	}
	empty := &obs.Observer{} // hoisted: the observer itself is campaign setup, not hot path
	allocs := func(o *obs.Observer) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := explore.Run(bm.Build(bench.Buggy), explore.Options{
			Mode:       explore.Random,
			Executions: 20,
			Seed:       7,
			Workers:    1,
			Obs:        o,
		})
		runtime.ReadMemStats(&after)
		if res.Executions != 20 {
			t.Fatalf("ran %d executions, want 20", res.Executions)
		}
		return after.Mallocs - before.Mallocs
	}
	const campaigns = 501
	off := make([]uint64, campaigns)
	disabled := make([]uint64, campaigns)
	for i := range campaigns {
		off[i] = allocs(nil)
		disabled[i] = allocs(empty)
	}
	slices.Sort(off)
	slices.Sort(disabled)
	if o, d := off[campaigns/2], disabled[campaigns/2]; o != d {
		t.Fatalf("empty observer changes the hot path: median %d allocs per campaign with Obs=nil, %d with empty observer",
			o, d)
	}
}

// TestObservabilityEnabledOutcomeIdentity asserts full instrumentation
// (registry + tracer + provenance) changes no campaign outcome: same
// executions, aborts, and violation keys as the uninstrumented run, in
// both modes. Telemetry observes; it must never steer.
func TestObservabilityEnabledOutcomeIdentity(t *testing.T) {
	execs := scaled(100)
	for _, mode := range []explore.Mode{explore.Random, explore.ModelCheck} {
		mode := mode
		for _, b := range benchmarks.All() {
			b := b
			t.Run(mode.String()+"/"+b.Name, func(t *testing.T) {
				opt := explore.Options{Mode: mode, Executions: execs, Seed: 11, Workers: 4}
				plain := explore.Run(b.Build(bench.Buggy), opt)
				opt.Obs = &obs.Observer{Metrics: obs.NewRegistry(), Tracer: obs.NewTracer()}
				opt.Provenance = true
				instr := explore.Run(b.Build(bench.Buggy), opt)
				assertSameOutcome(t, b.Name, plain, instr)
			})
		}
	}
}
