package repro

// Determinism regression tests for the parallel exploration engine:
// for every benchmark in the registry, a run with many workers must be
// byte-identical to the serial run — same violation keys, same
// execution counts, same abort counts — in both exploration modes, and
// the model-check state cache must never change verdicts.

import (
	"context"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/benchmarks"
	"repro/internal/benchmarks/bench"
	"repro/internal/explore"
)

// quickTest reports whether PSAN_TEST_QUICK=1 is set — the CI race run
// uses it to keep the heavy exploration tests under a few minutes.
func quickTest() bool {
	return os.Getenv("PSAN_TEST_QUICK") != ""
}

// scaled returns n, cut down in quick mode.
func scaled(n int) int {
	if quickTest() {
		return n / 5
	}
	return n
}

func assertSameOutcome(t *testing.T, context string, a, b *explore.Result) {
	t.Helper()
	if !reflect.DeepEqual(a.ViolationKeys(), b.ViolationKeys()) {
		t.Fatalf("%s: ViolationKeys differ\n  %d workers: %v\n  %d workers: %v",
			context, a.Workers, a.ViolationKeys(), b.Workers, b.ViolationKeys())
	}
	if a.Executions != b.Executions {
		t.Fatalf("%s: Executions %d vs %d", context, a.Executions, b.Executions)
	}
	if a.ExecutionsToAllBugs != b.ExecutionsToAllBugs {
		t.Fatalf("%s: ExecutionsToAllBugs %d vs %d", context, a.ExecutionsToAllBugs, b.ExecutionsToAllBugs)
	}
	if a.Aborted != b.Aborted {
		t.Fatalf("%s: Aborted %d vs %d", context, a.Aborted, b.Aborted)
	}
}

// TestParallelDeterminismRandom: Workers:8 random search reproduces the
// Workers:1 result bit for bit on every registered benchmark, the
// Servers() ports included: they drive the cooperative thread scheduler
// hardest, and concurrent executions sharing any port state show up
// here as drift (or, under -race, as a report).
func TestParallelDeterminismRandom(t *testing.T) {
	execs := scaled(200)
	for _, b := range append(benchmarks.All(), benchmarks.Servers()...) {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			opt := explore.Options{Mode: explore.Random, Executions: execs, Seed: 11}
			opt.Workers = 1
			serial := explore.Run(b.Build(bench.Buggy), opt)
			opt.Workers = 8
			parallel := explore.Run(b.Build(bench.Buggy), opt)
			assertSameOutcome(t, b.Name, serial, parallel)
		})
	}
}

// reductionVariants names the two reduction settings the model-check
// determinism tests must hold under: the default (prefix snapshots on)
// and the -reduction none escape hatch.
var reductionVariants = []struct {
	name    string
	disable bool
}{
	{"reduced", false},
	{"unreduced", true},
}

// TestParallelDeterminismModelCheck: the frontier-split DFS with 8
// workers reproduces the serial sub-DFS exactly, including where the
// Executions cap truncates the search — with the reductions on and off.
func TestParallelDeterminismModelCheck(t *testing.T) {
	execs := scaled(400)
	for _, v := range reductionVariants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			for _, b := range benchmarks.All() {
				b := b
				t.Run(b.Name, func(t *testing.T) {
					opt := explore.Options{
						Mode: explore.ModelCheck, Executions: execs,
						DisableSnapshots: v.disable,
					}
					opt.Workers = 1
					serial := explore.Run(b.Build(bench.Buggy), opt)
					opt.Workers = 8
					parallel := explore.Run(b.Build(bench.Buggy), opt)
					assertSameOutcome(t, b.Name, serial, parallel)
					if serial.Executions == 0 {
						t.Fatal("no executions ran")
					}
				})
			}
		})
	}
}

// mergeKeys folds a result's violation keys into a set.
func mergeKeys(into map[string]bool, res *explore.Result) {
	for _, k := range res.ViolationKeys() {
		into[k] = true
	}
}

func sortedKeys(set map[string]bool) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestCancelResumeDeterminismRandom: for every benchmark, cancel a
// random campaign mid-run via its context, resume from the checkpoint,
// and check the merged outcome is byte-identical to the uninterrupted
// run — same violation key set, same cumulative execution and abort
// counts.
func TestCancelResumeDeterminismRandom(t *testing.T) {
	execs := scaled(200)
	for _, b := range benchmarks.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			opt := explore.Options{Mode: explore.Random, Executions: execs, Seed: 11, Workers: 4}
			full := explore.Run(b.Build(bench.Buggy), opt)

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			popt := opt
			popt.Context = ctx
			// Cancel early enough that the in-flight window (Workers ×
			// collector slack) cannot carry the run to completion.
			cancelAt := execs / 8
			if cancelAt < 1 {
				cancelAt = 1
			}
			popt.Progress = func(exec int) {
				if exec == cancelAt {
					cancel()
				}
			}
			partial := explore.Run(b.Build(bench.Buggy), popt)
			if !partial.Partial {
				// The run won the race against the cancellation; it must
				// then simply equal the uninterrupted run.
				assertSameOutcome(t, b.Name+" (cancel raced)", full, partial)
				return
			}
			if partial.Checkpoint == nil {
				t.Fatalf("partial run carries no checkpoint: %s", partial)
			}
			if err := partial.Checkpoint.Validate(full.Program, opt); err != nil {
				t.Fatalf("checkpoint rejected: %v", err)
			}
			ropt := opt
			ropt.Resume = partial.Checkpoint
			resumed := explore.Run(b.Build(bench.Buggy), ropt)
			if resumed.Partial {
				t.Fatalf("resumed run did not complete: %s", resumed)
			}
			if resumed.Executions != full.Executions || resumed.Aborted != full.Aborted {
				t.Fatalf("cumulative counts diverge: %s vs %s", resumed, full)
			}
			merged := make(map[string]bool)
			mergeKeys(merged, partial)
			mergeKeys(merged, resumed)
			if !reflect.DeepEqual(sortedKeys(merged), full.ViolationKeys()) {
				t.Fatalf("merged violations differ\n  merged: %v\n  full:   %v",
					sortedKeys(merged), full.ViolationKeys())
			}
		})
	}
}

// TestCancelResumeDeterminismModelCheck: for every benchmark, interrupt
// the frontier-split DFS under escalating deadlines and chain resumes
// until the campaign ends; the merged outcome must match the
// uninterrupted run — with the reductions on and off. A leg that ends
// on the execution budget (no checkpoint) is terminal by construction —
// the uninterrupted run ends the same way at the same canonical prefix.
func TestCancelResumeDeterminismModelCheck(t *testing.T) {
	execs := scaled(400)
	for _, v := range reductionVariants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			for _, b := range benchmarks.All() {
				b := b
				t.Run(b.Name, func(t *testing.T) {
					opt := explore.Options{
						Mode: explore.ModelCheck, Executions: execs, Workers: 4,
						DisableSnapshots: v.disable,
					}
					full := explore.Run(b.Build(bench.Buggy), opt)

					merged := make(map[string]bool)
					copt := opt
					copt.Deadline = 200 * time.Microsecond
					legs := 0
					var last *explore.Result
					for leg := 0; ; leg++ {
						if leg > 60 {
							t.Fatal("resume chain did not converge in 60 legs")
						}
						legs = leg + 1
						last = explore.Run(b.Build(bench.Buggy), copt)
						mergeKeys(merged, last)
						if !last.Partial || last.Checkpoint == nil {
							break
						}
						if err := last.Checkpoint.Validate(full.Program, opt); err != nil {
							t.Fatalf("leg %d checkpoint rejected: %v", leg, err)
						}
						copt.Resume = last.Checkpoint
						copt.Deadline *= 2
					}
					if last.Executions != full.Executions || last.Aborted != full.Aborted {
						t.Fatalf("cumulative counts diverge: %s vs %s", last, full)
					}
					if !reflect.DeepEqual(sortedKeys(merged), full.ViolationKeys()) {
						t.Fatalf("merged violations differ\n  merged: %v\n  full:   %v",
							sortedKeys(merged), full.ViolationKeys())
					}
					t.Logf("%s: converged in %d leg(s)", b.Name, legs)
				})
			}
		})
	}
}

// TestStealDeterminismModelCheck: steal-heavy schedules must assemble
// the same canonical stream as the never-stealing engine. ForceSteals
// makes the scheduler donate a work unit at every sub-DFS loop top with
// a donatable trail cut — the densest unit tree the work-stealing
// machinery can produce, reproducibly at any worker count — and the
// result must match a DisableStealing serial run bit for bit, at 1, 4,
// and 16 workers, with the reductions on and off, including where the
// Executions cap truncates the search. The multi-worker runs must
// actually steal (summed over the ports), or the comparison is vacuous.
func TestStealDeterminismModelCheck(t *testing.T) {
	execs := scaled(400)
	for _, v := range reductionVariants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			steals, ran := 0, 0
			for _, b := range benchmarks.All() {
				b := b
				t.Run(b.Name, func(t *testing.T) {
					ran++
					opt := explore.Options{
						Mode: explore.ModelCheck, Executions: execs,
						DisableSnapshots: v.disable,
					}
					opt.Workers = 1
					opt.DisableStealing = true
					baseline := explore.Run(b.Build(bench.Buggy), opt)
					opt.DisableStealing = false
					opt.ForceSteals = true
					for _, workers := range []int{1, 4, 16} {
						opt.Workers = workers
						stolen := explore.Run(b.Build(bench.Buggy), opt)
						assertSameOutcome(t, b.Name, baseline, stolen)
						if workers > 1 {
							steals += stolen.Steals
						}
					}
					if baseline.Executions == 0 {
						t.Fatal("no executions ran")
					}
				})
			}
			if ran == len(benchmarks.All()) && steals == 0 && !t.Failed() {
				t.Fatal("forced stealing never donated a unit at 4 or 16 workers — the comparison proves nothing")
			}
		})
	}
}

// TestStateCacheSoundOnBenchmarks: pruning crash points with identical
// surviving images must never lose a bug. Under a binding Executions
// cap the cached run advances further through the decision tree and may
// legitimately find additional bugs, so the invariant is one-sided:
// every violation the uncached run reports, the cached run reports too.
func TestStateCacheSoundOnBenchmarks(t *testing.T) {
	execs := scaled(400)
	for _, b := range benchmarks.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			cached := explore.Run(b.Build(bench.Buggy), explore.Options{
				Mode: explore.ModelCheck, Executions: execs, Workers: 1,
			})
			uncached := explore.Run(b.Build(bench.Buggy), explore.Options{
				Mode: explore.ModelCheck, Executions: execs, Workers: 1, NoStateCache: true,
			})
			have := make(map[string]bool)
			for _, k := range cached.ViolationKeys() {
				have[k] = true
			}
			for _, k := range uncached.ViolationKeys() {
				if !have[k] {
					t.Fatalf("state cache lost violation %s\n  cached:   %v\n  uncached: %v",
						k, cached.ViolationKeys(), uncached.ViolationKeys())
				}
			}
			if cached.CacheHits+cached.CacheMisses == 0 {
				t.Fatal("cache saw no lookups")
			}
		})
	}
}
