package repro

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/benchmarks/bench"
	"repro/internal/explore"
	"repro/internal/pmem"
)

// worldPurityDiff explores one Program value in ways that run its phase
// functions with different histories, and reports the first verdict
// that differs from a serial replay of every execution from the program
// start ("" when all agree):
//
//   - model check, one worker, snapshots on: a backtrack restores the
//     world after the crash and re-runs only the recovery phase;
//   - model check, four workers, ForceSteals: every donated unit
//     replays from the start while other workers run the same phase
//     functions concurrently;
//   - random mode at one worker against four, at a fifth of the
//     executions: every random execution replays from the start.
//
// A phase that carries Go state into a later phase sees a different
// history under each and drifts from the replay.
func worldPurityDiff(p explore.Program, execs int) string {
	mc := func(opt explore.Options) *explore.Result {
		opt.Mode, opt.Executions = explore.ModelCheck, execs
		return explore.Run(p, opt)
	}
	replay := mc(explore.Options{Workers: 1, DisableSnapshots: true})
	if d := verdictDiff(replay, mc(explore.Options{Workers: 1})); d != "" {
		return "model check, 1 worker with snapshots vs replay: " + d
	}
	if d := verdictDiff(replay, mc(explore.Options{Workers: 4, ForceSteals: true})); d != "" {
		return "model check, 4 workers with forced steals vs replay: " + d
	}
	random := func(workers int) *explore.Result {
		return explore.Run(p, explore.Options{Mode: explore.Random, Executions: execs / 5, Seed: 5, Workers: workers})
	}
	if d := verdictDiff(random(1), random(4)); d != "" {
		return "random mode, 1 vs 4 workers: " + d
	}
	return ""
}

// verdictDiff compares the verdict fields of two results.
func verdictDiff(a, b *explore.Result) string {
	switch {
	case !reflect.DeepEqual(a.ViolationKeys(), b.ViolationKeys()):
		return fmt.Sprintf("ViolationKeys %v vs %v", a.ViolationKeys(), b.ViolationKeys())
	case a.Executions != b.Executions:
		return fmt.Sprintf("Executions %d vs %d", a.Executions, b.Executions)
	case a.ExecutionsToAllBugs != b.ExecutionsToAllBugs:
		return fmt.Sprintf("ExecutionsToAllBugs %d vs %d", a.ExecutionsToAllBugs, b.ExecutionsToAllBugs)
	}
	return ""
}

// leakyProgram breaks the world-pure contract: recovery reads a Go
// flag that only the pre-crash phase sets, and clears it. A recovery
// re-run on a restored snapshot finds the flag clear and skips two
// loads, so it explores fewer read choices than a replay does.
func leakyProgram() explore.Program {
	var armed atomic.Bool
	return &explore.FuncProgram{
		ProgName: "leaky",
		PhaseFns: []func(*pmem.World){
			func(w *pmem.World) {
				armed.Store(true)
				th := w.Thread(0)
				th.Store(0x1000, 1, "x=1")
				th.Store(0x1040, 2, "y=2")
				th.SFence("fence")
				th.Store(0x1080, 3, "z=3")
			},
			func(w *pmem.World) {
				th := w.Thread(0)
				th.Load(0x1000, "read x")
				if armed.Swap(false) {
					th.Load(0x1040, "read y")
					th.Load(0x1080, "read z")
				}
			},
		},
	}
}

// TestProgramsWorldPure checks the Program contract on every registered
// port, buggy and fixed: one Program value, explored serially with
// snapshots, in parallel with forced steals and in random mode, gives
// the verdicts of a serial replay. The negative control shows that the
// check catches a program that leaks Go state across phases.
func TestProgramsWorldPure(t *testing.T) {
	execs := 2000
	if raceEnabled {
		// Under the race detector, memory grows with every execution
		// of a threaded port and is not given back: at 2,000
		// executions each Servers() port needs about 3 GB.
		execs = 200
	}
	execs = scaled(execs)
	t.Run("negative-control", func(t *testing.T) {
		d := worldPurityDiff(leakyProgram(), execs)
		if d == "" {
			t.Fatal("a program whose recovery reads pre-crash Go state passed the world-purity check")
		}
		t.Log("flagged: " + d)
	})
	for _, b := range append(benchmarks.All(), benchmarks.Servers()...) {
		for _, v := range []bench.Variant{bench.Buggy, bench.Fixed} {
			b, v := b, v
			t.Run(b.Name+"/"+v.String(), func(t *testing.T) {
				if d := worldPurityDiff(b.Build(v), execs); d != "" {
					t.Fatal(d)
				}
			})
		}
	}
}
