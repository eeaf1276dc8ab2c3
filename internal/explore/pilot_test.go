package explore_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/benchmarks/bench"
	"repro/internal/benchmarks/redislog"
	"repro/internal/explore"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/persist"
	"repro/internal/pmem"
	"repro/internal/workload"
)

// pilotPrograms is the pilot equivalence corpus: every registered port
// and every Servers() port, buggy and fixed, a 2,000-request redislog
// stream, and every shipped .pm program.
func pilotPrograms(t *testing.T) []explore.Program {
	t.Helper()
	var progs []explore.Program
	ports := append(benchmarks.All(), benchmarks.Servers()...)
	for _, b := range ports {
		progs = append(progs, b.Build(bench.Buggy), b.Build(bench.Fixed))
	}
	progs = append(progs, redislog.BuildWorkload(bench.Fixed, workload.Config{
		Seed: 1, Ops: 2000, Keys: 512, ZipfS: 1.2, ReadPct: 85, Threads: 2,
	}))
	files, err := filepath.Glob("../../testdata/*.pm")
	if err != nil || len(files) == 0 {
		t.Fatalf("no .pm programs found (%v)", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := lang.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		progs = append(progs, interp.New(filepath.Base(f), prog))
	}
	return progs
}

// firstWorld wraps a Program and keeps the first world that enters one
// of its phases: in random mode, the pilot's.
type firstWorld struct {
	explore.Program
	w *pmem.World
}

func (p *firstWorld) Phases() []func(*pmem.World) {
	phases := p.Program.Phases()
	out := make([]func(*pmem.World), len(phases))
	for i, f := range phases {
		out[i] = func(w *pmem.World) {
			if p.w == nil {
				p.w = w
			}
			f(w)
		}
	}
	return out
}

// fullPilotCounts is the reference: the pilot on a full world.
func fullPilotCounts(p explore.Program, model persist.Config, seed int64, opLimit int) ([]int, *pmem.World) {
	w := pmem.NewWorld(pmem.Config{Model: model, Seed: seed, OpLimit: opLimit})
	w.Checker.SetEnabled(false)
	counts := make([]int, len(p.Phases())-1)
	explore.CountingPilot(p, w, counts)
	return counts, w
}

// TestCountingPilotMatchesFull pins that the count-only pilot sizes
// every crash range exactly as a full world does — over every program,
// backend, trace window and seed, with and without an op limit that
// aborts the pilot — and that planRandom really pilots on the
// count-only world: its backend must record no store, while the full
// reference records some.
func TestCountingPilotMatchesFull(t *testing.T) {
	const abortLimit = 300
	progs := pilotPrograms(t)
	configs, aborted := 0, 0
	for _, prog := range progs {
		for _, name := range []string{"px86", "ptsosyn", "strict"} {
			for _, window := range []int{0, 64} {
				model := persist.Config{Name: name, Window: window}
				for seed := int64(1); seed <= 3; seed++ {
					var unlimited []int
					for _, limit := range []int{0, abortLimit} {
						want, ref := fullPilotCounts(prog, model, seed, limit)
						fw := &firstWorld{Program: prog}
						got := explore.PilotCounts(fw, explore.Options{
							Mode: explore.Random, Seed: seed, OpLimit: limit, Model: model,
						})
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s %s window %d seed %d op limit %d: counting pilot %v, full pilot %v",
								prog.Name(), name, window, seed, limit, got, want)
						}
						if fw.w == nil {
							t.Fatalf("%s: planRandom ran no pilot phase", prog.Name())
						}
						if n := fw.w.M.Trace().Stats().Stores; n != 0 {
							t.Fatalf("%s %s: the pilot's backend recorded %d stores; planRandom built a full world", prog.Name(), name, n)
						}
						if ref.M.Trace().Stats().Stores == 0 {
							t.Fatalf("%s %s: the reference pilot recorded no store", prog.Name(), name)
						}
						if limit == 0 {
							unlimited = want
						} else if !reflect.DeepEqual(want, unlimited) {
							aborted++
						}
						configs++
					}
				}
			}
		}
	}
	if aborted == 0 {
		t.Fatalf("op limit %d aborted no pilot", abortLimit)
	}
	t.Logf("%d configurations (%d programs), %d pilots aborted by the op limit", configs, len(progs), aborted)
}

// abortingRedis is redislog whose crash-free run exceeds a 2,000-op
// budget in its pre-crash phase.
func abortingRedis() explore.Program {
	return redislog.BuildWorkload(bench.Buggy, workload.Config{
		Seed: 7, Ops: 200, Keys: 64, ZipfS: 1.2, ReadPct: 30, Threads: 2,
	})
}

// TestAbortedPilotKeepsCrashRange pins that a pilot which exceeds the op
// budget still sizes its phase's crash range from the fence-like
// operations it reached. A zero range would crash every execution
// before its first fence and hide every bug.
func TestAbortedPilotKeepsCrashRange(t *testing.T) {
	opt := explore.Options{Mode: explore.Random, Executions: 200, Seed: 1, Workers: 1, OpLimit: 2000}
	counts := explore.PilotCounts(abortingRedis(), opt)
	if len(counts) != 1 || counts[0] == 0 {
		t.Fatalf("aborted pilot counts %v, want one non-zero range", counts)
	}
	unbounded := explore.PilotCounts(abortingRedis(), explore.Options{Mode: explore.Random, Seed: 1})
	if counts[0] >= unbounded[0] {
		t.Fatalf("op limit did not abort the pilot: %v vs unbounded %v", counts, unbounded)
	}
	res := explore.Run(abortingRedis(), opt)
	if len(res.Violations) == 0 {
		t.Fatalf("aborted pilot (counts %v): no violation in %d executions", counts, res.Executions)
	}
	t.Logf("pilot counts %v (unbounded %v): %d violations", counts, unbounded, len(res.Violations))
}

// TestPilotCommitsImmediately pins that the pilot ignores the model's
// DelayedCommit: crash ranges are sized from the immediate-commit run,
// as the StoreBuffers path always did. Delayed commit would change them
// (buffered stores are lost at the crash, so recovery takes another
// path), so the test also checks that a full delayed-commit pilot
// differs somewhere, or it would prove nothing.
func TestPilotCommitsImmediately(t *testing.T) {
	differs := false
	for _, prog := range pilotPrograms(t) {
		for seed := int64(1); seed <= 3; seed++ {
			immediate := explore.PilotCounts(prog, explore.Options{Mode: explore.Random, Seed: seed})
			delayed := explore.PilotCounts(prog, explore.Options{
				Mode: explore.Random, Seed: seed, Model: persist.Config{DelayedCommit: true},
			})
			if !reflect.DeepEqual(immediate, delayed) {
				t.Fatalf("%s seed %d: DelayedCommit changed the pilot counts: %v vs %v", prog.Name(), seed, delayed, immediate)
			}
			full, _ := fullPilotCounts(prog, persist.Config{DelayedCommit: true}, seed, 0)
			if !reflect.DeepEqual(full, immediate) {
				differs = true
			}
		}
	}
	if !differs {
		t.Fatal("a delayed-commit pilot never differed from an immediate one; the test covers nothing")
	}
}
