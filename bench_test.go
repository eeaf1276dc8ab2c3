package repro

// Benchmark harness: one target per table of the paper's evaluation
// (§6), plus micro-benchmarks for the checker's own costs. The table
// benchmarks wrap the same report-package runs that cmd/psan-bench
// renders, so `go test -bench .` regenerates every number.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/benchmarks/bench"
	"repro/internal/benchmarks/redislog"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/intervals"
	"repro/internal/lang"
	"repro/internal/litmus"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/pmem"
	"repro/internal/px86"
	"repro/internal/repair"
	"repro/internal/report"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// BenchmarkTable1Comparison measures the live tool-comparison demo:
// the two litmus traces checked by every approach.
func BenchmarkTable1Comparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := report.Table1()
		if !rows[0].FindsCommit || !rows[0].FindsFig7 {
			b.Fatal("PSan row regressed")
		}
	}
}

// BenchmarkTable2BugDetection measures full bug detection per benchmark
// port: one exploration campaign (the port's preferred mode and budget)
// per iteration, reporting bugs found per campaign.
func BenchmarkTable2BugDetection(b *testing.B) {
	for _, bm := range benchmarks.All() {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			var found int
			for i := 0; i < b.N; i++ {
				res := explore.Run(bm.Build(bench.Buggy), explore.Options{
					Mode:       bm.PreferredMode,
					Executions: bm.Executions,
					Seed:       int64(i + 1),
				})
				covered, _ := bench.MatchExpected(bm.Expected, res.Violations)
				found = len(covered)
			}
			b.ReportMetric(float64(found), "bugs/campaign")
		})
	}
}

// BenchmarkTable3PSan and BenchmarkTable3Jaaru measure the per-execution
// cost of random exploration with the robustness checker on (PSan) and
// off (Jaaru, the bare simulator) — the paper's Table 3 columns. The
// reproduced claim is the ratio ≈ 1.
func BenchmarkTable3PSan(b *testing.B) {
	benchTable3(b, false)
}

// BenchmarkTable3Jaaru is the checker-off baseline.
func BenchmarkTable3Jaaru(b *testing.B) {
	benchTable3(b, true)
}

func benchTable3(b *testing.B, disableChecker bool) {
	const perRun = 20
	for _, bm := range benchmarks.Indexes() {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				explore.Run(bm.Build(bench.Buggy), explore.Options{
					Mode:           explore.Random,
					Executions:     perRun,
					Seed:           int64(i + 1),
					DisableChecker: disableChecker,
					// Both sides use the plain read policy so the delta
					// is exactly the checker's constraint maintenance
					// (the paper's Table 3 methodology).
					NoSteering: true,
				})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perRun), "ns/execution")
		})
	}
}

// BenchmarkExploreParallel measures random-mode throughput of the
// worker pool on FAST_FAIR at 1/2/4/8 workers. The results are
// identical at every width (see determinism_test.go); only wall-clock
// changes, and only on multi-core hardware.
func BenchmarkExploreParallel(b *testing.B) {
	bm := benchmarks.ByName("FAST_FAIR")
	if bm == nil {
		b.Fatal("FAST_FAIR not registered")
	}
	const perRun = 100
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := explore.Run(bm.Build(bench.Buggy), explore.Options{
					Mode:       explore.Random,
					Executions: perRun,
					Seed:       int64(i + 1),
					Workers:    workers,
				})
				if res.Executions != perRun {
					b.Fatalf("ran %d executions, want %d", res.Executions, perRun)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perRun), "ns/execution")
		})
	}
}

// BenchmarkExploreModelCheckParallel measures model-check throughput
// of the work-stealing scheduler on the CCEH and FAST_FAIR ports at
// 1/2/4/8 workers. Every width assembles the identical canonical
// stream (see TestStealDeterminismModelCheck); only wall-clock
// changes, and only on multi-core hardware — on one core the wider
// rows price the scheduler's overhead instead. The steal=off rows are
// the -steal=false A/B: one pinned unit per crash-target subtree.
func BenchmarkExploreModelCheckParallel(b *testing.B) {
	for _, name := range []string{"CCEH", "FAST_FAIR"} {
		bm := benchmarks.ByName(name)
		if bm == nil {
			b.Fatalf("%s not registered", name)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			workers := workers
			b.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res := explore.Run(bm.Build(bench.Buggy), explore.Options{
						Mode:       explore.ModelCheck,
						Executions: 200,
						Workers:    workers,
					})
					if res.Executions == 0 {
						b.Fatal("no executions ran")
					}
				}
			})
		}
		b.Run(fmt.Sprintf("%s/workers=8/steal=off", name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := explore.Run(bm.Build(bench.Buggy), explore.Options{
					Mode:            explore.ModelCheck,
					Executions:      200,
					Workers:         8,
					DisableStealing: true,
				})
				if res.Executions == 0 {
					b.Fatal("no executions ran")
				}
			}
		})
	}
}

// BenchmarkExploreRandomSerial measures one serial (Workers=1)
// random-mode campaign per iteration on a few registered benchmarks.
// Run with -benchmem: allocs/op is the hot-path health metric the
// allocation-free steady-state work (location interning, event arenas,
// machine/trace reuse) is measured by.
func BenchmarkExploreRandomSerial(b *testing.B) {
	for _, name := range []string{"CCEH", "FAST_FAIR", "P-CLHT"} {
		bm := benchmarks.ByName(name)
		if bm == nil {
			b.Fatalf("%s not registered", name)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := explore.Run(bm.Build(bench.Buggy), explore.Options{
					Mode:       explore.Random,
					Executions: 50,
					Seed:       7,
					Workers:    1,
				})
				if res.Executions != 50 {
					b.Fatalf("ran %d executions, want 50", res.Executions)
				}
			}
		})
	}
}

// BenchmarkRandomPilot measures the random-mode pilot, which sizes the
// crash-point ranges before any execution runs, on one stream of the
// perfbench stream-redis workload: the fixed redislog port driven by
// 2,000 requests at trace window 64. The campaign's context is canceled
// up front, so each iteration plans the campaign and runs no execution.
func BenchmarkRandomPilot(b *testing.B) {
	prog := redislog.BuildWorkload(bench.Fixed, workload.Config{
		Seed: 100, Ops: 2000, Keys: 512, ZipfS: 1.2, ReadPct: 85, Threads: 2,
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := explore.Run(prog, explore.Options{
			Mode: explore.Random, Executions: 1, Seed: 100, Workers: 1,
			Model: persist.Config{Window: 64}, OpLimit: 2000*64 + 4096, Context: ctx,
		})
		if res.Executions != 0 {
			b.Fatalf("ran %d executions, want only the pilot", res.Executions)
		}
	}
}

// BenchmarkExploreModelCheckSerial is the exhaustive-mode counterpart of
// BenchmarkExploreRandomSerial: one capped serial DFS per iteration.
func BenchmarkExploreModelCheckSerial(b *testing.B) {
	for _, name := range []string{"CCEH", "FAST_FAIR"} {
		bm := benchmarks.ByName(name)
		if bm == nil {
			b.Fatalf("%s not registered", name)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := explore.Run(bm.Build(bench.Buggy), explore.Options{
					Mode:       explore.ModelCheck,
					Executions: 200,
					Workers:    1,
				})
				if res.Executions == 0 {
					b.Fatal("no executions ran")
				}
			}
		})
	}
}

// BenchmarkExploreObservability measures the telemetry tax on the
// serial random campaign of BenchmarkExploreRandomSerial (FAST_FAIR):
// `off` (nil observer) and `empty-observer` (non-nil observer, nil
// sinks — the flags-parsed-but-unused shape) must be allocation-
// identical (TestObservabilityDisabledAllocIdentity asserts it), while
// the enabled rows price the metrics registry alone and the full stack
// (registry + span tracer + provenance capture) separately.
func BenchmarkExploreObservability(b *testing.B) {
	bm := benchmarks.ByName("FAST_FAIR")
	if bm == nil {
		b.Fatal("FAST_FAIR not registered")
	}
	for _, cfg := range []struct {
		name     string
		observer func() *obs.Observer
		prov     bool
	}{
		{"off", func() *obs.Observer { return nil }, false},
		{"empty-observer", func() *obs.Observer { return &obs.Observer{} }, false},
		{"metrics", func() *obs.Observer {
			return &obs.Observer{Metrics: obs.NewRegistry()}
		}, false},
		{"metrics+trace+provenance", func() *obs.Observer {
			return &obs.Observer{Metrics: obs.NewRegistry(), Tracer: obs.NewTracer()}
		}, true},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := explore.Run(bm.Build(bench.Buggy), explore.Options{
					Mode:       explore.Random,
					Executions: 50,
					Seed:       7,
					Workers:    1,
					Obs:        cfg.observer(),
					Provenance: cfg.prov,
				})
				if res.Executions != 50 {
					b.Fatalf("ran %d executions, want 50", res.Executions)
				}
			}
		})
	}
}

// BenchmarkStateCache measures model checking on FAST_FAIR with the
// post-crash state cache on and off: the cached run prunes sub-DFS
// subtrees whose surviving persistent image was already explored.
func BenchmarkStateCache(b *testing.B) {
	bm := benchmarks.ByName("FAST_FAIR")
	if bm == nil {
		b.Fatal("FAST_FAIR not registered")
	}
	const cap = 400
	for _, cfg := range []struct {
		name    string
		noCache bool
	}{{"on", false}, {"off", true}} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			var hits, misses int
			for i := 0; i < b.N; i++ {
				res := explore.Run(bm.Build(bench.Buggy), explore.Options{
					Mode:         explore.ModelCheck,
					Executions:   cap,
					Workers:      1,
					NoStateCache: cfg.noCache,
				})
				hits, misses = res.CacheHits, res.CacheMisses
			}
			b.ReportMetric(float64(hits), "cache-hits")
			b.ReportMetric(float64(misses), "cache-misses")
		})
	}
}

// BenchmarkLitmusSuite measures the full figure suite (the paper's
// worked examples) end to end.
func BenchmarkLitmusSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, sc := range litmus.Scenarios() {
			vs := sc.Run(discard{})
			if (len(vs) > 0) != sc.WantViolation {
				b.Fatalf("%s verdict regressed", sc.Name)
			}
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// --- micro-benchmarks ---

// BenchmarkPx86StoreFlushCrashRead measures the simulator's core loop:
// store, flush, crash, candidate enumeration, read.
func BenchmarkPx86StoreFlushCrashRead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := px86.New(px86.Config{})
		m.Store(0, 0x1000, 1, m.Intern("s"))
		m.Flush(0, 0x1000, m.Intern("f"))
		m.Crash()
		c := m.LoadCandidates(0, 0x1000)
		m.Load(0, 0x1000, c[0], m.Intern("r"))
	}
}

// BenchmarkCheckerObserveRead measures the LOAD-PREV constraint update
// on a cross-crash read — the per-load cost PSan adds over the
// simulator.
func BenchmarkCheckerObserveRead(b *testing.B) {
	w := pmem.NewWorld(pmem.Config{CrashTarget: -1})
	th := w.Thread(0)
	for i := 0; i < 64; i++ {
		th.Store(memmodel.Addr(0x1000+64*i), memmodel.Value(i), "s")
	}
	w.Crash()
	cands := w.M.LoadCandidates(0, 0x1000)
	rf := cands[0].Store
	checker := core.New(w.M.Trace())
	benchLoc := w.M.Intern("bench read")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checker.CheckRead(0, 0x1000, rf, benchLoc)
	}
}

// BenchmarkVClockJoin measures the happens-before lattice operation.
func BenchmarkVClockJoin(b *testing.B) {
	x := vclock.Bottom().Inc(0).Inc(1).Inc(2).Inc(3)
	y := vclock.Bottom().Inc(2).Inc(3).Inc(4).Inc(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Join(y)
	}
}

// BenchmarkIntervalConstrain measures the crash-interval conjunction.
func BenchmarkIntervalConstrain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		iv := intervals.New()
		iv, _ = iv.ConstrainLo(5, nil)
		iv, _ = iv.ConstrainHi(9, nil)
		if iv.Empty() {
			b.Fatal("should be satisfiable")
		}
	}
}

// BenchmarkLangParse measures the Figure 9 front end.
func BenchmarkLangParse(b *testing.B) {
	src := `
phase {
  thread 0 {
    x = 1;
    flushopt x;
    sfence;
    let r = cas(x, 1, 2);
    repeat 4 { faa(y, r); }
    if (r == 1) { y = 2; } else { y = 3; }
  }
}
phase { thread 0 { let s = load(y); assert(s > 0); } }`
	for i := 0; i < b.N; i++ {
		if _, err := lang.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelCheckFigure2 measures the exhaustive exploration of the
// paper's smallest non-robust program.
func BenchmarkModelCheckFigure2(b *testing.B) {
	prog := &explore.FuncProgram{
		ProgName: "fig2",
		PhaseFns: []func(*pmem.World){
			func(w *pmem.World) {
				th := w.Thread(0)
				th.Store(0x1000, 1, "x=1")
				th.Store(0x2000, 1, "y=1")
				th.Store(0x1000, 2, "x=2")
				th.Store(0x2000, 2, "y=2")
			},
			func(w *pmem.World) {
				th := w.Thread(0)
				th.Load(0x1000, "r1=x")
				th.Load(0x2000, "r2=y")
			},
		},
	}
	for i := 0; i < b.N; i++ {
		res := explore.Run(prog, explore.Options{Mode: explore.ModelCheck, Executions: 10000})
		if len(res.Violations) == 0 {
			b.Fatal("figure 2 bug regressed")
		}
	}
}

// BenchmarkAblations measures the §4.2 ablations against the full
// algorithm on the benchmark suite: the run cost is similar, but the
// naïve variants get the litmus verdicts wrong (see
// internal/core/ablation_test.go); this target tracks their costs so
// the full algorithm's overhead is visibly justified.
func BenchmarkAblations(b *testing.B) {
	configs := []struct {
		name string
		opt  core.Options
	}{
		{"full", core.Options{}},
		{"no-hb-closure", core.Options{NoHBClosure: true}},
		{"global-interval", core.Options{GlobalInterval: true}},
	}
	for _, cfg := range configs {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := px86.New(px86.Config{})
				ck := core.NewWithOptions(m.Trace(), cfg.opt)
				for j := 0; j < 32; j++ {
					m.Store(memmodel.ThreadID(j%2), memmodel.Addr(0x1000+64*(j%8)), memmodel.Value(j+1), m.Intern("s"))
				}
				m.Crash()
				for j := 0; j < 8; j++ {
					a := memmodel.Addr(0x1000 + 64*j)
					cands := m.LoadCandidates(0, a)
					m.Load(0, a, cands[0], m.Intern("r"))
					ck.ObserveRead(0, a, cands[0].Store, m.Intern("r"))
				}
			}
		})
	}
}

// BenchmarkRepairLoop measures the automated fix loop on Figure 2:
// explore, apply, re-explore until clean.
func BenchmarkRepairLoop(b *testing.B) {
	src := `
phase {
  thread 0 {
    x = 1;
    y = 1;
    x = 2;
    y = 2;
  }
}
phase {
  thread 0 {
    let r1 = load(x);
    let r2 = load(y);
  }
}`
	for i := 0; i < b.N; i++ {
		prog, err := lang.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		res, err := repair.Loop("fig2", prog, explore.Options{Mode: explore.ModelCheck, Executions: 10000}, 10)
		if err != nil || !res.Clean {
			b.Fatalf("repair failed: %v clean=%v", err, res != nil && res.Clean)
		}
	}
}

// BenchmarkOracleAgreement measures the Definition 2 ground-truth
// enumeration used to validate the checker.
func BenchmarkOracleAgreement(b *testing.B) {
	prog := &explore.FuncProgram{
		ProgName: "oracle-shape",
		PhaseFns: []func(*pmem.World){
			func(w *pmem.World) {
				th := w.Thread(0)
				for j := 0; j < 6; j++ {
					th.Store(memmodel.Addr(0x1000+64*(j%3)), memmodel.Value(j+1), "s")
				}
			},
			func(w *pmem.World) {
				th := w.Thread(0)
				for j := 0; j < 3; j++ {
					th.Load(memmodel.Addr(0x1000+64*j), "r")
				}
			},
		},
	}
	for i := 0; i < b.N; i++ {
		explore.Run(prog, explore.Options{Mode: explore.ModelCheck, Executions: 10000})
	}
}
