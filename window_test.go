package repro

// Windowed-equivalence property suite: bounded-window (streaming)
// checking must be a pure memory optimization. A window forces the
// history-reaching reductions off (snapshots and the post-crash state
// cache — their replays and keys cover retired records), so every comparison here
// pins the baseline to the same reduction settings and then demands the
// windowed run be observationally identical: same violation key set,
// same execution counts, and the same heap digest in every execution.
//
// The suite covers the digest program on every registered persistency
// backend, the whole shipped .pm litmus corpus, and the paper's worked
// scenarios — with windows small enough that retirement actually runs
// on these short traces (and the tests assert that it did).

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/explore"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/litmus"
	"repro/internal/persist"
)

// unreducedOpts returns model-check options with every reduction a
// window would force off already disabled, so windowed and unbounded
// runs explore the identical schedule stream.
func unreducedOpts(model string, window, execs int) explore.Options {
	return explore.Options{
		Mode:             explore.ModelCheck,
		Executions:       execs,
		Workers:          1,
		Model:            persist.Config{Name: model, Window: window},
		DisableSnapshots: true,
		NoStateCache:     true,
	}
}

// TestWindowEquivalenceAcrossModels: on every backend, a windowed
// model-check campaign of the digest program must match the unbounded
// campaign bit for bit — violation keys, execution counts, and the
// per-execution heap digests (every recovery-phase read folded into a
// hash). Window 4 is far below the program's trace length, so every
// execution runs multiple retirement sweeps.
func TestWindowEquivalenceAcrossModels(t *testing.T) {
	for _, model := range persist.Names() {
		model := model
		t.Run(model, func(t *testing.T) {
			run := func(window int) (*explore.Result, []uint64) {
				var digests []uint64
				var mu sync.Mutex
				res := explore.Run(digestProgram(&digests, &mu), unreducedOpts(model, window, 5000))
				return res, digests
			}
			bounded, bDigests := run(4)
			unbounded, uDigests := run(0)
			assertSameReducedOutcome(t, model, bounded, unbounded)
			if !reflect.DeepEqual(bDigests, uDigests) {
				t.Fatalf("%s: heap digests diverge (%d vs %d executions)\n  windowed:  %v\n  unbounded: %v",
					model, len(bDigests), len(uDigests), bDigests, uDigests)
			}
			if bounded.Retirements == 0 {
				t.Fatalf("%s: windowed campaign reports zero retirements — window machinery never engaged", model)
			}
			if unbounded.Retirements != 0 {
				t.Fatalf("%s: unbounded campaign reports %d retirements", model, unbounded.Retirements)
			}
		})
	}
}

// TestWindowEquivalenceOnLitmusPrograms: on every shipped .pm litmus
// program, the windowed search must report exactly the unbounded
// search's violation key set and execution count.
func TestWindowEquivalenceOnLitmusPrograms(t *testing.T) {
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	var retired int64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".pm") {
			continue
		}
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("testdata", name))
			if err != nil {
				t.Fatal(err)
			}
			prog, err := lang.Parse(string(src))
			if err != nil {
				t.Fatal(err)
			}
			bounded := explore.Run(interp.New(name, prog), unreducedOpts("", 4, 20000))
			unbounded := explore.Run(interp.New(name, prog), unreducedOpts("", 0, 20000))
			assertSameReducedOutcome(t, name, bounded, unbounded)
			retired += bounded.Retirements
		})
	}
	if retired == 0 {
		t.Fatal("no litmus program triggered a retirement sweep — window machinery never engaged")
	}
}

// TestWindowedLitmusScenarioVerdicts: the paper's worked scenarios must
// keep their pinned verdicts under a bounded window on every backend.
func TestWindowedLitmusScenarioVerdicts(t *testing.T) {
	for _, model := range persist.Names() {
		for _, s := range litmus.Scenarios() {
			model, s := model, s
			t.Run(model+"/"+s.Name, func(t *testing.T) {
				cfg := persist.Config{Name: model, Window: 4}
				violations := s.RunModel(io.Discard, cfg)
				if got, want := len(violations) > 0, s.Expect(cfg); got != want {
					t.Fatalf("%s under %s window=4: violation=%v, want %v", s.Name, model, got, want)
				}
			})
		}
	}
}
