package repro

// Equivalence tests for the model-check prefix snapshots: snapshots on
// vs off must be bit-identical — same violation keys, same
// execution/abort/quarantine counts, and the same observable heap in
// every execution (pinned by digesting every recovery-phase read) — on
// every persistency-model backend, every benchmark port and every
// shipped litmus program. Each test also requires that snapshots were
// actually restored, so a reduction that silently stopped engaging
// cannot pass as equivalent.
//
// Together with determinism_test.go (which exercises both settings)
// these are the safety net that lets snapshots default to on.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/benchmarks/bench"
	"repro/internal/explore"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/memmodel"
	"repro/internal/persist"
	"repro/internal/pmem"
)

// assertSameReducedOutcome compares everything a reduction is not
// allowed to change.
func assertSameReducedOutcome(t *testing.T, label string, on, off *explore.Result) {
	t.Helper()
	if !reflect.DeepEqual(on.ViolationKeys(), off.ViolationKeys()) {
		t.Fatalf("%s: ViolationKeys differ\n  on:  %v\n  off: %v", label, on.ViolationKeys(), off.ViolationKeys())
	}
	if on.Executions != off.Executions {
		t.Fatalf("%s: Executions %d vs %d", label, on.Executions, off.Executions)
	}
	if on.ExecutionsToAllBugs != off.ExecutionsToAllBugs {
		t.Fatalf("%s: ExecutionsToAllBugs %d vs %d", label, on.ExecutionsToAllBugs, off.ExecutionsToAllBugs)
	}
	if on.Aborted != off.Aborted || on.Quarantined != off.Quarantined {
		t.Fatalf("%s: Aborted/Quarantined (%d/%d) vs (%d/%d)",
			label, on.Aborted, on.Quarantined, off.Aborted, off.Quarantined)
	}
}

// digestProgram is a two-phase program whose recovery phase digests
// every value it reads into the collector, so two runs can compare the
// exact heap state each execution observed. The phases touch several
// cache lines with deliberately missing flushes, giving the search real
// branching on every backend.
func digestProgram(digests *[]uint64, mu *sync.Mutex) explore.Program {
	words := []memmodel.Addr{0x2000, 0x2008, 0x2040, 0x3000, 0x3040}
	return &explore.FuncProgram{
		ProgName: "digest",
		PhaseFns: []func(*pmem.World){
			func(w *pmem.World) {
				th := w.Thread(0)
				th.Store(words[0], 1, "x=1")
				th.Store(words[1], 2, "y=2") // same line as x, no flush
				th.Flush(words[0], "flush x")
				th.SFence("fence")
				th.Store(words[2], 3, "z=3") // own line, no flush
				th.Store(words[3], 4, "c=4")
				th.Flush(words[3], "flush c")
				th.Store(words[4], 5, "d=5")
			},
			func(w *pmem.World) {
				th := w.Thread(0)
				var h uint64 = 14695981039346656037
				for _, a := range words {
					v := th.Load(a, "recovery read")
					h = (h ^ uint64(v)) * 1099511628211
				}
				mu.Lock()
				*digests = append(*digests, h)
				mu.Unlock()
			},
		},
	}
}

// twoCrashDigestProgram is digestProgram's three-phase sibling: phase 1
// reads what survived the first crash and persists (part of) what it
// read, so the second crash's snapshot holds state derived from phase
// 1's read choices. The digest taken in phase 2 folds in those derived
// words, which makes a restore from a stale second-crash snapshot — one
// whose phase-1 reads a backtrack has since changed — visible. All
// cross-phase state flows through persistent memory, so the phases stay
// world-pure.
func twoCrashDigestProgram(digests *[]uint64, mu *sync.Mutex) explore.Program {
	src := []memmodel.Addr{0x2000, 0x2008, 0x2040}
	derived := []memmodel.Addr{0x4000, 0x4040}
	return &explore.FuncProgram{
		ProgName: "digest-two-crash",
		PhaseFns: []func(*pmem.World){
			func(w *pmem.World) {
				th := w.Thread(0)
				th.Store(src[0], 1, "x=1")
				th.Store(src[1], 2, "y=2") // same line as x, no flush
				th.Flush(src[0], "flush x")
				th.SFence("fence")
				th.Store(src[2], 3, "z=3") // own line, no flush
			},
			func(w *pmem.World) {
				th := w.Thread(0)
				a := th.Load(src[1], "read y")
				b := th.Load(src[2], "read z")
				th.Store(derived[0], a+10, "u=y+10")
				th.Flush(derived[0], "flush u")
				th.SFence("fence u")
				th.Store(derived[1], b+20, "v=z+20") // no flush
			},
			func(w *pmem.World) {
				th := w.Thread(0)
				var h uint64 = 14695981039346656037
				for _, a := range append(append([]memmodel.Addr(nil), src...), derived...) {
					v := th.Load(a, "recovery read")
					h = (h ^ uint64(v)) * 1099511628211
				}
				mu.Lock()
				*digests = append(*digests, h)
				mu.Unlock()
			},
		},
	}
}

// TestSnapshotEquivalenceAcrossModels: DisableSnapshots must not change
// any observable part of a model-check campaign on any backend — and in
// particular every execution must read the same heap whether it was
// replayed from the program start or resumed from a restored crash
// snapshot. The two-crash program must restore on every backend.
func TestSnapshotEquivalenceAcrossModels(t *testing.T) {
	programs := []struct {
		name  string
		build func(*[]uint64, *sync.Mutex) explore.Program
	}{
		{"digest", digestProgram},
		{"digest-two-crash", twoCrashDigestProgram},
	}
	for _, model := range persist.Names() {
		model := model
		t.Run(model, func(t *testing.T) {
			for _, prog := range programs {
				label := model + "/" + prog.name
				run := func(disable bool) (*explore.Result, []uint64) {
					var digests []uint64
					var mu sync.Mutex
					res := explore.Run(prog.build(&digests, &mu), explore.Options{
						Mode: explore.ModelCheck, Executions: 5000, Workers: 1,
						Model:            persist.Config{Name: model},
						DisableSnapshots: disable,
					})
					return res, digests
				}
				on, onDigests := run(false)
				off, offDigests := run(true)
				assertSameReducedOutcome(t, label, on, off)
				// Workers:1 collects executions in canonical order, so the
				// digest streams must match element for element.
				if !reflect.DeepEqual(onDigests, offDigests) {
					t.Fatalf("%s: heap digests diverge (%d vs %d executions)\n  on:  %v\n  off: %v",
						label, len(onDigests), len(offDigests), onDigests, offDigests)
				}
				if off.SnapshotRestores != 0 {
					t.Fatalf("%s: disabled run reports %d snapshot restores", label, off.SnapshotRestores)
				}
				if prog.name == "digest-two-crash" && on.SnapshotRestores == 0 {
					t.Fatalf("%s: snapshots never restored — the equivalence proves nothing", label)
				}
			}
		})
	}
}

// TestSnapshotEquivalenceOnBenchmarks runs the same A/B on the real
// benchmark ports at both worker counts the determinism suite pins.
// Every port must restore at least one snapshot at each worker count,
// or its equivalence proves nothing.
func TestSnapshotEquivalenceOnBenchmarks(t *testing.T) {
	execs := scaled(400)
	for _, b := range benchmarks.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			for _, workers := range []int{1, 8} {
				opt := explore.Options{Mode: explore.ModelCheck, Executions: execs, Workers: workers}
				on := explore.Run(b.Build(bench.Buggy), opt)
				opt.DisableSnapshots = true
				off := explore.Run(b.Build(bench.Buggy), opt)
				assertSameReducedOutcome(t, b.Name, on, off)
				if on.SnapshotRestores == 0 {
					t.Fatalf("workers=%d: no snapshot restored — the equivalence proves nothing", workers)
				}
			}
		})
	}
}

// TestSnapshotEquivalenceOnLitmusPrograms runs the A/B on every shipped
// .pm litmus program at one and four workers. twocrash.pm has two
// pre-crash phases, so its searches restore snapshots taken after the
// second crash with the first crash's snapshot still live below them;
// it must restore at least once, and so must threaded-recovery.pm,
// whose restored executions go on to draw a two-thread schedule.
func TestSnapshotEquivalenceOnLitmusPrograms(t *testing.T) {
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
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
			for _, workers := range []int{1, 4} {
				opt := explore.Options{Mode: explore.ModelCheck, Executions: 20000, Workers: workers}
				on := explore.Run(interp.New(name, prog), opt)
				opt.DisableSnapshots = true
				off := explore.Run(interp.New(name, prog), opt)
				assertSameReducedOutcome(t, name, on, off)
				if (name == "twocrash.pm" || name == "threaded-recovery.pm") && on.SnapshotRestores == 0 {
					t.Fatalf("workers=%d: the multi-crash program restored no snapshot", workers)
				}
			}
		})
	}
}

// TestThreadedRecoveryEquivalence: on a program whose post-crash phase
// draws a two-thread schedule from the world's random source, snapshots
// on or off, the state cache on or off, and one or four workers all
// report the same violations, in full. The snapshot must carry the
// source's position: a restored execution that drew from wherever the
// previous execution left the source would schedule phase 1 differently
// from a full replay and find a different witness.
func TestThreadedRecoveryEquivalence(t *testing.T) {
	const name = "threaded-recovery.pm"
	prog := loadProgram(t, name)
	run := func(opt explore.Options) *explore.Result {
		opt.Mode, opt.Executions, opt.Provenance = explore.ModelCheck, 20000, true
		return explore.Run(interp.New(name, prog), opt)
	}
	base := run(explore.Options{Workers: 1, DisableSnapshots: true})
	if len(base.Violations) == 0 {
		t.Fatal("replayed search found no violation — the comparison proves nothing")
	}
	for _, workers := range []int{1, 4} {
		label := fmt.Sprintf("workers=%d", workers)
		snap := run(explore.Options{Workers: workers})
		if snap.SnapshotRestores == 0 {
			t.Fatalf("%s: no snapshot restored — the comparison proves nothing", label)
		}
		assertSameReports(t, label+" snapshots on vs off", snap, base)
		assertSameReports(t, label+" snapshots off", run(explore.Options{Workers: workers, DisableSnapshots: true}), base)
		// The cache prunes executions, so only the reports must match.
		noCache := run(explore.Options{Workers: workers, NoStateCache: true})
		if len(noCache.Violations) != len(base.Violations) {
			t.Fatalf("%s: state cache off reports %d violations, on %d", label, len(noCache.Violations), len(base.Violations))
		}
		for i, v := range noCache.Violations {
			if w := base.Violations[i]; v.String() != w.String() || v.Prov.Narrative() != w.Prov.Narrative() {
				t.Fatalf("%s: state cache off renders violation %d differently:\n%s\nvs:\n%s", label, i, v, w)
			}
		}
	}
}
