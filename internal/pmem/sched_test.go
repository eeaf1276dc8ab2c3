package pmem

import (
	"runtime"
	"testing"

	"repro/internal/memmodel"
)

// spawnTracked spawns one thread per body and counts how many bodies
// were entered and how many have unwound out of them; after RunThreads
// returns or panics the two counts must agree, so no thread is left
// parked mid-body.
func spawnTracked(w *World, entered, exited *int, bodies ...func(*Thread)) {
	for i, body := range bodies {
		w.Spawn(memmodel.ThreadID(i), func(th *Thread) {
			*entered++
			defer func() { *exited++ }()
			body(th)
		})
	}
}

// runUnwind runs RunThreads as a phase and returns the recovered panic
// value, if any.
func runUnwind(w *World) (r any) {
	defer func() { r = recover() }()
	w.RunThreads()
	return nil
}

// checkUnwound asserts that every entered body unwound and that no
// coroutine outlived RunThreads. The baseline is taken just before the
// threads are spawned; it may still count a goroutine the testing
// package is retiring, so only growth is a leak.
func checkUnwound(t *testing.T, seed int64, baseline, entered, exited int) {
	t.Helper()
	if entered != exited {
		t.Fatalf("seed %d: %d bodies entered, %d unwound", seed, entered, exited)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("seed %d: %d goroutines after RunThreads, %d before", seed, n, baseline)
	}
}

func storeLoop(n int, a memmodel.Addr) func(*Thread) {
	return func(th *Thread) {
		for i := 0; i < n; i++ {
			th.Store(a, memmodel.Value(i), "loop store")
		}
	}
}

func TestRunThreadsCrashAtFenceUnwindsAll(t *testing.T) {
	for seed := int64(0); seed < 16; seed++ {
		baseline := runtime.NumGoroutine()
		w := NewWorld(Config{CrashTarget: 2, Seed: seed})
		entered, exited := 0, 0
		fencer := func(th *Thread) {
			for i := 0; i < 4; i++ {
				th.Store(addrX, memmodel.Value(i), "x")
				th.SFence("sfence")
			}
		}
		spawnTracked(w, &entered, &exited, fencer, fencer, storeLoop(50, addrY))
		if r := runUnwind(w); r != (CrashSignal{}) {
			t.Fatalf("seed %d: RunThreads raised %v, want CrashSignal", seed, r)
		}
		if w.FenceOps() != 2 {
			t.Fatalf("seed %d: crash after %d fences, want 2", seed, w.FenceOps())
		}
		checkUnwound(t, seed, baseline, entered, exited)
	}
}

func TestRunThreadsOpBudgetAbortUnwindsAll(t *testing.T) {
	for seed := int64(0); seed < 16; seed++ {
		baseline := runtime.NumGoroutine()
		w := NewWorld(Config{CrashTarget: -1, Seed: seed, OpLimit: 40})
		entered, exited := 0, 0
		spin := func(th *Thread) {
			for {
				th.Load(addrX, "spin")
			}
		}
		spawnTracked(w, &entered, &exited, spin, spin, storeLoop(10, addrY))
		if _, ok := runUnwind(w).(AbortSignal); !ok {
			t.Fatalf("seed %d: RunThreads must raise AbortSignal", seed)
		}
		checkUnwound(t, seed, baseline, entered, exited)
	}
}

func TestRunThreadsReraisesForeignPanic(t *testing.T) {
	type boom struct{ msg string }
	for seed := int64(0); seed < 16; seed++ {
		baseline := runtime.NumGoroutine()
		w := NewWorld(Config{CrashTarget: -1, Seed: seed})
		entered, exited := 0, 0
		val := &boom{"port bug"}
		panicker := func(th *Thread) {
			th.Store(addrX, 1, "x")
			th.Store(addrX, 2, "x")
			panic(val)
		}
		spawnTracked(w, &entered, &exited, storeLoop(50, addrY), panicker, storeLoop(50, addrY+memmodel.CacheLineSize))
		if r := runUnwind(w); r != val {
			t.Fatalf("seed %d: RunThreads raised %v, want the body's own panic value", seed, r)
		}
		checkUnwound(t, seed, baseline, entered, exited)
	}
}
