package pmem

import (
	"math"
	"math/rand"
	"testing"
)

// sameStream draws n values from each generator through a mix of the
// rand.Rand methods callers use (Int63, Uint64, Intn, Float64, Perm),
// failing on the first difference.
func sameStream(t *testing.T, label string, got, want *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		var g, w any
		switch i % 5 {
		case 0:
			g, w = got.Int63(), want.Int63()
		case 1:
			g, w = got.Uint64(), want.Uint64()
		case 2:
			bound := 1 + i%1000
			g, w = got.Intn(bound), want.Intn(bound)
		case 3:
			g, w = got.Float64(), want.Float64()
		case 4:
			a, b := got.Perm(1+i%7), want.Perm(1+i%7)
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("%s: draw %d: Perm %v, math/rand %v", label, i, a, b)
				}
			}
			continue
		}
		if g != w {
			t.Fatalf("%s: draw %d: got %v, math/rand %v", label, i, g, w)
		}
	}
}

// edgeSeeds exercise math/rand's seed normalisation: the modulus and its
// multiples (normalised to 0, hence 89482311), sign wrapping, and the
// int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, 2, int32max - 1, int32max, -int32max, int32max + 1, -(int32max + 1),
	2 * int32max, -2 * int32max, 7 * int32max, 1 << 31, 1 << 32,
	math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
	89482311, -89482311,
}

// testSeeds returns the edge seeds, the random-mode execution seeds
// (Seed + exec·2654435761) for a few campaign seeds, and a spread of
// arbitrary ones.
func testSeeds() []int64 {
	seeds := append([]int64(nil), edgeSeeds...)
	for _, base := range []int64{0, 1, 7, 11, -3} {
		for exec := int64(0); exec < 200; exec++ {
			seeds = append(seeds, base+exec*2654435761)
		}
	}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// TestSourceMatchesMathRand: rngSource is math/rand's source bit for
// bit — for fresh sources, after reseeding mid-stream (at register
// boundaries: the tap 273, the feed start 334, one full lap 607 and
// past it, and past the lazy-fill switch), and across a wrap of the
// generation counter.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := testSeeds()
	for _, seed := range seeds {
		sameStream(t, "fresh", rand.New(newRNGSource(seed)), rand.New(rand.NewSource(seed)), 1500)
	}

	got, want := rand.New(newRNGSource(5)), rand.New(rand.NewSource(5))
	for i, seed := range seeds {
		k := []int{0, 1, lazyDraws - 1, lazyDraws, 273, 334, 607, 608, 1500}[i%9]
		for j := 0; j < k; j++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: pre-reseed draw %d: %d vs %d", seed, j, g, w)
			}
		}
		got.Seed(seed)
		want.Seed(seed)
		sameStream(t, "reseeded", got, want, 700)
	}

	// A full cycle of the 16-bit generation counter: without the clear
	// on wrap, words stamped 65,536 seedings ago would read as current.
	src := newRNGSource(3)
	got = rand.New(src)
	got.Int63() // stamp words 606 and 333 in this generation
	for i := 0; i < 1<<16; i++ {
		got.Seed(int64(i))
	}
	want = rand.New(rand.NewSource(1<<16 - 1))
	sameStream(t, "after a generation cycle", got, want, 700)

	// And the step across the wrap itself.
	src.gen = math.MaxUint16 - 1
	for _, seed := range []int64{10, 11, 12, 13} {
		got.Seed(seed)
		want.Seed(seed)
		sameStream(t, "across the wrap", got, want, 100)
	}
	if src.gen != 3 {
		t.Fatalf("generation %d after wrapping, want 3", src.gen)
	}
}

// materialised counts the register words computed for the current
// seeding.
func (s *rngSource) materialised() int {
	n := 0
	for _, g := range s.stamp {
		if g == s.gen {
			n++
		}
	}
	return n
}

// TestResetSeedsLazily: the O(1) reseed engages. After World.Reset no
// register word is computed, and k draws compute at most 2k of them
// until the lazy-fill switch. An eager fill fails this test.
func TestResetSeedsLazily(t *testing.T) {
	w := NewWorld(Config{Seed: 1, CrashTarget: -1})
	for k := 0; k < lazyDraws; k++ {
		w.Reset(int64(k) * 2654435761)
		if n := w.src.materialised(); n != 0 {
			t.Fatalf("%d register words materialised right after Reset", n)
		}
		for j := 0; j < k; j++ {
			w.src.Uint64()
		}
		if n := w.src.materialised(); n > 2*k {
			t.Fatalf("%d draws materialised %d register words, want at most %d", k, n, 2*k)
		}
	}
	w.src.skip(1)
	if n := w.src.materialised(); n != rngLen {
		t.Fatalf("%d register words after %d draws, want the full %d", n, lazyDraws, rngLen)
	}
}

// TestRestoreRewindsRandomSource: a restored world draws the stream it
// drew after the snapshot was taken, however far it drew since.
func TestRestoreRewindsRandomSource(t *testing.T) {
	for _, before := range []int{0, 3, lazyDraws + 10, 700} {
		w := NewWorld(Config{Seed: 9, CrashTarget: -1})
		w.src.skip(before)
		w.Crash()
		snap := w.Snapshot()
		first := make([]int, 50)
		for i := range first {
			first[i] = w.Rand().Intn(1000)
		}
		w.Rand().Perm(500) // draw well past the register length
		w.Restore(snap)
		for i, want := range first {
			if got := w.Rand().Intn(1000); got != want {
				t.Fatalf("%d draws before snapshot: draw %d after Restore = %d, want %d", before, i, got, want)
			}
		}
	}
}

var sinkInt int

// BenchmarkWorldReset measures the per-execution random-source cost of
// random mode (a Reset followed by the handful of draws a typical
// execution makes) and the steady-state cost of one draw.
func BenchmarkWorldReset(b *testing.B) {
	b.Run("reset+5draws", func(b *testing.B) {
		w := NewWorld(Config{Seed: 1, CrashTarget: -1})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Reset(int64(i) * 2654435761)
			for j := 0; j < 5; j++ {
				sinkInt += w.Rand().Intn(16)
			}
		}
	})
	b.Run("intn", func(b *testing.B) {
		w := NewWorld(Config{Seed: 1, CrashTarget: -1})
		r := w.Rand()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkInt += r.Intn(16)
		}
	})
}
