package pmem

// The world's random source: math/rand's additive lagged-Fibonacci
// generator (a 607-word register, tap 273), reproduced bit for bit but
// reseeded in O(1).
//
// math/rand's Seed fills the register with 1,841 chained seedrand steps
// (x ← 48271·x mod 2³¹−1), about 11 µs, while a random-mode execution
// makes only a handful of draws. But step n of that chain is just
// x0·48271ⁿ mod 2³¹−1, so register word i, built from steps 21+3i,
// 22+3i and 23+3i, is a closed-form function of the normalised seed x0
// and needs none of the words before it. Seed therefore only records x0
// and bumps a generation counter; a word is computed on first touch and
// stamped with the generation. A draw touches two words, so an
// execution that draws k times materialises at most 2k. After
// lazyDraws draws the rest of the register is filled in one pass and
// draws stop checking stamps, keeping long streams at math/rand's
// per-draw cost.

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the seedrand modulus, a Mersenne prime

	// lazyDraws is how many draws after a Seed check stamps before the
	// register is filled and the unchecked path takes over.
	lazyDraws = 64
)

// rngPow[k] is 48271^(21+k) mod 2³¹−1: the multiplier that takes the
// normalised seed to the seedrand value word k/3 uses in position k%3.
var rngPow [3 * rngLen]uint64

func init() {
	x := uint64(1)
	for range 20 {
		x = mulMod31(x, 48271)
	}
	for k := range rngPow {
		x = mulMod31(x, 48271)
		rngPow[k] = x
	}
}

// mulMod31 returns a·b mod 2³¹−1 for a, b < 2³¹, folding the 62-bit
// product with 2³¹ ≡ 1.
func mulMod31(a, b uint64) uint64 {
	p := a * b
	p = p&int32max + p>>31
	p = p&int32max + p>>31
	if p >= int32max {
		p -= int32max
	}
	return p
}

// rngSource is a rand.Source64 whose every stream equals that of
// rand.NewSource with the same seed.
type rngSource struct {
	tap, feed int
	laps      int   // times tap wrapped since the last Seed; see draws
	lazy      bool  // stamps are checked: fewer than lazyDraws draws since Seed
	x0        int64 // normalised seed: Seed(x0) reproduces the current seeding
	// stamp[i] == gen marks vec[i] as materialised for the current
	// seeding; bumping gen invalidates the whole register at once.
	gen   uint16
	stamp [rngLen]uint16
	vec   [rngLen]int64
}

func newRNGSource(seed int64) *rngSource {
	s := &rngSource{}
	s.Seed(seed)
	return s
}

// Seed normalises seed exactly as math/rand does and invalidates the
// register in O(1).
func (s *rngSource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = seed
	s.laps = 0
	s.lazy = true
	s.gen++
	if s.gen == 0 {
		// Wrapped: stamps left from 65,536 seedings ago would read as
		// current.
		s.stamp = [rngLen]uint16{}
		s.gen = 1
	}
}

// draws returns the number of draws since the last Seed. tap starts at
// 0 and steps down once per draw, wrapping (and counting a lap) every
// rngLen draws.
func (s *rngSource) draws() int {
	return s.laps*rngLen - s.tap
}

// skip advances the source by n draws.
func (s *rngSource) skip(n int) {
	for range n {
		s.Uint64()
	}
}

// Int63 returns a non-negative pseudo-random 63-bit integer. It
// repeats Uint64's dispatch rather than calling it, which the compiler
// would not inline, so a steady-state draw stays one call deep.
func (s *rngSource) Int63() int64 {
	if s.lazy {
		return int64(s.lazyStep() & rngMask)
	}
	return int64(s.step() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit integer.
func (s *rngSource) Uint64() uint64 {
	if s.lazy {
		return s.lazyStep()
	}
	return s.step()
}

// step is one draw of the lagged-Fibonacci recurrence on a register
// whose tap and feed words are materialised.
func (s *rngSource) step() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
		s.laps++
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// lazyStep is a draw while stamps are checked: it materialises the two
// words the draw reads, and at the lazyDraws-th draw the rest of the
// register, after which draws take step directly.
func (s *rngSource) lazyStep() uint64 {
	s.touch((s.tap + rngLen - 1) % rngLen)
	s.touch((s.feed + rngLen - 1) % rngLen)
	x := s.step()
	if s.draws() == lazyDraws {
		for i := range s.vec {
			s.touch(i)
		}
		s.lazy = false
	}
	return x
}

// touch materialises register word i if this seeding has not yet.
func (s *rngSource) touch(i int) {
	if s.stamp[i] == s.gen {
		return
	}
	x0 := uint64(s.x0)
	a := mulMod31(x0, rngPow[3*i])
	b := mulMod31(x0, rngPow[3*i+1])
	c := mulMod31(x0, rngPow[3*i+2])
	s.vec[i] = int64(a)<<40 ^ int64(b)<<20 ^ int64(c) ^ rngCooked[i]
	s.stamp[i] = s.gen
}
