package sim

// lazySource is math/rand's default source, Mitchell & Reeds' additive
// lagged-Fibonacci generator, with seeding deferred until it matters. It
// returns exactly the values of rand.NewSource(seed) but skips the seeding
// pass, which runs 1,841 LCG steps and fills a 4.9 KB vector before the
// first draw.
//
// math/rand seeds vector entry i from the LCG states seed·A^(21+3i),
// seed·A^(22+3i) and seed·A^(23+3i) mod 2^31−1 (A = 48271), so with a
// table of those powers any entry costs three modular multiplies. Draw k
// reads vec[334−k] and vec[607−k]; for k ≤ 273 neither has been written
// yet, so the draw is the sum of two freshly computed entries and the
// source needs no vector at all. Streams that go past draw 273 build the
// vector once, replay the writes the lazy draws skipped, and continue as
// the standard generator.
type lazySource struct {
	seed      uint64 // normalized as rngSource.Seed does, in [1, 2^31−2]
	tap, feed int
	vec       *[rngLen]int64 // nil until draw rngTap+1
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	lcgA     = 48271
	// zeroSeed is what rngSource.Seed substitutes for a seed that is 0
	// modulo 2^31−1.
	zeroSeed = 89482311
)

// lcgPow[i] holds A^(21+3i), A^(22+3i) and A^(23+3i) mod 2^31−1: the
// seeding LCG's multipliers for the three words of vector entry i.
var lcgPow = func() (t [rngLen][3]uint32) {
	x := uint64(1)
	for k := 0; k < 20; k++ {
		x = mulMod31(x, lcgA)
	}
	for i := range t {
		for j := range t[i] {
			x = mulMod31(x, lcgA)
			t[i][j] = uint32(x)
		}
	}
	return t
}()

// mulMod31 returns a·b mod 2^31−1 for a, b in [1, 2^31−2]. Two folds
// reduce the product exactly: it is nonzero modulo the prime 2^31−1, so
// the second fold never lands on 2^31−1 itself.
func mulMod31(a, b uint64) uint64 {
	t := a * b
	t = t&int32max + t>>31
	return t&int32max + t>>31
}

// Seed resets the source to the state rand.NewSource(seed) starts in.
func (s *lazySource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = zeroSeed
	}
	// rngSource starts with tap = 0, which its first decrement wraps to
	// rngLen−1; starting at rngLen reaches the same index without the wrap.
	*s = lazySource{seed: uint64(seed), tap: rngLen, feed: rngLen - rngTap}
}

// entry returns vector entry i as rngSource.Seed would have filled it.
func (s *lazySource) entry(i int) int64 {
	p := &lcgPow[i]
	u := int64(mulMod31(s.seed, uint64(p[0]))) << 40
	u ^= int64(mulMod31(s.seed, uint64(p[1]))) << 20
	u ^= int64(mulMod31(s.seed, uint64(p[2])))
	return u ^ rngCooked[i]
}

// Uint64 returns the next value of the rand.NewSource(seed) sequence.
func (s *lazySource) Uint64() uint64 {
	if s.vec == nil {
		return s.lazy()
	}
	return s.step()
}

// Int63 returns the next value with its top bit cleared, as rngSource
// does. It repeats Uint64's two lines rather than calling it so that the
// common draw, which arrives through an interface call, makes no further
// call.
func (s *lazySource) Int63() int64 {
	if s.vec == nil {
		return int64(s.lazy() & rngMask)
	}
	return int64(s.step() & rngMask)
}

// step is one draw of the additive generator on the filled vector.
func (s *lazySource) step() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// lazy serves a draw before the vector exists. Draws 1..rngTap read two
// slots that still hold their seeded values, so neither tap nor feed can
// wrap yet; the next draw builds the vector and steps on it.
func (s *lazySource) lazy() uint64 {
	if s.tap > rngLen-rngTap {
		s.tap--
		s.feed--
		return uint64(s.entry(s.feed) + s.entry(s.tap))
	}
	s.fill()
	return s.step()
}

// fill builds the seeded vector, then replays the feed writes of the
// lazily served draws: draw k stored vec[334−k] + vec[607−k] into
// vec[334−k].
func (s *lazySource) fill() {
	s.vec = new([rngLen]int64)
	for i := range s.vec {
		s.vec[i] = s.entry(i)
	}
	for t := s.tap; t < rngLen; t++ {
		s.vec[t-rngTap] += s.vec[t]
	}
}
