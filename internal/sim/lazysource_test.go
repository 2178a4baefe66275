package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// lazySource must reproduce rand.NewSource bit for bit: every artifact and
// golden digest was produced by math/rand's seeding, so the oracle here is
// always a generator built with rand.New(rand.NewSource(seed)).

// edgeSeeds covers rngSource.Seed's normalization: zero and its
// substitute, negatives, multiples of 2^31−1 (which also map to zero) and
// the int64 extremes, whose remainders are large and negative.
var edgeSeeds = []int64{
	0, 1, -1, 2, zeroSeed, -zeroSeed,
	int32max, -int32max, 2 * int32max, -2 * int32max, int32max - 1, int32max + 1,
	math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
}

// diffSeeds is edgeSeeds plus random seeds from a fixed oracle stream.
func diffSeeds(n int) []int64 {
	seeds := append([]int64(nil), edgeSeeds...)
	g := rand.New(rand.NewSource(20260417))
	for i := 0; i < n; i++ {
		seeds = append(seeds, int64(g.Uint64()))
	}
	return seeds
}

// drawLengths straddles the point where the lazy source builds its vector
// (draw rngTap+1 = 274) and the register's wrap point (607).
var drawLengths = []int{1, 8, 272, 273, 274, 275, 606, 607, 608, 2000}

// method draws one value through a rand.Rand method, folded to a uint64
// so the two generators can be compared bit for bit.
type method struct {
	name string
	draw func(*rand.Rand) uint64
}

var methods = []method{
	{"Uint64", func(r *rand.Rand) uint64 { return r.Uint64() }},
	{"Int63", func(r *rand.Rand) uint64 { return uint64(r.Int63()) }},
	{"Float64", func(r *rand.Rand) uint64 { return math.Float64bits(r.Float64()) }},
	{"NormFloat64", func(r *rand.Rand) uint64 { return math.Float64bits(r.NormFloat64()) }},
	{"ExpFloat64", func(r *rand.Rand) uint64 { return math.Float64bits(r.ExpFloat64()) }},
	{"Intn", func(r *rand.Rand) uint64 { return uint64(r.Intn(1000003)) }},
	{"Intn64", func(r *rand.Rand) uint64 { return uint64(r.Intn(1 << 40)) }},
	{"Int63n", func(r *rand.Rand) uint64 { return uint64(r.Int63n(3*int32max + 7)) }},
	{"Int63nPow2", func(r *rand.Rand) uint64 { return uint64(r.Int63n(1 << 20)) }},
	{"Perm", func(r *rand.Rand) uint64 {
		var h uint64
		for _, v := range r.Perm(17) {
			h = h*31 + uint64(v)
		}
		return h
	}},
}

// oracle returns the reference generator for seed.
func oracle(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestLazySourceMatchesMathRand(t *testing.T) {
	for _, m := range methods {
		for _, seed := range diffSeeds(8) {
			for _, n := range drawLengths {
				want, got := oracle(seed), NewRand(seed)
				for i := 0; i < n; i++ {
					if w, g := m.draw(want), m.draw(&got.rng); w != g {
						t.Fatalf("%s seed %d: call %d of %d = %#x, math/rand gives %#x",
							m.name, seed, i+1, n, g, w)
					}
				}
			}
		}
	}
}

// refDeriveSeed is DeriveSeed over a math/rand parent.
func refDeriveSeed(parent *rand.Rand, stream int64) int64 {
	z := uint64(parent.Int63()) ^ (uint64(stream) * 0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// blockStarts returns the first node of every block shard.Partition lays
// out for nodes over shards: the first nodes%shards blocks carry one
// extra node.
func blockStarts(nodes, shards int) []int {
	base, extra := nodes/shards, nodes%shards
	var out []int
	lo := 0
	for i := 0; i < shards; i++ {
		out = append(out, lo)
		lo += base
		if i < extra {
			lo++
		}
	}
	return out
}

// TestSkipDeriveMatchesMathRand replays the sharded derivation FWQMachine
// performs — NewRand(seed), Skip(lo), then Derive per node — at the block
// boundaries of the machine sizes it runs, against a math/rand parent.
func TestSkipDeriveMatchesMathRand(t *testing.T) {
	layouts := []struct{ nodes, shards int }{
		{16384, 2}, {16384, 4}, {158976, 4}, {158976, 8},
	}
	for _, seed := range []int64{1, 42, -7} {
		for _, l := range layouts {
			for _, lo := range blockStarts(l.nodes, l.shards) {
				// The block start itself plus a neighbour either side of
				// the lazy source's vector build and wrap points.
				for _, skip := range []int{lo, lo + 272, lo + 273, lo + 606, lo + 607} {
					if skip >= l.nodes {
						continue
					}
					ref := oracle(seed)
					for i := 0; i < skip; i++ {
						ref.Int63()
					}
					base := NewRand(seed)
					base.Skip(skip)
					for node := skip; node < skip+3; node++ {
						want := oracle(refDeriveSeed(ref, int64(node)))
						got := base.Derive(int64(node))
						for i := 0; i < 300; i++ {
							if w, g := want.Float64(), got.Float64(); w != g {
								t.Fatalf("seed %d, %d nodes / %d shards: node %d draw %d = %v, want %v",
									seed, l.nodes, l.shards, node, i, g, w)
							}
						}
					}
				}
			}
		}
	}
}

// FuzzLazySource drives the lazy source and math/rand through the same
// method sequence for a fuzzed seed and draw count and requires identical
// values at every call. The seed corpus is in testdata/fuzz.
func FuzzLazySource(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, draws uint16, mix []byte) {
		if len(mix) == 0 {
			mix = []byte{0}
		}
		n := int(draws) % 2500
		want, got := oracle(seed), NewRand(seed)
		for i := 0; i < n; i++ {
			m := methods[int(mix[i%len(mix)])%len(methods)]
			if w, g := m.draw(want), m.draw(&got.rng); w != g {
				t.Fatalf("seed %d: call %d (%s) = %#x, math/rand gives %#x", seed, i+1, m.name, g, w)
			}
		}
	})
}

// drawSink keeps the measured draws live.
var drawSink float64

// TestDeriveAllocs gates the per-stream cost: deriving a stream and
// drawing 64 values (longer than most noise streams) makes exactly one
// allocation, the Rand itself.
func TestDeriveAllocs(t *testing.T) {
	parent := NewRand(1)
	allocs := testing.AllocsPerRun(1000, func() {
		r := parent.Derive(7)
		for i := 0; i < 64; i++ {
			drawSink += r.Float64()
		}
	})
	if allocs != 1 {
		t.Fatalf("Derive + 64 Float64 draws made %.1f allocs/op, want 1", allocs)
	}
}

// BenchmarkDerive times one derived stream at the lengths the workloads
// produce: fault-injection streams stay under 273 draws, while about a
// fifth of application-figure and FWQ-CDF streams run longer. The
// mathrand arm is the rand.NewSource generator Rand used to wrap.
func BenchmarkDerive(b *testing.B) {
	for _, draws := range []int{8, 64, 273, 2000} {
		b.Run(fmt.Sprintf("lazy/draws=%d", draws), func(b *testing.B) {
			parent := NewRand(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := parent.Derive(int64(i))
				for j := 0; j < draws; j++ {
					drawSink += r.Float64()
				}
			}
		})
		b.Run(fmt.Sprintf("mathrand/draws=%d", draws), func(b *testing.B) {
			parent := oracle(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := oracle(refDeriveSeed(parent, int64(i)))
				for j := 0; j < draws; j++ {
					drawSink += r.Float64()
				}
			}
		})
	}
}
