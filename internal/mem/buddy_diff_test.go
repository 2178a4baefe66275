package mem

import (
	"errors"
	"math/rand"
	"testing"
)

// buddyAllocator is the surface the differential tests drive on both the
// ordered-list Buddy and the map-based refBuddy.
type buddyAllocator interface {
	Alloc(n int64) (Region, error)
	AllocOrder(order int) (Region, error)
	Free(r Region) error
	FreeBytes() int64
	FreeBlocksAt(order int) int
	Fragmentation(order int) float64
	Stats() (allocs, frees, splits, coalesces uint64)
}

// errClass maps an allocator error to the sentinel it wraps, so the two
// implementations are compared by errors.Is class.
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, ErrOutOfMemory):
		return "out-of-memory"
	case errors.Is(err, ErrBadFree):
		return "bad-free"
	case errors.Is(err, ErrBadOrder):
		return "bad-order"
	}
	return "other"
}

// buddyDiff runs one operation sequence on a Buddy and a refBuddy built
// with the same parameters and fails on the first observable divergence.
type buddyDiff struct {
	t        testing.TB
	got      *Buddy
	want     *refBuddy
	basePage int64
	maxOrder int
	live     []Region // allocated by both, not yet freed
	freed    []Region // freed once, for double frees
	step     int
}

func newBuddyDiff(t testing.TB, base, size, basePage int64, maxOrder int) *buddyDiff {
	t.Helper()
	got, err := NewBuddy(base, size, basePage, maxOrder)
	if err != nil {
		t.Fatal(err)
	}
	want, err := newRefBuddy(base, size, basePage, maxOrder)
	if err != nil {
		t.Fatal(err)
	}
	d := &buddyDiff{t: t, got: got, want: want, basePage: basePage, maxOrder: maxOrder}
	d.check("new")
	return d
}

// call applies op to both allocators and compares the returned region and
// error class, then the full observable state. It returns op's region and
// error on the allocator under test.
func (d *buddyDiff) call(name string, op func(a buddyAllocator) (Region, error)) (Region, error) {
	d.t.Helper()
	d.step++
	gr, gerr := op(d.got)
	wr, werr := op(d.want)
	if gr != wr {
		d.t.Fatalf("step %d %s: region %+v, reference %+v", d.step, name, gr, wr)
	}
	if errClass(gerr) != errClass(werr) {
		d.t.Fatalf("step %d %s: err %v, reference %v", d.step, name, gerr, werr)
	}
	d.check(name)
	return gr, gerr
}

// check compares every counter and per-order figure of the two allocators,
// including the out-of-range orders.
func (d *buddyDiff) check(name string) {
	d.t.Helper()
	ga, gf, gs, gc := d.got.Stats()
	wa, wf, ws, wc := d.want.Stats()
	if ga != wa || gf != wf || gs != ws || gc != wc {
		d.t.Fatalf("step %d %s: stats %d/%d/%d/%d, reference %d/%d/%d/%d",
			d.step, name, ga, gf, gs, gc, wa, wf, ws, wc)
	}
	if g, w := d.got.FreeBytes(), d.want.FreeBytes(); g != w {
		d.t.Fatalf("step %d %s: FreeBytes %d, reference %d", d.step, name, g, w)
	}
	for k := -1; k <= d.maxOrder+1; k++ {
		if g, w := d.got.FreeBlocksAt(k), d.want.FreeBlocksAt(k); g != w {
			d.t.Fatalf("step %d %s: FreeBlocksAt(%d) %d, reference %d", d.step, name, k, g, w)
		}
		if g, w := d.got.Fragmentation(k), d.want.Fragmentation(k); g != w {
			d.t.Fatalf("step %d %s: Fragmentation(%d) %v, reference %v", d.step, name, k, g, w)
		}
	}
}

func (d *buddyDiff) keep(r Region, err error) {
	if err == nil {
		d.live = append(d.live, r)
	}
}

// apply decodes one (op, arg) pair into an allocator operation. Every op
// is valid for every arg, so any byte string is an operation sequence.
func (d *buddyDiff) apply(op, arg byte) {
	d.t.Helper()
	switch op % 7 {
	case 0: // Alloc of a byte count from zero to past the max block
		n := int64(arg) * (d.basePage << d.maxOrder) / 200
		d.keep(d.call("Alloc", func(a buddyAllocator) (Region, error) { return a.Alloc(n) }))
	case 1: // AllocOrder, including both out-of-range orders
		order := int(arg)%(d.maxOrder+3) - 1
		d.keep(d.call("AllocOrder", func(a buddyAllocator) (Region, error) { return a.AllocOrder(order) }))
	case 2, 3: // Free a live region
		if len(d.live) == 0 {
			return
		}
		i := int(arg) % len(d.live)
		r := d.live[i]
		d.call("Free", func(a buddyAllocator) (Region, error) { return Region{}, a.Free(r) })
		d.live = append(d.live[:i], d.live[i+1:]...)
		d.freed = append(d.freed, r)
	case 4: // double free (or a free of a base reallocated since)
		if len(d.freed) == 0 {
			return
		}
		r := d.freed[int(arg)%len(d.freed)]
		d.call("DoubleFree", func(a buddyAllocator) (Region, error) { return Region{}, a.Free(r) })
	case 5: // free with the wrong order, or of a misaligned base
		if len(d.live) == 0 {
			return
		}
		r := d.live[int(arg)%len(d.live)]
		if arg%2 == 0 {
			r.Order ^= 1 + int(arg)%3
		} else {
			r.Base += d.basePage / 2
		}
		d.call("BadFree", func(a buddyAllocator) (Region, error) { return Region{}, a.Free(r) })
	case 6: // allocate at one order until out of memory
		order := int(arg) % (d.maxOrder + 1)
		for {
			r, err := d.call("AllocUntilOOM", func(a buddyAllocator) (Region, error) { return a.AllocOrder(order) })
			if err != nil {
				break
			}
			d.live = append(d.live, r)
		}
	}
}

// drain frees every live region in a shuffled order, checking each step;
// afterwards both allocators must have coalesced back to max-order blocks.
func (d *buddyDiff) drain(rng *rand.Rand) {
	d.t.Helper()
	rng.Shuffle(len(d.live), func(i, j int) { d.live[i], d.live[j] = d.live[j], d.live[i] })
	for _, r := range d.live {
		d.call("Drain", func(a buddyAllocator) (Region, error) { return Region{}, a.Free(r) })
	}
	d.live = nil
	if f := d.got.Fragmentation(d.maxOrder); f != 0 {
		d.t.Fatalf("fragmentation %v after freeing everything", f)
	}
}

// TestBuddyDifferentialRandom drives Buddy and the map-based refBuddy
// through seeded random operation sequences over several geometries and
// requires identical regions, error classes and state after every step.
func TestBuddyDifferentialRandom(t *testing.T) {
	for _, c := range []struct {
		name     string
		pages    int64 // base pages before the managed range
		blocks   int64 // max-order blocks managed
		maxOrder int
	}{
		{"single-order", 0, 16, 0},
		{"one-block", 0, 1, 6},
		{"offset-base", 3, 5, 4},
		{"wide", 1 << 10, 2, 10},
	} {
		t.Run(c.name, func(t *testing.T) {
			const basePage = 4 << 10
			for seed := int64(1); seed <= 8; seed++ {
				rng := rand.New(rand.NewSource(seed))
				d := newBuddyDiff(t, c.pages*basePage, c.blocks*basePage<<c.maxOrder, basePage, c.maxOrder)
				for i := 0; i < 400; i++ {
					d.apply(byte(rng.Intn(256)), byte(rng.Intn(256)))
				}
				d.drain(rng)
			}
		})
	}
}

// TestBuddyDifferentialOFPReserve replays ihk.ReserveMemory's exact
// sequence on an OFP-shaped domain (96 GiB of DDR4, 4 KiB pages, order 10,
// 16 GiB reserved in 4 MiB chunks): both allocators must hand out the same
// bases in the same order, and releasing them must restore the domain.
func TestBuddyDifferentialOFPReserve(t *testing.T) {
	const (
		basePage = 4 << 10
		maxOrder = 10
		maxBlock = basePage << maxOrder
		reserve  = 16 << 30
	)
	d := newBuddyDiff(t, 0, 96<<30, basePage, maxOrder)
	blocks := d.got.FreeBlocksAt(maxOrder)
	for remaining := int64(reserve); remaining > 0; {
		chunk := min(remaining, maxBlock)
		r, err := d.call("Reserve", func(a buddyAllocator) (Region, error) { return a.Alloc(chunk) })
		if err != nil {
			t.Fatal(err)
		}
		d.live = append(d.live, r)
		remaining -= r.Bytes
	}
	if len(d.live) != reserve/maxBlock {
		t.Fatalf("reserved %d blocks, want %d", len(d.live), reserve/maxBlock)
	}
	for _, r := range d.live {
		d.call("Release", func(a buddyAllocator) (Region, error) { return Region{}, a.Free(r) })
	}
	if got := d.got.FreeBlocksAt(maxOrder); got != blocks {
		t.Fatalf("max-order blocks after release = %d, want %d", got, blocks)
	}
}

// FuzzBuddyDifferential decodes the input into a buddy geometry and an
// operation sequence and runs it on Buddy and refBuddy side by side: byte
// 0 picks the max order, byte 1 the block count, byte 2 the base offset in
// pages, and each following byte pair is one operation (see apply). The
// seed corpus is in testdata/fuzz/FuzzBuddyDifferential.
func FuzzBuddyDifferential(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		const basePage = 4 << 10
		maxOrder := int(data[0] % 7)
		blocks := int64(data[1]%8) + 1
		d := newBuddyDiff(t, int64(data[2])*basePage, blocks*basePage<<maxOrder, basePage, maxOrder)
		ops := data[3:]
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		for i := 0; i+1 < len(ops); i += 2 {
			d.apply(ops[i], ops[i+1])
		}
		d.drain(rand.New(rand.NewSource(int64(len(ops)))))
	})
}
