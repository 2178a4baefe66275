package mem

import (
	"fmt"
	"math"
)

// refBuddy is the map-based buddy allocator that the ordered free lists of
// Buddy replaced, kept verbatim as the reference for the differential tests
// apart from its names and the accessors they do not call: per-order sets
// of free block bases, with the lowest base found by a full scan on every
// allocation.
type refBuddy struct {
	basePage int64
	maxOrder int
	base     int64
	size     int64

	free      []map[int64]struct{} // per-order set of free block bases
	allocated map[int64]int        // block base -> order

	allocCount uint64
	freeCount  uint64
	splits     uint64
	coalesces  uint64
}

// newRefBuddy creates a buddy allocator managing size bytes starting at base,
// with the given base page size and maximum order. size must be a multiple
// of the maximum block size.
func newRefBuddy(base, size, basePage int64, maxOrder int) (*refBuddy, error) {
	if basePage <= 0 || size <= 0 || maxOrder < 0 || maxOrder > 30 {
		return nil, fmt.Errorf("mem: invalid buddy parameters base=%d size=%d page=%d order=%d",
			base, size, basePage, maxOrder)
	}
	maxBlock := basePage << maxOrder
	if size%maxBlock != 0 {
		return nil, fmt.Errorf("mem: size %d not a multiple of max block %d", size, maxBlock)
	}
	b := &refBuddy{
		basePage:  basePage,
		maxOrder:  maxOrder,
		base:      base,
		size:      size,
		free:      make([]map[int64]struct{}, maxOrder+1),
		allocated: make(map[int64]int),
	}
	for i := range b.free {
		b.free[i] = make(map[int64]struct{})
	}
	for off := int64(0); off < size; off += maxBlock {
		b.free[maxOrder][base+off] = struct{}{}
	}
	return b, nil
}

// FreeBytes returns the bytes currently free.
func (b *refBuddy) FreeBytes() int64 {
	var n int64
	for order, set := range b.free {
		n += int64(len(set)) * (b.basePage << order)
	}
	return n
}

// OrderFor returns the smallest order whose block covers n bytes.
func (b *refBuddy) OrderFor(n int64) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("mem: non-positive allocation %d", n)
	}
	order := 0
	for (b.basePage << order) < n {
		order++
		if order > b.maxOrder {
			return 0, fmt.Errorf("%w: need %d bytes, max block %d", ErrBadOrder, n, b.basePage<<b.maxOrder)
		}
	}
	return order, nil
}

// refLowestFreeBase returns the smallest base in the set; deterministic
// iteration is required because map order is randomized.
func refLowestFreeBase(set map[int64]struct{}) int64 {
	best := int64(math.MaxInt64)
	for base := range set {
		if base < best {
			best = base
		}
	}
	return best
}

// AllocOrder allocates one block of the given order. It splits the smallest
// suitable larger block when the order's free list is empty.
func (b *refBuddy) AllocOrder(order int) (Region, error) {
	if order < 0 || order > b.maxOrder {
		return Region{}, fmt.Errorf("%w: %d", ErrBadOrder, order)
	}
	cur := order
	for cur <= b.maxOrder && len(b.free[cur]) == 0 {
		cur++
	}
	if cur > b.maxOrder {
		return Region{}, fmt.Errorf("%w: order %d", ErrOutOfMemory, order)
	}
	base := refLowestFreeBase(b.free[cur])
	delete(b.free[cur], base)
	// Split down to the requested order, parking the upper buddies.
	for cur > order {
		cur--
		b.splits++
		buddy := base + (b.basePage << cur)
		b.free[cur][buddy] = struct{}{}
	}
	b.allocated[base] = order
	b.allocCount++
	return Region{Base: base, Bytes: b.basePage << order, Order: order}, nil
}

// Alloc allocates the smallest block covering n bytes.
func (b *refBuddy) Alloc(n int64) (Region, error) {
	order, err := b.OrderFor(n)
	if err != nil {
		return Region{}, err
	}
	return b.AllocOrder(order)
}

// Free releases a previously allocated region and coalesces with free
// buddies as far as possible.
func (b *refBuddy) Free(r Region) error {
	order, ok := b.allocated[r.Base]
	if !ok || order != r.Order {
		return fmt.Errorf("%w: base=%d order=%d", ErrBadFree, r.Base, r.Order)
	}
	delete(b.allocated, r.Base)
	b.freeCount++
	base := r.Base
	for order < b.maxOrder {
		blockSize := b.basePage << order
		// The buddy address flips the block-size bit of the offset.
		buddy := b.base + ((base - b.base) ^ blockSize)
		if _, free := b.free[order][buddy]; !free {
			break
		}
		delete(b.free[order], buddy)
		if buddy < base {
			base = buddy
		}
		order++
		b.coalesces++
	}
	b.free[order][base] = struct{}{}
	return nil
}

// FreeBlocksAt returns the number of free blocks at the given order.
func (b *refBuddy) FreeBlocksAt(order int) int {
	if order < 0 || order > b.maxOrder {
		return 0
	}
	return len(b.free[order])
}

// Fragmentation returns the free-memory fragmentation index for a target
// order: the fraction of free memory that is unusable for an allocation of
// that order because it sits in smaller blocks. 0 means every free byte is
// reachable at the target order; 1 means none is.
func (b *refBuddy) Fragmentation(order int) float64 {
	if order < 0 || order > b.maxOrder {
		return 0
	}
	var usable, total int64
	for o, set := range b.free {
		bytes := int64(len(set)) * (b.basePage << o)
		total += bytes
		if o >= order {
			usable += bytes
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(usable)/float64(total)
}

// Stats returns operation counters: allocations, frees, splits, coalesces.
func (b *refBuddy) Stats() (allocs, frees, splits, coalesces uint64) {
	return b.allocCount, b.freeCount, b.splits, b.coalesces
}
