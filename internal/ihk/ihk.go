// Package ihk models the Interface for Heterogeneous Kernels: the low-level
// infrastructure that partitions a node's CPU cores and physical memory at
// runtime (no host reboot), boots lightweight kernels on the reserved
// resources, and provides the Inter-Kernel Communication (IKC) channel used
// for system-call delegation (Sec. 5 of the paper). IHK is implemented as
// Linux kernel modules in the real system; here it manipulates the modelled
// Linux instance the same way.
package ihk

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"mkos/internal/linux"
	"mkos/internal/mem"
)

// IHK errors.
var (
	ErrCoreBusy      = errors.New("ihk: core already reserved")
	ErrCoreNotApp    = errors.New("ihk: cannot reserve assistant/system core")
	ErrNotReserved   = errors.New("ihk: resource not reserved")
	ErrAlreadyBooted = errors.New("ihk: LWK already booted on this partition")
	ErrNotBooted     = errors.New("ihk: no LWK booted")
	ErrNoResources   = errors.New("ihk: partition has no reserved resources")
)

// Hooks lets callers make the reserve/boot operations fallible: the fault
// injector installs functions here to model prologue scripts failing in
// production (Sec. 5.1 — "ihk reserve" failing in a job prologue was a real
// operational failure mode at scale). A nil hook is a no-op.
type Hooks struct {
	BeforeReserveCPUs   func(cores []int) error
	BeforeReserveMemory func(bytesPerDomain int64) error
	BeforeBoot          func() error
}

// Manager is the IHK core module attached to one Linux node. It tracks which
// CPUs and memory regions have been detached from Linux for LWK use.
type Manager struct {
	Host  *linux.Kernel
	Hooks Hooks

	reservedCores map[int]bool
	reservedMem   []mem.Region
	booted        bool
}

// NewManager loads IHK on a Linux node (insmod ihk.ko, conceptually).
func NewManager(host *linux.Kernel) *Manager {
	return &Manager{Host: host, reservedCores: make(map[int]bool)}
}

// ReserveCPUs detaches application cores from Linux. Assistant cores cannot
// be reserved: Linux needs them, and the whole point is to leave Linux
// running beside the LWK.
func (m *Manager) ReserveCPUs(cores []int) error {
	if m.booted {
		return fmt.Errorf("%w: cannot change a running partition's CPUs", ErrAlreadyBooted)
	}
	if m.Hooks.BeforeReserveCPUs != nil {
		if err := m.Hooks.BeforeReserveCPUs(cores); err != nil {
			return fmt.Errorf("ihk: reserving CPUs: %w", err)
		}
	}
	appSet := make(map[int]bool)
	for _, c := range m.Host.Topo.AppCores() {
		appSet[c] = true
	}
	for _, c := range cores {
		if !appSet[c] {
			return fmt.Errorf("%w: core %d", ErrCoreNotApp, c)
		}
		if m.reservedCores[c] {
			return fmt.Errorf("%w: core %d", ErrCoreBusy, c)
		}
	}
	for _, c := range cores {
		m.reservedCores[c] = true
	}
	return nil
}

// ReleaseCPUs returns cores to Linux.
func (m *Manager) ReleaseCPUs(cores []int) error {
	for _, c := range cores {
		if !m.reservedCores[c] {
			return fmt.Errorf("%w: core %d", ErrNotReserved, c)
		}
	}
	for _, c := range cores {
		delete(m.reservedCores, c)
	}
	return nil
}

// ReservedCPUs lists the reserved cores in ascending order.
func (m *Manager) ReservedCPUs() []int {
	var out []int
	for c := range m.reservedCores {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// ReserveMemory detaches bytes of physical memory per application NUMA
// domain from Linux's allocator and assigns it to the partition.
func (m *Manager) ReserveMemory(bytesPerDomain int64) error {
	if m.booted {
		return fmt.Errorf("%w: cannot change a running partition's memory", ErrAlreadyBooted)
	}
	if bytesPerDomain <= 0 {
		return fmt.Errorf("ihk: non-positive reservation %d", bytesPerDomain)
	}
	if m.Hooks.BeforeReserveMemory != nil {
		if err := m.Hooks.BeforeReserveMemory(bytesPerDomain); err != nil {
			return fmt.Errorf("ihk: reserving memory: %w", err)
		}
	}
	nodes := m.Host.Mem.AppNodes()
	// A domain yields at most ceil(bytes / maxBlock) regions: every chunk
	// but the last is one max-order block. Capping bytes at the domain's
	// size keeps an unsatisfiable request from sizing a huge slice.
	blocks := 0
	for _, node := range nodes {
		maxBlock := node.Buddy.BasePage() << node.Buddy.MaxOrder()
		bytes := min(bytesPerDomain, node.Buddy.TotalBytes())
		blocks += int((bytes + maxBlock - 1) / maxBlock)
	}
	got := make([]mem.Region, 0, blocks)
	for _, node := range nodes {
		maxBlock := node.Buddy.BasePage() << node.Buddy.MaxOrder()
		remaining := bytesPerDomain
		for remaining > 0 {
			r, err := node.Buddy.Alloc(min(remaining, maxBlock))
			if err != nil {
				// Roll back everything taken so far.
				for _, rr := range got {
					_ = m.Host.Mem.Free(rr)
				}
				return fmt.Errorf("ihk: reserving %d bytes on domain %d: %w", bytesPerDomain, node.ID, err)
			}
			r.NUMA = node.ID
			got = append(got, r)
			remaining -= r.Bytes
		}
	}
	m.reservedMem = append(m.reservedMem, got...)
	return nil
}

// ReleaseMemory returns all reserved memory to Linux.
func (m *Manager) ReleaseMemory() error {
	if m.booted {
		return ErrAlreadyBooted
	}
	for _, r := range m.reservedMem {
		if err := m.Host.Mem.Free(r); err != nil {
			return err
		}
	}
	m.reservedMem = nil
	return nil
}

// ReservedMemoryBytes returns the total bytes held by the partition.
func (m *Manager) ReservedMemoryBytes() int64 {
	var n int64
	for _, r := range m.reservedMem {
		n += r.Bytes
	}
	return n
}

// Partition is the resource set handed to a booted LWK.
type Partition struct {
	Cores  []int
	Memory []mem.Region
}

// Boot hands the reserved resources to an LWK. The returned partition stays
// valid until Shutdown. Booting requires at least one core and some memory.
func (m *Manager) Boot() (*Partition, error) {
	if m.booted {
		return nil, ErrAlreadyBooted
	}
	if len(m.reservedCores) == 0 || len(m.reservedMem) == 0 {
		return nil, ErrNoResources
	}
	if m.Hooks.BeforeBoot != nil {
		if err := m.Hooks.BeforeBoot(); err != nil {
			return nil, fmt.Errorf("ihk: booting LWK: %w", err)
		}
	}
	m.booted = true
	return &Partition{Cores: m.ReservedCPUs(), Memory: append([]mem.Region(nil), m.reservedMem...)}, nil
}

// Shutdown stops the LWK; resources stay reserved until released, matching
// IHK's decoupling of kernel lifecycle from resource assignment.
func (m *Manager) Shutdown() error {
	if !m.booted {
		return ErrNotBooted
	}
	m.booted = false
	return nil
}

// Booted reports whether an LWK is running.
func (m *Manager) Booted() bool { return m.booted }

// IKC is an inter-kernel communication channel: a pair of memory queues with
// doorbell interrupts. System-call delegation rides on it.
type IKC struct {
	// OneWay is the cost of posting a message and raising the doorbell on
	// the peer.
	OneWay time.Duration
	// WakeLatency is the cost of waking the proxy process on the Linux side
	// (context switch + queue processing).
	WakeLatency time.Duration

	messages uint64
}

// DefaultIKC returns the channel parameters measured for McKernel-class
// delegation (single-digit microsecond round trips).
func DefaultIKC() *IKC {
	return &IKC{OneWay: 800 * time.Nanosecond, WakeLatency: 2 * time.Microsecond}
}

// RoundTrip returns the cost of a delegation round trip excluding the
// Linux-side service time: request post + proxy wake + response post.
func (c *IKC) RoundTrip() time.Duration {
	c.messages += 2
	return 2*c.OneWay + c.WakeLatency
}

// Messages returns the number of messages sent over the channel.
func (c *IKC) Messages() uint64 { return c.messages }
