package ihk

import (
	"errors"
	"slices"
	"testing"

	"mkos/internal/cpu"
	"mkos/internal/linux"
	"mkos/internal/mem"
)

func newHost(t *testing.T) *linux.Kernel {
	t.Helper()
	k, err := linux.NewKernel(cpu.A64FX(2), linux.FugakuTuning(), 32<<30)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestReserveCPUs(t *testing.T) {
	m := NewManager(newHost(t))
	app := m.Host.Topo.AppCores()
	if err := m.ReserveCPUs(app[:8]); err != nil {
		t.Fatal(err)
	}
	got := m.ReservedCPUs()
	if len(got) != 8 {
		t.Fatalf("reserved %d cores", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatal("ReservedCPUs not sorted")
		}
	}
	// Double reservation fails atomically.
	if err := m.ReserveCPUs(app[6:10]); !errors.Is(err, ErrCoreBusy) {
		t.Fatalf("err = %v, want ErrCoreBusy", err)
	}
	if len(m.ReservedCPUs()) != 8 {
		t.Fatal("failed reservation must not leak cores")
	}
}

func TestReserveAssistantCoreRejected(t *testing.T) {
	m := NewManager(newHost(t))
	assist := m.Host.Topo.AssistantCores()
	if err := m.ReserveCPUs(assist[:1]); !errors.Is(err, ErrCoreNotApp) {
		t.Fatalf("err = %v, want ErrCoreNotApp", err)
	}
}

func TestReleaseCPUs(t *testing.T) {
	m := NewManager(newHost(t))
	app := m.Host.Topo.AppCores()
	_ = m.ReserveCPUs(app[:4])
	if err := m.ReleaseCPUs(app[:4]); err != nil {
		t.Fatal(err)
	}
	if len(m.ReservedCPUs()) != 0 {
		t.Fatal("release did not clear reservation")
	}
	if err := m.ReleaseCPUs(app[:1]); !errors.Is(err, ErrNotReserved) {
		t.Fatalf("double release err = %v", err)
	}
	// Dynamic reconfiguration without reboot: reserve again immediately.
	if err := m.ReserveCPUs(app[:4]); err != nil {
		t.Fatal(err)
	}
}

func TestReserveMemory(t *testing.T) {
	m := NewManager(newHost(t))
	before := m.Host.Mem.FreeBytes()
	if err := m.ReserveMemory(1 << 30); err != nil {
		t.Fatal(err)
	}
	if m.ReservedMemoryBytes() != 4<<30 { // 1 GiB per app domain, 4 CMGs
		t.Fatalf("reserved = %d, want 4GiB", m.ReservedMemoryBytes())
	}
	if m.Host.Mem.FreeBytes() != before-(4<<30) {
		t.Fatal("reservation must come out of Linux's free memory")
	}
	if err := m.ReleaseMemory(); err != nil {
		t.Fatal(err)
	}
	if m.Host.Mem.FreeBytes() != before {
		t.Fatal("release must return every byte to Linux")
	}
	if err := m.ReserveMemory(0); err == nil {
		t.Fatal("zero reservation must fail")
	}
}

func TestReserveMemoryRollsBackOnFailure(t *testing.T) {
	m := NewManager(newHost(t))
	before := m.Host.Mem.FreeBytes()
	// Ask for more than a domain holds: must fail and leave nothing behind.
	if err := m.ReserveMemory(64 << 30); err == nil {
		t.Fatal("oversized reservation must fail")
	}
	if m.Host.Mem.FreeBytes() != before {
		t.Fatal("failed reservation leaked memory")
	}
}

// TestReserveReleaseReserveReusesBlocks walks cmd/lwkctl's teardown path
// (boot, shutdown, release) and reserves again: the released blocks go
// back to the front of Linux's free lists, so the second reservation must
// hand out exactly the first one's blocks, and the release must restore
// every domain's max-order block count.
func TestReserveReleaseReserveReusesBlocks(t *testing.T) {
	ofp, err := linux.NewKernel(cpu.KNL(), linux.OFPTuning(), 112<<30)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		host  *linux.Kernel
		bytes int64
	}{
		{"fugaku", newHost(t), 6 << 30},
		{"ofp", ofp, 16 << 30},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := NewManager(c.host)
			if err := m.ReserveCPUs(m.Host.Topo.AppCores()); err != nil {
				t.Fatal(err)
			}
			var maxBlocks []int
			for _, node := range m.Host.Mem.Nodes {
				maxBlocks = append(maxBlocks, node.Buddy.FreeBlocksAt(node.Buddy.MaxOrder()))
			}
			reserve := func() []mem.Region {
				t.Helper()
				if err := m.ReserveMemory(c.bytes); err != nil {
					t.Fatal(err)
				}
				part, err := m.Boot()
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Shutdown(); err != nil {
					t.Fatal(err)
				}
				if err := m.ReleaseMemory(); err != nil {
					t.Fatal(err)
				}
				for i, node := range m.Host.Mem.Nodes {
					if got := node.Buddy.FreeBlocksAt(node.Buddy.MaxOrder()); got != maxBlocks[i] {
						t.Fatalf("domain %d: %d max-order blocks after release, want %d", node.ID, got, maxBlocks[i])
					}
				}
				return part.Memory
			}
			first, second := reserve(), reserve()
			if !slices.Equal(first, second) {
				t.Fatalf("second reservation differs from the first:\n%v\n%v", first, second)
			}
		})
	}
}

func TestBootLifecycle(t *testing.T) {
	m := NewManager(newHost(t))
	if _, err := m.Boot(); !errors.Is(err, ErrNoResources) {
		t.Fatalf("boot without resources err = %v", err)
	}
	app := m.Host.Topo.AppCores()
	if err := m.ReserveCPUs(app); err != nil {
		t.Fatal(err)
	}
	if err := m.ReserveMemory(2 << 30); err != nil {
		t.Fatal(err)
	}
	part, err := m.Boot()
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Cores) != 48 {
		t.Fatalf("partition cores = %d", len(part.Cores))
	}
	if !m.Booted() {
		t.Fatal("Booted() = false after Boot")
	}
	if _, err := m.Boot(); !errors.Is(err, ErrAlreadyBooted) {
		t.Fatalf("double boot err = %v", err)
	}
	// Releasing memory while booted is refused.
	if err := m.ReleaseMemory(); !errors.Is(err, ErrAlreadyBooted) {
		t.Fatalf("release while booted err = %v", err)
	}
	if err := m.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := m.Shutdown(); !errors.Is(err, ErrNotBooted) {
		t.Fatalf("double shutdown err = %v", err)
	}
	// After shutdown resources are still reserved; release works now.
	if err := m.ReleaseMemory(); err != nil {
		t.Fatal(err)
	}
}

func TestIKC(t *testing.T) {
	c := DefaultIKC()
	rt := c.RoundTrip()
	if rt <= 0 {
		t.Fatal("round trip must cost something")
	}
	if rt != 2*c.OneWay+c.WakeLatency {
		t.Fatalf("round trip = %v", rt)
	}
	if c.Messages() != 2 {
		t.Fatalf("messages = %d", c.Messages())
	}
	c.RoundTrip()
	if c.Messages() != 4 {
		t.Fatalf("messages = %d", c.Messages())
	}
}
