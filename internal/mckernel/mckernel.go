// Package mckernel models the McKernel lightweight co-kernel: a from-scratch
// LWK with a Linux-compatible ABI that implements only the
// performance-sensitive system calls (memory management, threading, signals)
// and delegates everything else to Linux through a proxy process over IHK's
// IKC channel (Sec. 5 of the paper). The Fugaku port adds the Tofu
// PicoDriver, a split-driver fast path that performs STAG registration
// locally instead of offloading ioctl calls (Sec. 5.1).
package mckernel

import (
	"errors"
	"fmt"
	"time"

	"mkos/internal/cpu"
	"mkos/internal/ihk"
	"mkos/internal/kernel"
	"mkos/internal/linux"
	"mkos/internal/mem"
	"mkos/internal/noise"
	"mkos/internal/telemetry"
)

// Config selects optional McKernel features.
type Config struct {
	// PicoDriver enables the in-LWK fast path for interconnect memory
	// registration (Tofu on Fugaku, OmniPath on OFP). All the paper's
	// experiments ran with it enabled.
	PicoDriver bool
	// PremapMemory pre-faults application memory at mmap time instead of
	// demand paging, the LWK default behaviour.
	PremapMemory bool
}

// DefaultConfig matches the configuration used for the paper's experiments.
func DefaultConfig() Config {
	return Config{PicoDriver: true, PremapMemory: true}
}

// Instance is a booted McKernel: the LWK side of the multi-kernel pair.
type Instance struct {
	Host      *linux.Kernel
	Part      *ihk.Partition
	IKC       *ihk.IKC
	Cfg       Config
	LWKMem    *Memory
	Scheduler *Scheduler

	// Proxies are the Linux-side proxy processes, one per McKernel process
	// (Sec. 5: they provide the execution context for offloaded calls and
	// hold Linux-managed state such as file descriptor tables).
	Proxies []*Proxy

	sink        *telemetry.Sink // receives the instance's telemetry
	nextPID     int
	panicked    bool
	panicReason string
}

// ErrNoPartition reports a Boot call without reserved resources.
var ErrNoPartition = errors.New("mckernel: nil partition")

// ErrKernelPanic reports an operation on a dead LWK. At pre-exascale node
// counts McKernel panics and hangs were routine operational events (Sec. 5);
// the recovery machinery in internal/cluster reboots the LWK or falls back
// to Linux when this surfaces.
var ErrKernelPanic = errors.New("mckernel: kernel panic")

// Panic marks the LWK dead, as after an in-kernel fault or fatal OOM
// (McKernel cannot reclaim memory — no demand paging — so exhaustion is a
// panic, not a slowdown). Subsequent process operations fail with
// ErrKernelPanic until the partition is rebooted via a fresh Boot.
func (in *Instance) Panic(reason string) error {
	in.panicked = true
	in.panicReason = reason
	in.sink.C("mckernel.panics").Inc()
	return fmt.Errorf("%w: %s", ErrKernelPanic, reason)
}

// Healthy reports whether the LWK is still alive.
func (in *Instance) Healthy() bool { return !in.panicked }

// PanicReason returns the recorded cause of death, "" while healthy.
func (in *Instance) PanicReason() string { return in.panicReason }

// Boot starts McKernel on an IHK partition of the given host. The instance
// publishes into the sink of the scope it is booted in.
func Boot(host *linux.Kernel, part *ihk.Partition, cfg Config) (*Instance, error) {
	return BootTo(nil, host, part, cfg)
}

// BootTo is Boot with the instance, its memory manager and its delegators
// publishing into sink; a nil sink means the sink of the calling scope.
func BootTo(sink *telemetry.Sink, host *linux.Kernel, part *ihk.Partition, cfg Config) (*Instance, error) {
	if part == nil || len(part.Cores) == 0 {
		return nil, ErrNoPartition
	}
	if sink == nil {
		sink = telemetry.Default()
	}
	inst := &Instance{
		Host: host, Part: part, IKC: ihk.DefaultIKC(), Cfg: cfg,
		LWKMem:    newMemory(part.Memory, sink),
		Scheduler: NewScheduler(part.Cores),
		sink:      sink,
	}
	return inst, nil
}

// Name identifies the OS configuration for experiment outputs.
func (in *Instance) Name() string {
	if in.Host.Topo.ISA == cpu.X86_64 {
		return "ofp-mckernel"
	}
	return "fugaku-mckernel"
}

// Proxy is the Linux-side twin of a McKernel process.
type Proxy struct {
	PID  int
	Task *kernel.Task
	// FDTable size: McKernel has no notion of file descriptors; it returns
	// whatever number the proxy got from Linux (Sec. 5).
	OpenFDs int
}

// Spawn creates a McKernel process with nThreads threads and its proxy
// process on the Linux side.
func (in *Instance) Spawn(name string, nThreads int) (*Process, error) {
	if in.panicked {
		return nil, fmt.Errorf("%w: %s", ErrKernelPanic, in.panicReason)
	}
	if nThreads < 1 {
		return nil, fmt.Errorf("mckernel: process %q needs at least one thread", name)
	}
	in.nextPID++
	pid := in.nextPID
	proxyTask := kernel.NewTask(10000+pid, "mcexec:"+name, kernel.ProxyTask,
		kernel.NewCPUMask(in.Host.Topo.AssistantCores()...))
	proxy := &Proxy{PID: pid, Task: proxyTask}
	in.Proxies = append(in.Proxies, proxy)

	p := &Process{PID: pid, Name: name, inst: in, proxy: proxy}
	for i := 0; i < nThreads; i++ {
		th := &Thread{TID: pid*1000 + i, Proc: p}
		p.Threads = append(p.Threads, th)
		if err := in.Scheduler.Add(th); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// --- Cost model -----------------------------------------------------------

// localSyscallCosts is McKernel's service time for the calls it implements
// in the LWK. The simple, purpose-built paths are faster than Linux's.
func localSyscallCosts() kernel.CostTable {
	return kernel.CostTable{
		kernel.SysGetpid:  100 * time.Nanosecond,
		kernel.SysMmap:    1500 * time.Nanosecond,
		kernel.SysMunmap:  1200 * time.Nanosecond,
		kernel.SysBrk:     600 * time.Nanosecond,
		kernel.SysMadvise: 500 * time.Nanosecond,
		kernel.SysFutex:   900 * time.Nanosecond,
		kernel.SysClone:   8 * time.Microsecond,
		kernel.SysExit:    5 * time.Microsecond,
		kernel.SysSignal:  700 * time.Nanosecond,
	}
}

// SyscallCost returns the end-to-end cost of one system call issued on
// McKernel: local for the performance-sensitive set, IKC round trip plus
// Linux service time for everything else.
func (in *Instance) SyscallCost(sc kernel.Syscall) time.Duration {
	if sc.PerformanceSensitive() {
		return localSyscallCosts().Cost(sc)
	}
	return in.IKC.RoundTrip() + in.Host.SyscallCosts().Cost(sc)
}

// SyscallCosts returns the full cost table (used by reports/benchmarks).
func (in *Instance) SyscallCosts() kernel.CostTable {
	t := make(kernel.CostTable, kernel.NumSyscalls())
	for i := 0; i < kernel.NumSyscalls(); i++ {
		sc := kernel.Syscall(i)
		t[sc] = in.SyscallCost(sc)
	}
	return t
}

// PageFaultCost is McKernel's fault service time. The LWK's flat memory
// manager resolves faults faster than Linux; with PremapMemory most
// application faults never happen at all (cost charged at mmap time).
func (in *Instance) PageFaultCost(page mem.PageSize) time.Duration {
	base := 600 * time.Nanosecond
	if in.Host.Topo.ISA == cpu.X86_64 {
		base = 1500 * time.Nanosecond
	}
	switch {
	case page >= mem.Page512M:
		return base + 30*time.Microsecond
	case page >= mem.Page2M:
		return base + 2500*time.Nanosecond
	default:
		return base + 200*time.Nanosecond
	}
}

// EffectiveAppPage returns the page size backing application regions. The
// LWK maps everything with large pages unconditionally; there is no
// fragmentation hazard because the partition's memory is exclusively ours
// and freed memory is cached, not returned.
func (in *Instance) EffectiveAppPage(reqBytes int64) (mem.PageSize, float64) {
	return mem.Page2M, 1
}

// TranslationOverhead mirrors linux.Kernel.TranslationOverhead for the LWK.
func (in *Instance) TranslationOverhead(workingSet int64, accessPeriod time.Duration) float64 {
	page, _ := in.EffectiveAppPage(workingSet)
	return in.Host.Topo.TLB.TranslationOverhead(workingSet, page.Bytes(), accessPeriod)
}

// HeapChurnCost is the per-step cost of calls allocate/free pairs moving
// churnBytes. McKernel's memory manager never returns freed pages to anyone
// — they stay cached in the process's large-page pool (see Memory) — so
// steady-state churn pays only the local, cheap allocator bookkeeping, with
// no re-faults and no TLB shootdowns. This is the mechanism behind the
// LULESH ≈2X result (Sec. 6.4 / [14]).
func (in *Instance) HeapChurnCost(churnBytes int64, calls, threads int) time.Duration {
	if churnBytes <= 0 && calls <= 0 {
		return 0
	}
	if calls < 1 {
		calls = int(churnBytes / (8 << 20))
		if calls < 1 {
			calls = 1
		}
	}
	costs := localSyscallCosts()
	return time.Duration(calls) * (costs.Cost(kernel.SysMmap) + costs.Cost(kernel.SysMunmap)) / 2
}

// RDMARegistrationCost is the cost of one STAG/memory registration. With the
// PicoDriver the fast path runs inside the LWK; without it the ioctl is
// offloaded to Linux over IKC, adding the delegation latency the PicoDriver
// exists to remove (Sec. 5.1).
func (in *Instance) RDMARegistrationCost(bytes int64) time.Duration {
	pin := time.Duration(bytes/(1<<20)) * 250 * time.Nanosecond
	if in.Cfg.PicoDriver {
		return 1200*time.Nanosecond + pin
	}
	return in.IKC.RoundTrip() + in.Host.RDMARegistrationCost(bytes)
}

// BarrierLatency: the LWK uses the same hardware barrier as Linux on A64FX.
func (in *Instance) BarrierLatency(n int) time.Duration {
	return in.Host.BarrierLatency(n)
}

// CacheInterferenceFactor is 1: no OS activity shares the LWK cores' caches;
// Linux's activity is confined to its own partition.
func (in *Instance) CacheInterferenceFactor() float64 { return 1 }

// --- Noise ----------------------------------------------------------------

// McKernel noise calibration. The LWK runs no daemons, takes no timer
// interrupts (tickless cooperative scheduling) and handles no device IRQs;
// the residual noise is IKC doorbell processing and hardware-level
// interference from the Linux partition sharing the memory system. Figure 4
// shows McKernel's largest FWQ iteration below 7 ms on OFP (≤0.5 ms noise)
// and the cleanest profile on Fugaku.
const (
	ikcLength       = 2 * time.Microsecond
	ikcLenCV        = 0.3
	ikcInterval     = 10 * time.Second // per core
	hwShareLength   = 12 * time.Microsecond
	hwShareLenCV    = 0.5
	hwShareInterval = 600 * time.Second // per core

	// KNL-side residuals are larger: slower cores, busier Linux partition.
	ofpIkcLength     = 5 * time.Microsecond
	ofpHwShareLength = 120 * time.Microsecond
	ofpHwShareCV     = 0.4
)

// NoiseProfile returns the LWK's (nearly silent) noise profile over its
// partition cores.
func (in *Instance) NoiseProfile() *noise.Profile {
	cores := in.Part.Cores
	p := &noise.Profile{Subsystem: "mckernel"}
	ikcLen, hwLen, hwCV := ikcLength, hwShareLength, hwShareLenCV
	if in.Host.Topo.ISA == cpu.X86_64 {
		ikcLen, hwLen, hwCV = ofpIkcLength, ofpHwShareLength, ofpHwShareCV
	}
	p.MustAdd(&noise.Source{
		Name: "ikc-doorbell", Cores: cores, Mode: noise.TargetRandom,
		Every: spread(ikcInterval, len(cores)), EveryCV: 0.4,
		Length: ikcLen, LengthCV: ikcLenCV,
	})
	p.MustAdd(&noise.Source{
		Name: "hw-sharing", Cores: cores, Mode: noise.TargetRandom,
		Every: spread(hwShareInterval, len(cores)), EveryCV: 0.6,
		Length: hwLen, LengthCV: hwCV,
	})
	return p
}

func spread(perCore time.Duration, nCores int) time.Duration {
	if nCores < 1 {
		nCores = 1
	}
	iv := perCore / time.Duration(nCores)
	if iv < time.Microsecond {
		iv = time.Microsecond
	}
	return iv
}
