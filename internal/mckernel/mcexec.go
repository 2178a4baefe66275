package mckernel

import (
	"fmt"
	"time"

	"mkos/internal/mem"
)

// Mcexec models the mcexec launcher, the user-facing entry to McKernel: it
// creates the proxy process, loads the binary into the LWK, and — with the
// -n option the paper's experiments used ("On McKernel we use the -n mcexec
// option to automatically bind processes", AD appendix) — distributes ranks
// across the partition cores in contiguous blocks.

// McexecOptions configures one mcexec invocation.
type McexecOptions struct {
	// Ranks is the -n option: how many MPI processes to launch.
	Ranks int
	// ThreadsPerRank is the OMP_NUM_THREADS each rank runs.
	ThreadsPerRank int
	// HeapBytes is allocated per rank from the LWK memory manager at load
	// time (the premap behaviour; McKernel pre-faults by default).
	HeapBytes int64
}

// RankProcess is one launched rank with its core binding.
type RankProcess struct {
	Rank    int
	Proc    *Process
	Cores   []int
	HeapVMA *mem.VMA
	// HeapBase is the physical base the LWK allocator handed out for the
	// heap; ReleaseJob must free exactly this, not the VMA's virtual start.
	HeapBase int64
}

// McexecJob is the result of one invocation.
type McexecJob struct {
	Ranks     []*RankProcess
	SetupCost time.Duration
}

// Mcexec launches ranks with automatic binding: the partition's cores are
// split into contiguous per-rank blocks (which on Fugaku aligns rank
// boundaries with CMGs, matching Sec. 4.1.4's one-rank-per-CMG policy for
// the 4x12 geometry).
func (in *Instance) Mcexec(name string, opts McexecOptions) (*McexecJob, error) {
	if opts.Ranks < 1 || opts.ThreadsPerRank < 1 {
		return nil, fmt.Errorf("mckernel: mcexec -n %d with %d threads", opts.Ranks, opts.ThreadsPerRank)
	}
	need := opts.Ranks * opts.ThreadsPerRank
	cores := in.Part.Cores
	if need > len(cores) {
		return nil, fmt.Errorf("mckernel: mcexec needs %d cores, partition has %d", need, len(cores))
	}
	job := &McexecJob{}
	for r := 0; r < opts.Ranks; r++ {
		p, err := in.Spawn(fmt.Sprintf("%s:%d", name, r), opts.ThreadsPerRank)
		if err != nil {
			return nil, err
		}
		block := cores[r*opts.ThreadsPerRank : (r+1)*opts.ThreadsPerRank]
		// Rebind the spawned threads onto the rank's contiguous block.
		for i, th := range p.Threads {
			th.Core = block[i]
		}
		rp := &RankProcess{Rank: r, Proc: p, Cores: block}
		if opts.HeapBytes > 0 {
			base, err := in.LWKMem.Alloc(opts.HeapBytes)
			if err != nil {
				return nil, fmt.Errorf("mckernel: rank %d heap: %w", r, err)
			}
			rp.HeapBase = base
			vma, err := p.addressSpace().Map(opts.HeapBytes, mem.Page64K, true, "heap")
			if err != nil {
				return nil, err
			}
			vma.Populated = true // premap: faults paid at load time
			rp.HeapVMA = vma
			pages := mem.Page2M.PagesFor(opts.HeapBytes)
			in.sink.C("mckernel.pagefault.premapped").Add(pages)
			job.SetupCost += time.Duration(pages) * in.PageFaultCost(mem.Page2M)
		}
		job.Ranks = append(job.Ranks, rp)
	}
	return job, nil
}

// ReleaseJob tears all ranks down and returns their heap memory to the LWK
// size-class cache.
func (in *Instance) ReleaseJob(job *McexecJob) error {
	for _, rp := range job.Ranks {
		if rp.HeapVMA != nil {
			if err := in.LWKMem.Free(rp.HeapBase, rp.HeapVMA.Length); err != nil {
				return err
			}
		}
		if !rp.Proc.Exited {
			if err := in.Exit(rp.Proc, 0); err != nil {
				return err
			}
		}
	}
	return nil
}
