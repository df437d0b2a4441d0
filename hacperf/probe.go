package main

import (
	goruntime "runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// Calibration. On a shared virtual host the CPU time of fixed work is
// not fixed: besides steal, which CPU accounting excludes, the speed
// of a vCPU moves with what the neighbours on its physical core and
// socket do. Each closed-loop workload therefore runs a probe, fixed
// work that shares no code with the system under test, interleaved
// with its operations, and reports its CPU times scaled by
// reference/measured probe CPU: milliseconds of the reference host, the
// 2-vCPU virtual machine the bounds in BENCHMARK.json were tuned on,
// whose probe times are the workloads' *ProbeMs constants. A change to
// the code under test moves the operations, not the probe.

// memProbe is the kernel workloads' probe: 3-point stencil passes
// between two preallocated 16 MiB arrays, larger than a per-core L2 as
// the kernels' meshes are. It allocates nothing, so it takes no page
// faults and no collector assists, which make allocating loops noisy.
type memProbe struct {
	a, b   []float64
	passes int
}

func newMemProbe(passes int) *memProbe {
	p := &memProbe{a: make([]float64, 1<<21), b: make([]float64, 1<<21), passes: passes}
	for i := range p.a {
		p.a[i] = float64(i % 1000)
	}
	return p
}

func (p *memProbe) run() {
	a, b := p.a, p.b
	for k := 0; k < p.passes; k++ {
		for i := 1; i < len(a)-1; i++ {
			b[i] = 0.25*(a[i-1]+a[i+1]) + 0.5*a[i]
		}
		a, b = b, a
	}
}

// computeProbe is the compile workload's probe: sorting and hashing
// over a small, cache-resident working set. It allocates nothing, so
// garbage the operations leave behind does not bill its collection to
// the probe.
type computeProbe struct {
	keys, buf []uint64
	index     map[uint64]int
	sink      int
}

func newComputeProbe() *computeProbe {
	p := &computeProbe{keys: make([]uint64, 1<<13), buf: make([]uint64, 1<<13), index: map[uint64]int{}}
	x := uint64(0x9E3779B97F4A7C15)
	for i := range p.keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p.keys[i] = x
		p.index[x%(1<<12)] = i
	}
	return p
}

func (p *computeProbe) run() {
	copy(p.buf, p.keys)
	slices.Sort(p.buf)
	for _, k := range p.buf {
		p.sink += p.index[k%(1<<12)]
	}
}

// threadCPU measures f's CPU on its own thread, so the runtime's
// background work (the collector marking the operations' garbage)
// does not count as probe time.
func threadCPU(f func()) time.Duration {
	goruntime.LockOSThread()
	defer goruntime.UnlockOSThread()
	c0 := threadClock()
	f()
	return threadClock() - c0
}

// threadClock reads CLOCK_THREAD_CPUTIME_ID, which unlike
// getrusage(RUSAGE_THREAD) includes the running slice.
func threadClock() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
