package main

import (
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The generator and the server split the machine's CPUs: the server gets
// the upper half with GOMAXPROCS to match, the generator the lower half,
// each with its threads pinned there. Sharing every CPU, the two
// processes' garbage collectors and schedulers steal each other's cores,
// and the latency measured is that contention rather than the server. On
// a 1-CPU machine both share the one CPU.

// cpuSplit returns the generator's and the server's CPU sets.
func cpuSplit() (gen, srv []int) {
	n := runtime.NumCPU()
	if n == 1 {
		return []int{0}, []int{0}
	}
	for c := 0; c < n; c++ {
		if c < n-n/2 {
			gen = append(gen, c)
		} else {
			srv = append(srv, c)
		}
	}
	return gen, srv
}

func serverProcs() int { _, srv := cpuSplit(); return len(srv) }

// workers is the generator's goroutine and connection count: one per
// generator CPU, so never more than nproc. A second worker sharing the
// generator's one CPU on a 2-CPU machine tripled the median latency it
// measured and made it unsteady across runs.
func workers() int { gen, _ := cpuSplit(); return len(gen) }

func cpuMask(cpus []int) []uint64 {
	mask := make([]uint64, (runtime.NumCPU()+63)/64)
	for _, c := range cpus {
		mask[c/64] |= 1 << (c % 64)
	}
	return mask
}

// setAffinity pins one thread (tid 0: the calling thread) to cpus.
func setAffinity(tid int, cpus []int) error {
	mask := cpuMask(cpus)
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid),
		uintptr(len(mask)*8), uintptr(unsafe.Pointer(&mask[0])))
	if errno != 0 {
		return errno
	}
	return nil
}

// pinSelf confines the generator to its CPUs: every existing thread is
// pinned, and threads the runtime creates later inherit the mask.
func pinSelf() {
	gen, _ := cpuSplit()
	runtime.GOMAXPROCS(workers())
	entries, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return
	}
	for _, e := range entries {
		if tid, err := strconv.Atoi(e.Name()); err == nil {
			setAffinity(tid, gen)
		}
	}
}

// startPinned runs start (an exec.Cmd's Start) on a thread pinned to the
// server's CPUs, so the child inherits that mask, then moves the thread
// back to the generator's CPUs. The thread lives on: the child's
// parent-death signal fires when the thread that forked it exits.
func startPinned(start func() error) error {
	gen, srv := cpuSplit()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, srv); err != nil {
		return err
	}
	err := start()
	if rerr := setAffinity(0, gen); err == nil {
		err = rerr
	}
	return err
}

// stealTicks is the time, in 1/100 s ticks summed over all CPUs, that
// the hypervisor kept this machine's runnable CPUs off a physical core
// (the steal column of /proc/stat's cpu line); 0 where not reported.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(f[8], 10, 64)
	return n
}

// stealBudget is the steal a window of length d may show and still count
// as measuring the server: 2% of the window's CPU time, at least a tick.
func stealBudget(d time.Duration) int64 {
	return max(1, int64(math.Round(0.02*d.Seconds()*float64(runtime.NumCPU())*100)))
}
