package main

import (
	"runtime"
	"syscall"
	"unsafe"
)

// cpuMask is a Linux CPU affinity mask.
type cpuMask [16]uint64

func affinity(op uintptr, m *cpuMask) error {
	// pid 0 is the calling thread.
	_, _, errno := syscall.RawSyscall(op, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// pinner moves the calling goroutine's thread from one of the process's
// CPUs to the next. On a shared virtual machine each vCPU runs at its own
// speed, set by what the host runs beside it, and a single-threaded loop
// stays on whichever vCPU it started on: its runs then fall into one of two
// speeds by chance. A loop that takes turns on every CPU and averages the
// per-CPU figures measures the same machine in every run.
type pinner struct {
	orig cpuMask
	cpus []int // empty when the thread cannot be pinned
}

// newPinner locks the calling goroutine to its thread; release undoes it.
func newPinner() *pinner {
	runtime.LockOSThread()
	p := &pinner{}
	if affinity(syscall.SYS_SCHED_GETAFFINITY, &p.orig) != nil {
		return p
	}
	for c := 0; c < len(p.orig)*64; c++ {
		if p.orig[c/64]>>(c%64)&1 == 1 {
			p.cpus = append(p.cpus, c)
		}
	}
	if len(p.cpus) < 2 || p.pin(0) < 0 {
		p.cpus = nil
	}
	return p
}

// groups is the number of CPUs the pinner takes turns on, 1 when it does
// not pin.
func (p *pinner) groups() int { return max(1, len(p.cpus)) }

// pin moves the thread to the CPU of turn k and returns that CPU's index
// among the pinner's, 0 when it does not pin, or -1 if the move failed.
func (p *pinner) pin(k int) int {
	if len(p.cpus) == 0 {
		return 0
	}
	g := k % len(p.cpus)
	var m cpuMask
	c := p.cpus[g]
	m[c/64] = 1 << (c % 64)
	if affinity(syscall.SYS_SCHED_SETAFFINITY, &m) != nil {
		return -1
	}
	return g
}

// release restores the thread's affinity and unlocks it.
func (p *pinner) release() {
	if len(p.cpus) > 0 {
		_ = affinity(syscall.SYS_SCHED_SETAFFINITY, &p.orig)
	}
	runtime.UnlockOSThread()
}
