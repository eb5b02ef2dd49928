package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// A sampleLog is append-only storage for one client's samples, kept
// outside the Go heap. The load generator runs in the program's process
// and keeps every sample of a phase; on the heap they would grow it through
// the phase, and since the collector paces itself by heap size, the program
// would collect less and less often as the phase went on (on a 2-vCPU VM,
// mixed_small's per-window p99 fell by half over a 30 s phase). Kept
// outside, the heap holds the program's state and the requests in flight,
// as it would in sketchd.
type sampleLog struct {
	mem []byte   // the mapping backing s
	s   []sample // samples hold no pointers, so the collector need not see them
}

func (l *sampleLog) add(x sample) {
	if len(l.s) == cap(l.s) {
		l.grow(max(1<<12, 2*cap(l.s)))
	}
	l.s = append(l.s, x)
}

// grow moves the samples to a new mapping with room for n.
func (l *sampleLog) grow(n int) {
	mem, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(sample{})),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		panic(fmt.Sprintf("perfbench: mapping sample storage: %v", err))
	}
	s := unsafe.Slice((*sample)(unsafe.Pointer(unsafe.SliceData(mem))), n)[:len(l.s)]
	copy(s, l.s)
	l.free()
	l.mem, l.s = mem, s
}

// free unmaps the storage and empties the log.
func (l *sampleLog) free() {
	if l.mem != nil {
		_ = syscall.Munmap(l.mem)
	}
	l.mem, l.s = nil, nil
}

// views returns the logs' samples; they stay valid until the logs change.
func views(ls []sampleLog) [][]sample {
	out := make([][]sample, len(ls))
	for i := range ls {
		out[i] = ls[i].s
	}
	return out
}
