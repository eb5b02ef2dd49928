package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on small virtual machines, where a vCPU that goes idle
// may be descheduled by the host and take milliseconds to wake. Open-loop
// and request-response workloads leave CPUs idle between requests, so that
// wake-up delay, which varies with the host's load, would otherwise enter
// every latency. Each run therefore starts one spinner process per CPU
// under SCHED_IDLE: it runs only while nothing else wants that CPU, so the
// vCPUs stay awake without taking time from the program.

// spinArg makes the benchmark binary act as a spinner.
const spinArg = "--spin-idle"

const schedIdle = 5 // SCHED_IDLE in <sched.h>

// spin runs in a spinner process until its parent goes away or maxLife
// passes; the parent kills it first in every normal run.
func spin() {
	runtime.GOMAXPROCS(1)
	runtime.LockOSThread()
	param := struct{ priority int32 }{0}
	if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle,
		uintptr(unsafe.Pointer(&param))); errno != 0 {
		// Without SCHED_IDLE the spinner would compete with the program.
		fmt.Fprintln(os.Stderr, "perfbench: SCHED_IDLE unavailable:", errno)
		os.Exit(1)
	}
	const maxLife = 10 * time.Minute
	parent, start := os.Getppid(), time.Now()
	for i := 0; ; i++ {
		if i%(1<<20) == 0 && (os.Getppid() != parent || time.Since(start) > maxLife) {
			os.Exit(0)
		}
	}
}

// spinners is the set of running spinner processes.
type spinners []*exec.Cmd

// startSpinners starts one spinner per CPU. A spinner that cannot start or
// cannot lower its priority only costs the benchmark its steadiness, so
// failures are reported and the run goes on.
func startSpinners() spinners {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: no spinners:", err)
		return nil
	}
	var s spinners
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command(self, spinArg)
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: spinner:", err)
			continue
		}
		s = append(s, cmd)
	}
	return s
}

// stop kills every spinner and waits for each to exit.
func (s spinners) stop() {
	for _, cmd := range s {
		_ = cmd.Process.Kill() // an already-exited spinner is fine
		_ = cmd.Wait()         // killed: the exit status says so, nothing to report
	}
}
