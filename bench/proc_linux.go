package bench

import (
	"runtime"
	"syscall"
	"unsafe"
)

// cpuMask is a Linux CPU affinity mask.
type cpuMask [16]uint64

func affinity(call uintptr, m *cpuMask) error {
	if _, _, errno := syscall.RawSyscall(call, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); errno != 0 {
		return errno
	}
	return nil
}

// pinned runs f on an OS thread bound to one CPU, the highest-numbered
// one the process may use, so that the reference kernel f times and
// the child processes f starts (which inherit the binding) all run on
// that CPU. On a host whose CPUs run at different speeds from moment
// to moment, a process that migrates between them cannot be timed
// steadily, nor calibrated by a kernel that ran elsewhere. The thread
// is never unlocked, so it exits with f's goroutine; children must
// therefore be waited for inside f, or their parent-death signal (see
// childAttr) would fire when the thread exits.
func pinned(f func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		runtime.LockOSThread()
		var m cpuMask
		if affinity(syscall.SYS_SCHED_GETAFFINITY, &m) == nil {
			for i := len(m)*64 - 1; i >= 0; i-- {
				if m[i/64]&(1<<(i%64)) != 0 {
					one := cpuMask{}
					one[i/64] = 1 << (i % 64)
					_ = affinity(syscall.SYS_SCHED_SETAFFINITY, &one) // unpinned still works, only noisier
					break
				}
			}
		}
		f()
	}()
	<-done
}

// childAttr makes the kernel kill a child whose parent thread dies
// first, so a driver killed from outside leaves no child running.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
