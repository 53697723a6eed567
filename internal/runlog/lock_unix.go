//go:build unix

package runlog

import (
	"os"
	"syscall"
)

// flockExclusive takes a non-blocking exclusive advisory lock on f.
// flock locks belong to the open file description, so they go with its
// close or the process — a SIGKILL'd owner can never leave the
// directory wedged.
func flockExclusive(f *os.File) error {
	return syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
}
