package runlog

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// lockFile is the advisory lock guarding a run directory's writers. It
// holds the owning process's pid, for the contention message; the lock
// itself is a kernel flock on the open descriptor, so it cannot
// outlive a crashed owner. The file is never removed: unlinking it
// would let a concurrent opener lock a dead inode while a third
// process locks a fresh one.
const lockFile = "cells.lock"

// dirLock is a run directory's writer lock as this process holds it.
// A Writer's lock stays in joinable until the run's Cache joins it, so
// a run holds its directory from Create or Append to its last Close and
// no second run can remove or repair its files in between. Two
// Writers, or two Caches, on one directory still contend.
type dirLock struct {
	f    *os.File
	key  string
	refs int
}

var joinable = struct {
	sync.Mutex
	m map[string]*dirLock
}{m: map[string]*dirLock{}}

// lockDir creates dir if needed and takes its writer lock without
// blocking, or, for a Cache (join), joins a live Writer's lock on dir.
// On contention the error names the holder's pid.
func lockDir(dir string, join bool) (*dirLock, error) {
	key, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	joinable.Lock()
	defer joinable.Unlock()
	if l := joinable.m[key]; join && l != nil {
		delete(joinable.m, key)
		l.refs++
		return l, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, lockFile)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := flockExclusive(f); err != nil {
		holder := "unknown pid"
		if b, rerr := os.ReadFile(path); rerr == nil {
			if pid := strings.TrimSpace(string(b)); pid != "" {
				holder = "pid " + pid
			}
		}
		f.Close()
		return nil, fmt.Errorf("runlog: run directory %s is locked by %s (a live writer); "+
			"stop it, point this run at another directory, or open read-only", dir, holder)
	}
	// Record the owner for the contention message. Truncate first: a
	// previous owner's longer pid must not leave trailing digits. No
	// sync: readers share the page cache, and the lock dies with us.
	if err := f.Truncate(0); err == nil {
		_, _ = f.WriteAt([]byte(fmt.Sprintf("%d\n", os.Getpid())), 0)
	}
	l := &dirLock{f: f, key: key, refs: 1}
	if !join {
		joinable.m[key] = l
	}
	return l, nil
}

// release drops one holder of l; the last one closes the lock file,
// which drops the flock.
func (l *dirLock) release() {
	joinable.Lock()
	defer joinable.Unlock()
	if joinable.m[l.key] == l {
		delete(joinable.m, l.key)
	}
	if l.refs--; l.refs == 0 {
		l.f.Close()
	}
}
