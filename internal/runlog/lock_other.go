//go:build !unix

package runlog

import "os"

// Non-unix platforms get no advisory locking: the writer lock degrades
// to the historical single-process contract rather than failing to
// build.
func flockExclusive(*os.File) error { return nil }
