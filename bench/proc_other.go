//go:build !linux

package bench

import "syscall"

// pinned runs f; CPU binding is Linux-only.
func pinned(f func()) { f() }

// childAttr has no parent-death signal to set outside Linux.
func childAttr() *syscall.SysProcAttr { return nil }
