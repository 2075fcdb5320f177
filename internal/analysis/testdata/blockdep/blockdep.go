// Package blockdep is the dependency half of lockcheck's
// cross-package fact test: Tidy blocks transitively through Settle, and
// nothing in this package holds a lock, so the package itself is clean
// — the may-block facts are what it exports.
package blockdep

import "time"

// Settle waits out the debounce window.
func Settle() {
	time.Sleep(10 * time.Millisecond)
}

// Tidy is innocently named; the blocking hides one call down.
func Tidy() { Settle() }
