//go:build unix

package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// lockDir takes an exclusive advisory lock on <dir>/LOCK, failing fast
// when another Store — in this process or another — holds it. The lock
// lives as long as the returned handle: closing it, or the process
// exiting, releases it.
func lockDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: lock %s: %w", dir, err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close() //sweepvet:allow(close) read-only lock handle being discarded
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return nil, fmt.Errorf("store: %s is already open by another writer (%s is locked)", dir, lockName)
		}
		return nil, fmt.Errorf("store: lock %s: %w", dir, err)
	}
	return f, nil
}
