//go:build !unix

package store

import "os"

// lockDir is a no-op where flock is unavailable: one writer per
// directory is then the caller's responsibility.
func lockDir(dir string) (*os.File, error) { return nil, nil }
