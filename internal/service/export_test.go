package service

import "os"

// SetCreateTemp replaces the constructor of spill temp files and returns a
// function restoring it.
func SetCreateTemp(f func(dir, pattern string) (*os.File, error)) (restore func()) {
	createTemp = f
	return func() { createTemp = os.CreateTemp }
}
