package service

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestWriteAtomicSameNameConcurrently: two writers each replace the same
// name 200 times at once, as two spills of one stream name do when a
// re-created stream is deleted while its predecessor drains. Every write
// succeeds, the file left is one writer's blob whole, and no temp file is
// left. Through one shared temp name, one writer could rename the other's
// half-written file, or find its own temp file renamed away.
func TestWriteAtomicSameNameConcurrently(t *testing.T) {
	dir := t.TempDir()
	blobs := [2][]byte{bytes.Repeat([]byte("a"), 64<<10), bytes.Repeat([]byte("bc"), 48<<10)}
	errs := make(chan error, 2*200)
	var wg sync.WaitGroup
	for _, blob := range blobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 200 {
				if err := writeAtomic(dir, "acme.hits.snap", blob); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "acme.hits.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blobs[0]) && !bytes.Equal(got, blobs[1]) {
		t.Fatalf("file holds %d bytes that are neither blob whole", len(got))
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("left temp files %v", tmps)
	}
}
