package par

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestGoRunsEveryTask(t *testing.T) {
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 1000; i++ {
		wg.Add(1)
		Go(func() {
			defer wg.Done()
			ran.Add(1)
		})
	}
	wg.Wait()
	if got := ran.Load(); got != 1000 {
		t.Fatalf("ran %d tasks, want 1000", got)
	}
}

// TestGoNested: a task may hand out tasks of its own and wait for
// them; Go never blocks, so helpers busy with outer tasks cannot
// starve the inner ones.
func TestGoNested(t *testing.T) {
	var ran atomic.Int64
	var outer sync.WaitGroup
	for i := 0; i < 8; i++ {
		outer.Add(1)
		Go(func() {
			defer outer.Done()
			var inner sync.WaitGroup
			for j := 0; j < 8; j++ {
				inner.Add(1)
				Go(func() {
					defer inner.Done()
					ran.Add(1)
				})
			}
			inner.Wait()
		})
	}
	outer.Wait()
	if got := ran.Load(); got != 64 {
		t.Fatalf("ran %d inner tasks, want 64", got)
	}
}
