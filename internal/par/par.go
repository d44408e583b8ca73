// Package par runs the helper tasks of the engine's parallel loops on
// reused goroutines.
//
// A parallel loop hands each of its helpers to Go and waits for them
// itself. Starting a fresh goroutine per helper would be correct too,
// but the runtime never frees a goroutine's descriptor: an exited
// goroutine parks on the free list of the processor it exited on, and
// a loop started on another processor allocates a new one. Under a
// steady stream of short parallel loops that list grows with the
// number of loops run. Reusing idle helpers keeps the goroutine count
// at the peak number of helpers busy at once.
package par

import "time"

// idleTimeout is how long an idle helper waits for its next task
// before it exits.
const idleTimeout = time.Second

// idle hands tasks to helpers waiting for one.
var idle = make(chan func())

// Go runs task on another goroutine: an idle helper if one is waiting,
// a new helper otherwise. It never blocks and never runs task on the
// calling goroutine, so a caller may wait for task to finish.
func Go(task func()) {
	select {
	case idle <- task:
	default:
		go helper(task)
	}
}

// helper runs task, then further tasks handed to it by Go, until it
// has waited idleTimeout for one.
func helper(task func()) {
	t := time.NewTimer(idleTimeout)
	defer t.Stop()
	for {
		task()
		t.Reset(idleTimeout)
		select {
		case task = <-idle:
		case <-t.C:
			return
		}
	}
}
