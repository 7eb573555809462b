package service

import (
	"runtime"
	"testing"
	"time"
)

// TestPoolReleasesFinishedJob: once a job has run, nothing in the pool
// may keep its closure — and so the request, response channel and
// record a real job captures — reachable, even while later jobs still
// sit in the same queue backing array.
func TestPoolReleasesFinishedJob(t *testing.T) {
	p := newPool(1, 8)
	hold := func() (release func(), job func()) {
		ch := make(chan struct{})
		return func() { close(ch) }, func() { <-ch }
	}
	releaseGate, gate := hold()
	releaseBlocker, blocker := hold()
	defer p.close()
	defer releaseBlocker()

	// Park the worker so the next four jobs share one backing array.
	if !p.submit(gate) {
		t.Fatal("gate refused")
	}
	for p.running() != 1 {
		time.Sleep(time.Millisecond)
	}
	ran, collected := make(chan struct{}), make(chan struct{})
	func() { // its own frame: the test keeps no reference to payload
		payload := new([1 << 10]byte)
		runtime.SetFinalizer(payload, func(*[1 << 10]byte) { close(collected) })
		p.submit(func() { payload[0]++; close(ran) })
	}()
	p.submit(blocker)
	p.submit(func() {})
	p.submit(func() {})
	releaseGate()
	<-ran
	for p.depth() != 2 || p.running() != 1 { // the blocker runs, two wait
		time.Sleep(time.Millisecond)
	}

	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a finished job's captured value is still reachable from the pool")
}
