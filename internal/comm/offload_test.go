package comm

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// sumJob is a rank-local kernel: it sums its own slice, slowly enough
// that the helper is likely still at it when the driver comes round.
type sumJob struct {
	v   []float64
	sum float64
}

func (j *sumJob) Run() {
	s := 0.0
	for k := 0; k < 20; k++ {
		for _, x := range j.v {
			s += x
		}
	}
	j.sum = s
}

// offloadProgram runs ranks that interleave Offloads with sends,
// receives and all-reduces, and returns the order in which the driver
// ran rank code, each rank's job results, clocks and the exit errors.
func offloadProgram(t *testing.T, procs int) (order []string, sums []float64, clocks []float64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	const p, steps = 4, 30
	sums, clocks = make([]float64, p), make([]float64, p)
	err := Run(testConfig(p), func(c *Comm) error {
		r := c.Rank()
		j := &sumJob{v: make([]float64, 4096)}
		for k := range j.v {
			j.v[k] = float64((k + r) % 9)
		}
		for s := 0; s < steps; s++ {
			order = append(order, fmt.Sprintf("%d:%d", r, s))
			if (r+s)%3 != 0 {
				j.v[s] += 1
				c.Offload(len(j.v), j)
				order = append(order, fmt.Sprintf("%d:%d=%g", r, s, j.sum))
			}
			if err := c.Send((r+1)%p, s, j.v[:3]); err != nil {
				return err
			}
			if _, err := c.Recv((r+p-1)%p, s); err != nil {
				return err
			}
			total, err := c.AllreduceScalar(j.sum, OpSum)
			if err != nil {
				return err
			}
			sums[r] += total
		}
		clocks[r] = c.Clock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return order, sums, clocks
}

// TestOffloadOrderIsTheProgram: whether jobs run on the driver alone
// (one P) or partly on the helper, ranks run in one order, every job has
// finished when its rank resumes, and results and clocks agree.
func TestOffloadOrderIsTheProgram(t *testing.T) {
	o1, s1, c1 := offloadProgram(t, 1)
	for _, procs := range []int{2, 4, 2} {
		o, s, c := offloadProgram(t, procs)
		if !reflect.DeepEqual(o, o1) || !reflect.DeepEqual(s, s1) || !reflect.DeepEqual(c, c1) {
			t.Fatalf("GOMAXPROCS %d: the run differs from the one-P run", procs)
		}
	}
}

// slowJob spins until released or a deadline passes, and records that
// it has started and that it has ended.
type slowJob struct {
	started, done atomic.Bool
}

func (j *slowJob) Run() {
	j.started.Store(true)
	deadline := time.Now().Add(20 * time.Millisecond)
	for time.Now().Before(deadline) {
	}
	j.done.Store(true)
}

type noopJob struct{}

func (noopJob) Run() {}

// waitStarted gives the helper up to a second to take j. On one P the
// driver runs it later instead, which the callers accept.
func waitStarted(j *slowJob) {
	deadline := time.Now().Add(time.Second)
	for !j.started.Load() && runtime.GOMAXPROCS(0) > 1 && time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// TestPanicWaitsForOffloadedJob: a rank that panics while another
// rank's job is in flight on the helper surfaces from Wait only after
// the job has ended.
func TestPanicWaitsForOffloadedJob(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	j := &slowJob{}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the rank's panic did not surface from Run")
			}
			if !j.done.Load() {
				t.Fatal("Run returned while an offloaded job was still running")
			}
		}()
		_ = Run(testConfig(2), func(c *Comm) error {
			if c.Rank() == 1 { // rank 1's jobs go to the helper
				c.Offload(OffloadRows, j)
				return nil
			}
			c.Offload(OffloadRows, noopJob{}) // let rank 1 post first
			waitStarted(j)
			panic("rank 0 fails")
		})
	}()
}

// TestDeadlockWaitsForOffloadedJob: a world that deadlocks while a job
// is in flight reports ErrDeadlock only after the job has ended.
func TestDeadlockWaitsForOffloadedJob(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	j := &slowJob{}
	err := Run(testConfig(2), func(c *Comm) error {
		if c.Rank() == 1 {
			c.Offload(OffloadRows, j)
		} else {
			c.Offload(OffloadRows, noopJob{})
			waitStarted(j)
		}
		_, err := c.Recv(1-c.Rank(), 0) // nobody sends
		return err
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("got %v, want ErrDeadlock", err)
	}
	if !j.done.Load() {
		t.Fatal("Run returned while an offloaded job was still running")
	}
}
