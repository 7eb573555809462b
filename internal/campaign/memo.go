package campaign

import "sync"

// ProblemMemo assembles each (problem, grid) once and shares the result
// — matrix, right-hand side and the layouts the Problem accumulates —
// read-only with every later caller. Its Problem method is an
// ExecEnv.Problems hook: the engine uses one memo per Run, the solve
// service one per process. The zero value is ready to use, and a memo
// is safe for concurrent use.
//
// Sharing assembly never shows in a result: a problem is a pure
// function of its key, and resolving one emits no event.
type ProblemMemo struct {
	mu           sync.Mutex
	entries      map[problemKey]*problemEntry
	hits, misses int64
}

type problemKey struct {
	name string
	grid int
}

// problemEntry is one memoised assembly; the Once collapses concurrent
// first requests for the same problem into a single build, without
// holding the memo's lock across it.
type problemEntry struct {
	once sync.Once
	p    Problem
	err  error
}

// Problem returns the named problem on a grid×grid interior grid,
// building it with BuildProblem on first request. An unknown name's
// error is memoised like any other result.
func (m *ProblemMemo) Problem(name string, grid int) (Problem, error) {
	k := problemKey{name: name, grid: grid}
	m.mu.Lock()
	e, ok := m.entries[k]
	if ok {
		m.hits++
	} else {
		if m.entries == nil {
			m.entries = make(map[problemKey]*problemEntry)
		}
		e = &problemEntry{}
		m.entries[k] = e
		m.misses++
	}
	m.mu.Unlock()
	e.once.Do(func() {
		e.p, e.err = BuildProblem(name, grid)
	})
	return e.p, e.err
}

// Counts returns how many requests found their problem already
// requested, and how many were the first for their key.
func (m *ProblemMemo) Counts() (hits, misses int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses
}
