package comm

import "sync"

// Ledger aggregates communication activity across every world (and every
// rank) of one logical experiment. The benchmark harness attaches one via
// Config.Ledger, runs an experiment that may create thousands of
// short-lived worlds, and reads back machine-wide totals: how many
// messages and collectives the experiment issued, how many flops it
// charged, and how far virtual time advanced. A Ledger is safe for
// concurrent use — concurrently running worlds report into it, each
// from the goroutine driving it.
type Ledger struct {
	mu          sync.Mutex
	worlds      int
	ranks       int
	stats       Stats
	maxClock    float64 // largest rank-exit virtual time over all worlds
	rankSeconds float64 // sum of rank-exit virtual times (total simulated rank-time)
}

// LedgerSnapshot is a point-in-time copy of a Ledger's totals.
type LedgerSnapshot struct {
	Worlds      int     // worlds created with this ledger attached
	Ranks       int     // rank executions that reported (respawns count again)
	Stats       Stats   // element-wise totals over all reporting ranks
	MaxClock    float64 // peak virtual time any rank reached
	RankSeconds float64 // total virtual rank-seconds simulated
}

func (l *Ledger) noteWorld() {
	l.mu.Lock()
	l.worlds++
	l.mu.Unlock()
}

// noteRankExit records one rank's final counters and clock, as its
// function returns.
func (l *Ledger) noteRankExit(s Stats, clock float64) {
	l.mu.Lock()
	l.ranks++
	l.stats.Sends += s.Sends
	l.stats.Recvs += s.Recvs
	l.stats.Collective += s.Collective
	l.stats.Flops += s.Flops
	l.stats.NoiseTime += s.NoiseTime
	if clock > l.maxClock {
		l.maxClock = clock
	}
	l.rankSeconds += clock
	l.mu.Unlock()
}

// Snapshot returns a copy of the current totals.
func (l *Ledger) Snapshot() LedgerSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LedgerSnapshot{
		Worlds:      l.worlds,
		Ranks:       l.ranks,
		Stats:       l.stats,
		MaxClock:    l.maxClock,
		RankSeconds: l.rankSeconds,
	}
}
