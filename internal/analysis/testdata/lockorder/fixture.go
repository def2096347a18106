// Package fixture exercises lockorder. Loaded under "fixture/cluster", so
// the whole package is in scope, like the real internal/cluster.
package fixture

import "sync"

// Cluster mirrors the real one: mu is the table lock.
type Cluster struct {
	mu     sync.RWMutex
	syncMu sync.Mutex
	ch     chan int
	vals   []int
}

// other has a field named mu too, but it is not the table lock.
type other struct {
	mu sync.Mutex
}

type file struct{}

func (file) Sync() error { return nil }

func twoTables(a, b *Cluster) {
	a.mu.Lock()
	b.mu.Lock() // want `one table lock at a time`
	b.mu.Unlock()
	a.mu.Unlock()
}

func otherMuUnderTable(c *Cluster, o *other) {
	c.mu.Lock()
	o.mu.Lock() // not a table lock: no second table lock
	o.mu.Unlock()
	c.mu.Unlock()
}

func oneAtATime(a, b *Cluster) {
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Lock() // previous table lock released: allowed
	b.mu.Unlock()
}

func blockingSend(c *Cluster) {
	c.mu.Lock()
	c.ch <- 1 // want `blocking channel send while holding c\.mu`
	c.mu.Unlock()
}

func nonBlockingSend(c *Cluster) {
	c.mu.Lock()
	select {
	case c.ch <- 1: // select with default is non-blocking: allowed
	default:
	}
	c.mu.Unlock()
}

func sendAfterUnlock(c *Cluster) {
	c.mu.Lock()
	c.vals = append(c.vals, 1)
	c.mu.Unlock()
	c.ch <- 1 // lock released: allowed
}

func fsyncUnderLock(f file, c *Cluster) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return f.Sync() // want `fsync \(Sync\) while holding c\.mu`
}

func fsyncUnderSyncMu(f file, c *Cluster) error {
	c.syncMu.Lock()
	defer c.syncMu.Unlock()
	return f.Sync() // syncMu is the group-commit coordinator: exempt
}

func waivedFsync(f file, c *Cluster) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	//firmament:ignore lockorder fixture: one-shot teardown, contention impossible
	return f.Sync()
}
