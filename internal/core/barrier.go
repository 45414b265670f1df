package core

import (
	"fmt"
	"sync"

	"charm/internal/vtime"
)

// RtBarrier is the barrier() synchronization primitive of the CHARM API:
// all parties block until the last arrives; everyone resumes at the maximum
// arrival time plus the barrier cost. Reusable across generations.
type RtBarrier struct {
	parties int
	cost    int64

	mu  sync.Mutex
	cur *barGen
}

type barGen struct {
	waiting int
	vb      vtime.Barrier
	release chan struct{}
	t       int64
}

// NewBarrier creates a barrier for n parties.
func (rt *Runtime) NewBarrier(n int) *RtBarrier {
	if n <= 0 {
		panic(fmt.Sprintf("core: barrier parties must be positive, got %d", n))
	}
	return &RtBarrier{
		parties: n,
		cost:    rt.barrierCost,
		cur:     &barGen{release: make(chan struct{})},
	}
}

// enter registers one arrival at time now without blocking and returns the
// generation to wait on. The last arrival computes the common release time
// and closes the generation.
func (b *RtBarrier) enter(now int64) *barGen {
	b.mu.Lock()
	g := b.cur
	g.vb.Enter(now)
	g.waiting++
	if g.waiting == b.parties {
		g.t = g.vb.Release(b.cost)
		b.cur = &barGen{release: make(chan struct{})}
		close(g.release)
	}
	b.mu.Unlock()
	return g
}

// released reports whether the generation has been closed (safe to poll).
func (g *barGen) released() bool {
	select {
	case <-g.release:
		return true
	default:
		return false
	}
}

// wait blocks the calling goroutine until all parties arrived and returns
// the common virtual release time.
func (b *RtBarrier) wait(now int64) int64 {
	g := b.enter(now)
	<-g.release
	return g.t
}
