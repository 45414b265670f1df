package oltp

import (
	"errors"
	"runtime"
	"sort"
	"sync/atomic"

	"charm"
)

// MVCC is a memory-optimized multi-version store in the spirit of ERMIA:
// per-key version chains, snapshot-isolation reads against a begin
// timestamp, write buffering, and first-committer-wins validation at
// commit. Every chain walk and version installation is charged to the
// simulated machine, so the engine's cache/coherence behavior is visible
// to the runtime under test.
type MVCC struct {
	rt    *charm.Runtime
	heads []atomic.Pointer[version]
	// locks serialize committers per key (readers never lock).
	locks []atomic.Int32
	// aHeads mirrors the head-pointer array (8 B per key); aVers mirrors
	// the version arena (versions are allocated round-robin in it).
	aHeads charm.Addr
	aVers  charm.Addr
	nVers  int64
	cursor atomic.Int64

	clock atomic.Int64 // commit timestamp authority

	commits atomic.Int64
	aborts  atomic.Int64
}

// version is one committed value of a key.
type version struct {
	value uint64
	begin int64 // commit timestamp
	next  *version
	slot  int64 // arena slot for simulated addressing
}

const versionBytes = 32

// ErrConflict is returned by Commit when first-committer-wins validation
// fails (another transaction committed a conflicting write first).
var ErrConflict = errors.New("oltp: write-write conflict")

// NewMVCC builds a store of n keys initialized to zero at timestamp 0.
func NewMVCC(rt *charm.Runtime, n int) *MVCC {
	if n <= 0 {
		panic("oltp: MVCC size must be positive")
	}
	s := &MVCC{
		rt:    rt,
		heads: make([]atomic.Pointer[version], n),
		locks: make([]atomic.Int32, n),
		nVers: int64(n) * 4,
	}
	s.aHeads = rt.AllocPolicy(int64(n)*8, charm.FirstTouch, 0)
	s.aVers = rt.AllocPolicy(s.nVers*versionBytes, charm.FirstTouch, 0)
	for i := range s.heads {
		s.heads[i].Store(&version{begin: 0, slot: int64(i) % s.nVers})
	}
	return s
}

// Stats returns commit and abort counts.
func (s *MVCC) Stats() (commits, aborts int64) {
	return s.commits.Load(), s.aborts.Load()
}

func (s *MVCC) headAddr(key int) charm.Addr {
	return s.aHeads + charm.Addr(key*8)
}

func (s *MVCC) versAddr(slot int64) charm.Addr {
	return s.aVers + charm.Addr(slot*versionBytes)
}

// Txn is one transaction. Not safe for concurrent use.
type Txn struct {
	s      *MVCC
	begin  int64
	writes map[int]uint64
	done   bool
}

// Begin starts a transaction with a snapshot at the current timestamp.
func (s *MVCC) Begin() *Txn {
	return &Txn{s: s, begin: s.clock.Load(), writes: map[int]uint64{}}
}

// Read returns key's value under the transaction's snapshot, charging the
// head-pointer read plus one version read per chain hop.
func (t *Txn) Read(ctx *charm.Ctx, key int) uint64 {
	if v, ok := t.writes[key]; ok {
		return v // read-your-writes
	}
	ctx.Read(t.s.headAddr(key), 8)
	for v := t.s.heads[key].Load(); v != nil; v = v.next {
		ctx.Read(t.s.versAddr(v.slot), versionBytes)
		if v.begin <= t.begin {
			return v.value
		}
	}
	return 0
}

// Write buffers a value for key until Commit.
func (t *Txn) Write(key int, val uint64) {
	t.writes[key] = val
}

// Commit validates first-committer-wins and installs the write set at a
// fresh commit timestamp, atomically across all written keys: the write
// set is locked in sorted key order (deadlock-free), validated, installed,
// and unlocked. On conflict the transaction aborts with ErrConflict and
// installs nothing.
func (t *Txn) Commit(ctx *charm.Ctx) error {
	if t.done {
		panic("oltp: transaction reused after completion")
	}
	t.done = true
	if len(t.writes) == 0 {
		t.s.commits.Add(1)
		return nil
	}
	keys := make([]int, 0, len(t.writes))
	for key := range t.writes {
		keys = append(keys, key)
	}
	sort.Ints(keys)
	for _, key := range keys {
		for !t.s.locks[key].CompareAndSwap(0, 1) {
			runtime.Gosched()
		}
		ctx.RMW(t.s.headAddr(key), 8) // lock word shares the head line
	}
	unlock := func() {
		for _, key := range keys {
			t.s.locks[key].Store(0)
		}
	}
	// Validation under locks: a head newer than our snapshot means a
	// concurrent transaction committed a conflicting write first.
	for _, key := range keys {
		if h := t.s.heads[key].Load(); h != nil && h.begin > t.begin {
			unlock()
			t.s.aborts.Add(1)
			return ErrConflict
		}
	}
	ts := t.s.clock.Add(1)
	for _, key := range keys {
		slot := t.s.cursor.Add(1) % t.s.nVers
		nv := &version{value: t.writes[key], begin: ts, next: t.s.heads[key].Load(), slot: slot}
		t.s.heads[key].Store(nv)
		ctx.Write(t.s.versAddr(slot), versionBytes)
	}
	unlock()
	ctx.Compute(500) // log-record construction
	t.s.commits.Add(1)
	return nil
}
