package olap

import (
	"math"
	"sync/atomic"

	"charm"
)

// Engine executes query plans over the tables on a runtime.
type Engine struct {
	RT    *charm.Runtime
	T     *Tables
	Grain int
}

// NewEngine binds tables to a runtime; grain is rows per scan task
// (0 selects 4096 — DuckDB-style vector-at-a-time morsels).
func NewEngine(rt *charm.Runtime, t *Tables, grain int) *Engine {
	if grain <= 0 {
		grain = 4096
	}
	return &Engine{RT: rt, T: t, Grain: grain}
}

// Select runs a parallel filtered scan over rows [0,rows), charging the
// reads of the named columns, and returns the selected row ids.
func (e *Engine) Select(rows int, cols []string, pred func(i int) bool) []int32 {
	parts := make([][]int32, e.RT.Workers())
	colv := make([]column, len(cols))
	for i, n := range cols {
		colv[i] = e.T.Col(n)
	}
	e.RT.ParallelFor(0, rows, e.Grain, func(ctx *charm.Ctx, i0, i1 int) {
		for _, c := range colv {
			c.read(ctx, i0, i1)
		}
		buf := parts[ctx.Worker()]
		for i := i0; i < i1; i++ {
			if pred(i) {
				buf = append(buf, int32(i))
			}
		}
		parts[ctx.Worker()] = buf
		ctx.Compute(int64(i1-i0) * 2)
		ctx.Yield()
	})
	var out []int32
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// Agg runs a parallel aggregation over rows [0,rows): fn returns each row's
// contribution (use 0 to skip). Column reads are charged per chunk.
func (e *Engine) Agg(rows int, cols []string, fn func(ctx *charm.Ctx, i int) float64) float64 {
	parts := make([]float64, e.RT.Workers())
	colv := make([]column, len(cols))
	for i, n := range cols {
		colv[i] = e.T.Col(n)
	}
	e.RT.ParallelFor(0, rows, e.Grain, func(ctx *charm.Ctx, i0, i1 int) {
		for _, c := range colv {
			c.read(ctx, i0, i1)
		}
		var s float64
		for i := i0; i < i1; i++ {
			s += fn(ctx, i)
		}
		parts[ctx.Worker()] += s
		ctx.Compute(int64(i1-i0) * 4)
		ctx.Yield()
	})
	var total float64
	for _, p := range parts {
		total += p
	}
	return total
}

// slotBytes is the simulated footprint of one hash slot (key + payload).
const slotBytes = 16

// HashTable is an open-addressing int64 -> payload table with a simulated
// mirror: build and probe traffic lands in the cache model, so a table
// exceeding one chiplet's L3 rewards spreading (the Fig. 13 join effect).
type HashTable struct {
	keys []atomic.Int64 // stored key+1; 0 = empty
	vals []int32
	sums []atomic.Uint64 // float64 bits, used by group-sum tables
	mask uint64
	addr charm.Addr
	rt   *charm.Runtime
}

func (e *Engine) newHashTable(capacity int, withSums bool) *HashTable {
	n := 8
	for n < capacity*2 {
		n <<= 1
	}
	ht := &HashTable{
		keys: make([]atomic.Int64, n),
		mask: uint64(n - 1),
		addr: e.RT.AllocPolicy(int64(n)*slotBytes, charm.FirstTouch, 0),
		rt:   e.RT,
	}
	if withSums {
		ht.sums = make([]atomic.Uint64, n)
	} else {
		ht.vals = make([]int32, n)
	}
	return ht
}

// Free releases the simulated mirror.
func (ht *HashTable) Free() { ht.rt.Free(ht.addr) }

func hash64(k int64) uint64 {
	z := uint64(k) * 0xBF58476D1CE4E5B9
	z ^= z >> 31
	return z * 0x94D049BB133111EB
}

func (ht *HashTable) slotAddr(j uint64) charm.Addr {
	return ht.addr + charm.Addr(j*slotBytes)
}

// insert claims a slot for key and returns its index. Duplicate keys keep
// the first value (TPC-H join keys are unique on the build side).
func (ht *HashTable) insert(ctx *charm.Ctx, key int64, val int32) {
	j := hash64(key) & ht.mask
	for {
		ctx.RMW(ht.slotAddr(j), slotBytes)
		if ht.keys[j].CompareAndSwap(0, key+1) {
			if ht.vals != nil {
				ht.vals[j] = val
			}
			return
		}
		if ht.keys[j].Load() == key+1 {
			return
		}
		j = (j + 1) & ht.mask
	}
}

// probe looks key up, charging one read per probe step.
func (ht *HashTable) probe(ctx *charm.Ctx, key int64) (int32, bool) {
	j := hash64(key) & ht.mask
	for {
		ctx.Read(ht.slotAddr(j), slotBytes)
		k := ht.keys[j].Load()
		if k == 0 {
			return 0, false
		}
		if k == key+1 {
			var v int32
			if ht.vals != nil {
				v = ht.vals[j]
			}
			return v, true
		}
		j = (j + 1) & ht.mask
	}
}

// addSum accumulates v into key's float sum, inserting the key on demand.
func (ht *HashTable) addSum(ctx *charm.Ctx, key int64, v float64) {
	j := hash64(key) & ht.mask
	for {
		ctx.RMW(ht.slotAddr(j), slotBytes)
		k := ht.keys[j].Load()
		if k == 0 && !ht.keys[j].CompareAndSwap(0, key+1) {
			// Lost the empty slot — possibly to this very key, which must
			// not get a second slot further on.
			k = ht.keys[j].Load()
		}
		if k == 0 || k == key+1 {
			for {
				old := ht.sums[j].Load()
				nv := math.Float64bits(math.Float64frombits(old) + v)
				if ht.sums[j].CompareAndSwap(old, nv) {
					return
				}
			}
		}
		j = (j + 1) & ht.mask
	}
}

// Build constructs a hash table from the given build-side row ids in
// parallel. key maps a row id to its join key.
func (e *Engine) Build(ids []int32, key func(i int32) int64) *HashTable {
	ht := e.newHashTable(len(ids)+1, false)
	e.RT.ParallelFor(0, len(ids), e.Grain, func(ctx *charm.Ctx, i0, i1 int) {
		for i := i0; i < i1; i++ {
			ht.insert(ctx, key(ids[i]), ids[i])
			ctx.Yield()
		}
	})
	return ht
}

// GroupSum aggregates val(i) by key(i) over selected rows into a hash
// group-by table and returns it (the Q18-style large group-by).
func (e *Engine) GroupSum(rows int, cols []string, pred func(i int) bool,
	key func(i int) int64, val func(i int) float64, capacity int) *HashTable {
	ht := e.newHashTable(capacity, true)
	colv := make([]column, len(cols))
	for i, n := range cols {
		colv[i] = e.T.Col(n)
	}
	e.RT.ParallelFor(0, rows, e.Grain, func(ctx *charm.Ctx, i0, i1 int) {
		for _, c := range colv {
			c.read(ctx, i0, i1)
		}
		for i := i0; i < i1; i++ {
			if pred(i) {
				ht.addSum(ctx, key(i), val(i))
			}
			ctx.Yield()
		}
	})
	return ht
}

// SumWhere folds the group-by table: total of sums where cond holds.
func (ht *HashTable) SumWhere(cond func(sum float64) bool) (float64, int) {
	var total float64
	n := 0
	for j := range ht.keys {
		if ht.keys[j].Load() != 0 {
			s := math.Float64frombits(ht.sums[j].Load())
			if cond(s) {
				total += s
				n++
			}
		}
	}
	return total, n
}

// KV is one (key, sum) group of a group-by table.
type KV struct {
	Key int64
	Sum float64
}

// TopK returns the k groups with the largest sums in descending order
// (ties broken by key for determinism) — the ORDER BY ... LIMIT k
// post-processing of TPC-H's Q3/Q10-style queries.
func (ht *HashTable) TopK(k int) []KV {
	if k <= 0 {
		return nil
	}
	// Min-heap of size k over (sum, key).
	heap := make([]KV, 0, k+1)
	less := func(a, b KV) bool {
		if a.Sum != b.Sum {
			return a.Sum < b.Sum
		}
		return a.Key > b.Key
	}
	siftUp := func(i int) {
		for i > 0 {
			p := (i - 1) / 2
			if !less(heap[i], heap[p]) {
				break
			}
			heap[i], heap[p] = heap[p], heap[i]
			i = p
		}
	}
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(heap) && less(heap[l], heap[m]) {
				m = l
			}
			if r < len(heap) && less(heap[r], heap[m]) {
				m = r
			}
			if m == i {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	for j := range ht.keys {
		key := ht.keys[j].Load()
		if key == 0 {
			continue
		}
		kv := KV{Key: key - 1, Sum: math.Float64frombits(ht.sums[j].Load())}
		if len(heap) < k {
			heap = append(heap, kv)
			siftUp(len(heap) - 1)
		} else if less(heap[0], kv) {
			heap[0] = kv
			siftDown(0)
		}
	}
	// Extract in descending order.
	out := make([]KV, len(heap))
	for i := len(heap) - 1; i >= 0; i-- {
		out[i] = heap[0]
		heap[0] = heap[len(heap)-1]
		heap = heap[:len(heap)-1]
		siftDown(0)
	}
	return out
}
