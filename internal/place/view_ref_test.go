package place

import (
	"slices"
	"sort"
	"testing"

	"charm/internal/topology"
)

// refChipletsByPreference is the reference model of
// View.ChipletsByPreference: one pass over the workers per chiplet to
// find its live workers and summed depth, then sort.Slice on a fresh
// candidate slice, then — when the job prefers a kind — a stable
// partition moving the matching chiplets to the front, the way job
// dispatch applied the preference before it became the order's leading
// key. The view's version sums every chiplet's depth in one pass and
// sorts its reused buffer in place with the kind as its first key;
// FuzzChipletsByPreference holds the two to the same order.
func refChipletsByPreference(v *View, cursor int, kind topology.ChipletKind) []topology.ChipletID {
	topo := v.ranks.topo
	nch := topo.NumChiplets()
	type cand struct {
		ch    topology.ChipletID
		band  int64
		cong  int64
		depth int64
		rot   int
	}
	cands := make([]cand, 0, nch)
	for ch := 0; ch < nch; ch++ {
		id := topology.ChipletID(ch)
		hasLive := false
		var depth int64
		for w, c := range v.workerCore {
			if topo.ChipletOf(c) == id && v.live[c] {
				hasLive = true
				depth += v.depth[w]
			}
		}
		if !hasLive {
			continue
		}
		var band int64
		if v.temp != nil && v.tempSoft != 0 {
			if over := v.temp[ch] - (v.tempSoft - thermalGuardMilliC); over > 0 {
				band = over/2000 + 1
			}
		}
		var cong int64
		if v.linkUtil != nil {
			if over := v.linkUtil[ch] - congestionGuardMilli; over > 0 {
				cong = over/100 + 1
			}
		}
		cands = append(cands, cand{id, band, cong, depth, ((ch-cursor)%nch + nch) % nch})
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if v.refused[a.ch] != v.refused[b.ch] {
			return !v.refused[a.ch]
		}
		if v.health[a.ch] != v.health[b.ch] {
			return v.health[a.ch] < v.health[b.ch]
		}
		if a.band != b.band {
			return a.band < b.band
		}
		if a.cong != b.cong {
			return a.cong < b.cong
		}
		if a.depth != b.depth {
			return a.depth < b.depth
		}
		return a.rot < b.rot
	})
	out := make([]topology.ChipletID, len(cands))
	for i, c := range cands {
		out[i] = c.ch
	}
	if kind != topology.KindAny {
		// Stable partition: matching kinds first, the rest after.
		var ord []topology.ChipletID
		for _, ch := range out {
			if topo.KindOf(ch) == kind {
				ord = append(ord, ch)
			}
		}
		if nk := len(ord); nk > 0 && nk < len(out) {
			for _, ch := range out {
				if topo.KindOf(ch) != kind {
					ord = append(ord, ch)
				}
			}
			out = ord
		}
	}
	return out
}

// fuzzBytes hands out fuzz input one byte at a time, then zeros once it
// runs dry.
type fuzzBytes []byte

func (b *fuzzBytes) next() int64 {
	if len(*b) == 0 {
		return 0
	}
	x := (*b)[0]
	*b = (*b)[1:]
	return int64(x)
}

// fuzzSnapshot builds a snapshot of topo from fuzz bytes. The first byte
// picks which signals are present; absent ones stay nil, so the view's
// defaults are exercised too. Value ranges are coarse so that ties, the
// case the rotation cursor breaks, are common.
func fuzzSnapshot(topo *topology.Topology, b *fuzzBytes) Snapshot {
	n, nch := topo.NumCores(), topo.NumChiplets()
	flags := b.next()
	s := Snapshot{WorkerCore: make([]topology.CoreID, 1+int(b.next())%n)}
	for w := range s.WorkerCore {
		s.WorkerCore[w] = topology.CoreID(int(b.next()) % n)
	}
	if flags&1 != 0 {
		s.Live = make([]bool, n)
		for c := range s.Live {
			s.Live[c] = b.next()%4 != 0
		}
	}
	if flags&2 != 0 {
		s.QueueDepth = make([]int64, len(s.WorkerCore))
		for w := range s.QueueDepth {
			s.QueueDepth[w] = b.next() % 4
		}
	}
	if flags&4 != 0 {
		s.PlanMilli = make([]int64, nch)
		for ch := range s.PlanMilli {
			s.PlanMilli[ch] = []int64{0, 1000, 1500, 3000}[b.next()%4]
		}
	}
	if flags&8 != 0 {
		s.ObsMilli = make([]int64, nch)
		for ch := range s.ObsMilli {
			s.ObsMilli[ch] = []int64{0, 900, 1500, 2600}[b.next()%4]
		}
	}
	if flags&16 != 0 {
		s.BreakerOpen = make([]bool, nch)
		for ch := range s.BreakerOpen {
			s.BreakerOpen[ch] = b.next()%3 == 0
		}
	}
	if flags&32 != 0 {
		// Temperatures from 60 °C to ~98 °C around an 85 °C soft setpoint,
		// or no setpoint at all (the thermal band is then off).
		s.TempMilliC = make([]int64, nch)
		for ch := range s.TempMilliC {
			s.TempMilliC[ch] = 60_000 + b.next()*150
		}
		if flags&64 != 0 {
			s.TempSoftMilliC = 85_000
		}
	}
	if flags&128 != 0 {
		s.LinkUtilMilli = make([]int64, nch)
		for ch := range s.LinkUtilMilli {
			s.LinkUtilMilli[ch] = b.next() * 5
		}
	}
	return s
}

// FuzzChipletsByPreference holds View.ChipletsByPreference to the
// reference model for every rotation cursor and every kind preference, on
// a small synthetic machine, on the dual-socket Milan preset and on the
// heterogeneous mesh (fast, efficient and accelerator chiplets). Each
// snapshot is queried twice: on a freshly built view, and on a view first
// built and queried on the next machine, then rebuilt through Reset — so
// nothing a reused view kept (defaults, fused health, the candidate
// buffer) can leak into its
// next decision.
func FuzzChipletsByPreference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 7, 0, 1, 2, 3, 4, 5, 6, 7, 1, 2, 3, 0, 1, 2, 3, 0})
	f.Add([]byte{0x3e, 3, 0, 2, 4, 6, 1, 1, 2, 3, 3, 3, 0, 0, 0, 1, 2, 2, 0, 200, 10, 180, 255})
	f.Add([]byte{0x7f, 0, 5, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255})
	het, err := hetMesh()
	if err != nil {
		f.Fatal(err)
	}
	ranks := []*Ranks{
		NewRanks(topology.Synthetic(4, 2)),
		NewRanks(topology.AMDMilan7713x2()),
		NewRanks(het),
	}
	kinds := []topology.ChipletKind{topology.KindAny, topology.KindFast, topology.KindEfficient, topology.KindAccel}
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		var reused View
		var got []topology.ChipletID
		var gotW, wantW []int
		for i, r := range ranks {
			other := ranks[(i+1)%len(ranks)]
			reused.Reset(other, 7, fuzzSnapshot(other.topo, &b))
			got = reused.ChipletsByPreference(got[:0], 3, topology.KindAccel)
			s := fuzzSnapshot(r.topo, &b)
			fresh := NewView(r, 42, s)
			reused.Reset(r, 42, s)
			nch := r.topo.NumChiplets()
			for _, kind := range kinds {
				for cursor := 0; cursor <= nch; cursor++ {
					want := refChipletsByPreference(fresh, cursor, kind)
					if got = fresh.ChipletsByPreference(got[:0], cursor, kind); !slices.Equal(got, want) {
						t.Fatalf("%d chiplets, cursor %d, prefer %v: fresh view orders %v, reference %v", nch, cursor, kind, got, want)
					}
					if got = reused.ChipletsByPreference(got[:0], cursor, kind); !slices.Equal(got, want) {
						t.Fatalf("%d chiplets, cursor %d, prefer %v: reset view orders %v, reference %v", nch, cursor, kind, got, want)
					}
				}
			}
			for ch := 0; ch < nch; ch++ {
				id := topology.ChipletID(ch)
				wantW = fresh.LiveWorkersOn(wantW[:0], id)
				if gotW = reused.LiveWorkersOn(gotW[:0], id); !slices.Equal(gotW, wantW) {
					t.Fatalf("chiplet %d: reset view's live workers %v, fresh view's %v", ch, gotW, wantW)
				}
			}
		}
	})
}
