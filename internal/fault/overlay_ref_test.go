package fault

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"charm/internal/topology"
)

// refOverlay is the overlay as it was before the append-only log: every
// append copies the chiplet's whole list into a new slice and swaps the
// pointer, and a same-t thermal append replaces the last step instead of
// superseding it. It is the oracle FuzzOverlayAppend checks the log
// against.
type refOverlay struct {
	therm []atomic.Pointer[[]step]
	park  []atomic.Pointer[[]span]
}

func newRefOverlay(topo *topology.Topology) *refOverlay {
	return &refOverlay{
		therm: make([]atomic.Pointer[[]step], topo.NumChiplets()),
		park:  make([]atomic.Pointer[[]span], topo.NumChiplets()),
	}
}

func (o *refOverlay) appendThermal(ch topology.ChipletID, t, milli int64) {
	if milli < 1000 {
		milli = 1000
	}
	cur := o.therm[ch].Load()
	var steps []step
	if cur != nil {
		n := len(*cur)
		if n > 0 {
			if last := (*cur)[n-1]; last.t > t {
				panic(fmt.Sprintf("fault: overlay thermal append at t=%d before last step t=%d (chiplet %d)", t, last.t, ch))
			} else if last.t == t {
				steps = append(append([]step(nil), (*cur)[:n-1]...), step{t, milli})
				o.therm[ch].Store(&steps)
				return
			} else if last.milli == milli {
				return
			}
		}
		steps = append([]step(nil), *cur...)
	}
	steps = append(steps, step{t, milli})
	o.therm[ch].Store(&steps)
}

func (o *refOverlay) appendPark(ch topology.ChipletID, from, to int64) {
	if to <= from {
		return
	}
	cur := o.park[ch].Load()
	var spans []span
	if cur != nil {
		if n := len(*cur); n > 0 && (*cur)[n-1].to > from {
			panic(fmt.Sprintf("fault: overlay park append [%d,%d) overlaps last span ending %d (chiplet %d)", from, to, (*cur)[n-1].to, ch))
		}
		spans = append([]span(nil), *cur...)
	}
	spans = append(spans, span{from, to})
	o.park[ch].Store(&spans)
}

func (o *refOverlay) steps(ch topology.ChipletID) []step {
	if cur := o.therm[ch].Load(); cur != nil {
		return *cur
	}
	return nil
}

func (o *refOverlay) spans(ch topology.ChipletID) []span {
	if cur := o.park[ch].Load(); cur != nil {
		return *cur
	}
	return nil
}

// refThermalSegment is Plan.ThermalSegment over a plan without an
// overlay (static) and the reference overlay on a grid of period tick,
// for t >= 0.
func refThermalSegment(static *Plan, o *refOverlay, tick int64, ch topology.ChipletID, t int64) (milli, until int64) {
	milli, until = static.ThermalSegment(ch, t)
	steps := o.steps(ch)
	om, ou := segmentAt(steps, t)
	if len(steps) > 0 && steps[0].t <= t {
		milli, until = om, ou
	} else if ou < until {
		until = ou
	}
	return milli, min(until, (t/tick+1)*tick)
}

func refCoreDown(static *Plan, o *refOverlay, c topology.CoreID, t int64) bool {
	_, parked := spanAt(o.spans(static.topo.ChipletOf(c)), t)
	return static.CoreDown(c, t) || parked
}

func refCoreUpUntil(static *Plan, o *refOverlay, c topology.CoreID, t int64) (bool, int64) {
	if refCoreDown(static, o, c, t) {
		return false, t
	}
	_, until := static.CoreUpUntil(c, t)
	return true, min(until, nextSpan(o.spans(static.topo.ChipletOf(c)), t))
}

// FuzzOverlayAppend drives one monotone sequence of thermal steps and park
// spans, chosen by the input bytes, into an overlay and into the
// copy-on-append reference, over the same static schedule. The sequences
// include same-t replacements, repeated factors, factors below the floor
// and empty park spans. At fuzz-chosen times between appends, and on a
// grid after the last one, ThermalSegment, CoreDown and CoreUpUntil must
// answer the same for every chiplet and core.
func FuzzOverlayAppend(f *testing.F) {
	f.Add([]byte{0, 1, 0, 9, 0, 1, 1, 4, 0, 1, 0, 4, 2, 40, 1, 2, 30, 80, 3, 7, 0, 0, 2, 2, 2, 99})
	f.Add([]byte{5, 7, 0, 2, 3, 0, 2, 0, 3, 1, 0, 1, 60, 0, 1, 0, 61, 90, 2, 200, 2, 3, 0, 3, 1, 2, 150})
	f.Add([]byte{1, 0, 0, 0, 1, 0, 10, 10, 1, 0, 0, 1, 0, 1, 0, 5, 3, 0, 0, 0, 2, 5, 2, 17})
	f.Fuzz(func(t *testing.T, in []byte) {
		const tick = 64
		topo := topology.Synthetic(3, 2) // 3 chiplets x 2 cores
		next := func(n int) int64 {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return int64(int(b) % n)
		}
		s := New("fuzz", 1)
		for k := next(3); k > 0; k-- {
			from := next(256) * 8
			to := from + 1 + next(256)*4
			switch next(3) {
			case 0:
				s.ThermalThrottle(topology.ChipletID(next(3)), from, to, 1.5)
			case 1:
				s.OfflineCore(topology.CoreID(next(6)), from, to)
			default:
				s.OfflineChiplet(topology.ChipletID(next(3)), from, to)
			}
		}
		static, err := s.Compile(topo)
		if err != nil {
			t.Skip(err)
		}
		p, err := s.Compile(topo)
		if err != nil {
			t.Fatal(err)
		}
		ov, err := NewOverlay(topo, tick)
		if err != nil {
			t.Fatal(err)
		}
		p.AttachOverlay(ov)
		ref := newRefOverlay(topo)

		check := func(at int64) {
			for ch := topology.ChipletID(0); int(ch) < topo.NumChiplets(); ch++ {
				gm, gu := p.ThermalSegment(ch, at)
				if wm, wu := refThermalSegment(static, ref, tick, ch, at); gm != wm || gu != wu {
					t.Fatalf("ThermalSegment(%d, %d) = (%d, %d), reference (%d, %d); steps %v, reference %v",
						ch, at, gm, gu, wm, wu, ov.therm[ch].load(), ref.steps(ch))
				}
			}
			for c := topology.CoreID(0); int(c) < topo.NumCores(); c++ {
				if got, want := p.CoreDown(c, at), refCoreDown(static, ref, c, at); got != want {
					t.Fatalf("CoreDown(%d, %d) = %v, reference %v", c, at, got, want)
				}
				gu, gt := p.CoreUpUntil(c, at)
				if wu, wt := refCoreUpUntil(static, ref, c, at); gu != wu || gt != wt {
					t.Fatalf("CoreUpUntil(%d, %d) = (%v, %d), reference (%v, %d)", c, at, gu, gt, wu, wt)
				}
			}
		}

		millis := []int64{1000, 1500, 2000, 4000, 500}
		thermAt := make([]int64, topo.NumChiplets())
		parkEnd := make([]int64, topo.NumChiplets())
		horizon := int64(0)
		for len(in) > 0 {
			switch op := next(4); op {
			case 0: // a thermal step; dt 0 supersedes the last step
				ch := topology.ChipletID(next(3))
				thermAt[ch] += next(4) * 13
				m := millis[next(len(millis))]
				ov.AppendThermal(ch, thermAt[ch], m)
				ref.appendThermal(ch, thermAt[ch], m)
				horizon = max(horizon, thermAt[ch])
			case 1: // a park span, possibly empty
				ch := topology.ChipletID(next(3))
				from := parkEnd[ch] + next(100)
				to := from + next(150)
				ov.AppendPark(ch, from, to)
				ref.appendPark(ch, from, to)
				if to > from {
					parkEnd[ch] = to
				}
				horizon = max(horizon, parkEnd[ch])
			default:
				check(next(256)*16 + next(16))
			}
		}
		for at := int64(0); at <= horizon+2*tick; at += 7 {
			check(at)
		}
	})
}

// TestOverlayConcurrentReaders queries the plan from reader goroutines
// while one writer appends thermal steps and park spans, as the governor
// does while workers read. Every answer for a time the writer has already
// passed is final and must match the schedule the writer follows; under
// -race it also checks that an append never writes what a reader may
// hold.
func TestOverlayConcurrentReaders(t *testing.T) {
	topo := topology.Synthetic(4, 2) // 4 chiplets x 2 cores
	p, err := New("c", 1).Compile(topo)
	if err != nil {
		t.Fatal(err)
	}
	ov, err := NewOverlay(topo, 10)
	if err != nil {
		t.Fatal(err)
	}
	p.AttachOverlay(ov)
	// Step i lands at t = 10i on every chiplet, with a factor unlike its
	// predecessor's so none is skipped; chiplet 1 parks for [40k, 40k+20).
	const appends = 5000
	milliAt := func(i int64) int64 { return 1000 + 500*(i%3) }
	var passed atomic.Int64 // every append at or before this time is in
	passed.Store(-1)
	var done atomic.Bool
	errs := make(chan error, 4)
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for !done.Load() {
				h := passed.Load()
				if h < 0 {
					continue
				}
				x := rng.Int63n(h + 1)
				ch := topology.ChipletID(rng.Intn(topo.NumChiplets()))
				if m, u := p.ThermalSegment(ch, x); m != milliAt(x/10) || u <= x {
					errs <- fmt.Errorf("ThermalSegment(%d, %d) = (%d, %d), want factor %d", ch, x, m, u, milliAt(x/10))
					return
				}
				down := x%40 < 20
				if got := p.CoreDown(2, x); got != down {
					errs <- fmt.Errorf("CoreDown(2, %d) = %v, want %v", x, got, down)
					return
				}
				// The next span is in once the writer has passed its start.
				nextPark := x - x%40 + 40
				if up, until := p.CoreUpUntil(2, x); up == down ||
					(up && until != nextPark && (until != Forever || nextPark <= h)) {
					errs <- fmt.Errorf("CoreUpUntil(2, %d) = (%v, %d)", x, up, until)
					return
				}
			}
		}(int64(r))
	}
	for i := int64(0); i < appends; i++ {
		at := 10 * i
		for ch := topology.ChipletID(0); int(ch) < topo.NumChiplets(); ch++ {
			ov.AppendThermal(ch, at, milliAt(i))
		}
		if i%4 == 0 {
			ov.AppendPark(1, at, at+20)
		}
		passed.Store(at)
	}
	done.Store(true)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
