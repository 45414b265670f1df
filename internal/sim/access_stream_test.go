package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"charm/internal/cache"
	"charm/internal/fabric"
	"charm/internal/fault"
	"charm/internal/mem"
	"charm/internal/obs"
	"charm/internal/rng"
	"charm/internal/topology"
)

// streamTwin drives Machine.Access and the reference access path
// (access_ref_test.go) through one access sequence on two identically
// built, instrumented machines and compares everything observable after
// every access.
type streamTwin struct {
	tb       testing.TB
	m, ref   *Machine
	reg, rrg *obs.Registry
	region   mem.Addr
	links    []fabric.LinkInfo
	// sysFills counts the remote-L3 and DRAM fills of the multi-line
	// accesses, in sampled lines: what the charge runs must account for.
	sysFills int64
	checks   int
	// faulty marks a twin with the brownout plan armed.
	faulty bool
}

const (
	twinRegion = 256 << 10 // the topo experiment's hot array: 4x one L3 slice
	twinCfgs   = 5 * 2 * 2 * 2
)

// newStreamTwin builds the twin for configuration cfg in [0, twinCfgs):
// fabric kind x {homogeneous two-socket, the topo experiment's
// heterogeneous mix} x SampleShift {0, 2} x {healthy, brownout plan}.
func newStreamTwin(tb testing.TB, cfg int) *streamTwin {
	tb.Helper()
	kind := fabric.Kinds()[cfg%5]
	het := cfg/5%2 == 1
	shift := uint(cfg / 10 % 2 * 2)
	faulty := cfg/20%2 == 1

	spec := kind.String() + ":2x2,sockets=2"
	if het {
		spec = kind.String() + ":4x2,fast=2,eff=4,accel=2"
	}
	sp, err := topology.ParseTopoSpec(spec)
	if err != nil {
		tb.Fatal(err)
	}
	topo, err := sp.Build()
	if err != nil {
		tb.Fatal(err)
	}
	var plan *fault.Plan
	if faulty {
		// Windows that open and close inside the run, so a degradation
		// factor changes between two lines of one access.
		s := fault.New("stream", 1).
			LinkBrownout(0, 0, fault.Forever, 4).
			LinkBrownout(3, 20_000, 90_000, 3).
			MemBrownout(0, 15_000, 200_000, 8)
		if plan, err = s.Compile(topo); err != nil {
			tb.Fatal(err)
		}
	}
	w := &streamTwin{tb: tb, faulty: faulty}
	build := func() (*Machine, *obs.Registry) {
		m := New(Config{Topo: topo, Fabric: kind, SampleShift: shift, MLP: 32})
		reg := obs.NewRegistry(1)
		reg.SetEnabled(true)
		m.Instrument(reg)
		m.SetFaultPlan(plan)
		w.region = m.Space.Alloc(twinRegion, mem.Interleave, 0)
		return m, reg
	}
	w.m, w.reg = build()
	w.ref, w.rrg = build()
	w.links = w.m.Fabric.Links()
	return w
}

// access runs one access on both machines and compares them.
func (w *streamTwin) access(core topology.CoreID, t, off, size int64, write bool) int64 {
	w.tb.Helper()
	addr := w.region + mem.Addr(off)
	multi := uint64(addr)>>cache.LineShift != (uint64(addr)+uint64(size)-1)>>cache.LineShift
	before := w.m.PMU.FillsFromSystem(int(core))
	got := w.m.Access(core, t, addr, size, write)
	want := refAccess(w.ref, core, t, addr, size, write)
	if multi {
		w.sysFills += (w.m.PMU.FillsFromSystem(int(core)) - before) / w.m.sampleFactor
	}
	what := fmt.Sprintf("core %d t=%d off=%d size=%d write=%v", core, t, off, size, write)
	if got != want {
		w.tb.Fatalf("%s: cost %d, reference %d", what, got, want)
	}
	w.compare(what, t, t+got)
	return got
}

// compare holds the two machines' observable state equal: PMU, EWMAs,
// cache statistics, directory, and — at every accounting window [t0, t1]
// touches and at t1 — every link's occupancy and the whole metric
// snapshot: PMU and L3 funcs, per-link and per-channel byte and delay
// counters, link occupancy and channel bandwidth gauges, host self-metrics
// aside.
func (w *streamTwin) compare(what string, t0, t1 int64) {
	w.tb.Helper()
	m, ref := w.m, w.ref
	if got, want := m.PMU.Snapshot(), ref.PMU.Snapshot(); !reflect.DeepEqual(got, want) {
		w.tb.Fatalf("%s: PMU\n%v\nreference\n%v", what, got, want)
	}
	for c := range m.avg {
		if got, want := m.avg[c].v.Load(), ref.avg[c].v.Load(); got != want {
			w.tb.Fatalf("%s: core %d EWMA %d, reference %d", what, c, got, want)
		}
	}
	stats := func(c *cache.Cache) [3]int64 {
		if c == nil {
			return [3]int64{}
		}
		h, ms := c.Stats()
		return [3]int64{h, ms, c.Evictions()}
	}
	for c := range m.l2 {
		if got, want := stats(m.l2[c]), stats(ref.l2[c]); got != want {
			w.tb.Fatalf("%s: core %d L2 hits/misses/evictions %v, reference %v", what, c, got, want)
		}
	}
	for ch := range m.l3 {
		if got, want := stats(m.l3[ch]), stats(ref.l3[ch]); got != want {
			w.tb.Fatalf("%s: chiplet %d L3 hits/misses/evictions %v, reference %v", what, ch, got, want)
		}
	}
	// The directory and the metric snapshot are compared every fourth
	// access: both hold what went wrong earlier, and walking 4096 lines or
	// sorting a few hundred samples per access would be most of the test.
	w.checks++
	if w.checks%4 == 0 {
		var sc, rsc dirCache
		first := uint64(w.region) >> cache.LineShift
		for line := first; line < first+twinRegion>>cache.LineShift; line++ {
			if got, want := m.dir.holders(line, &sc), ref.dir.holders(line, &rsc); got != want {
				w.tb.Fatalf("%s: line %#x held by %b, reference %b", what, line, got, want)
			}
		}
		if got, want := m.dir.lines(), ref.dir.lines(); got != want {
			w.tb.Fatalf("%s: directory tracks %d lines, reference %d", what, got, want)
		}
	}
	at := func(t int64) {
		for i := range w.links {
			if got, want := m.Fabric.LinkUtilMilli(i, t), ref.Fabric.LinkUtilMilli(i, t); got != want {
				w.tb.Fatalf("%s: link %s occupancy at %d is %d, reference %d", what, w.links[i].Name, t, got, want)
			}
		}
		if w.checks%4 != 0 {
			return
		}
		got, want := w.reg.Snapshot(t).Samples, w.rrg.Snapshot(t).Samples
		if len(got) != len(want) {
			w.tb.Fatalf("%s: %d metrics, reference %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].Value != want[i].Value && !strings.HasPrefix(got[i].Name, "charm_host_") {
				w.tb.Fatalf("%s: at %d %s = %v, reference %s = %v",
					what, t, got[i].Key(), got[i].Value, want[i].Key(), want[i].Value)
			}
		}
	}
	for win := t0 / windowNS; win <= t1/windowNS && win < t0/windowNS+64; win++ {
		at(win * windowNS)
	}
	at(t1)
}

// hostCounts returns the machine's charge-run self-metrics.
func (w *streamTwin) hostCounts() (runs, lines, fallback int64) {
	s := w.reg.Snapshot(0)
	v := func(name string) int64 { return int64(s.Find(name, nil).Value) }
	return v("charm_host_charge_runs_total"), v("charm_host_charge_lines_total"),
		v("charm_host_charge_fallback_lines_total")
}

// delayNS sums the queueing delay the machine's links have handed out.
func (w *streamTwin) delayNS() (d int64) {
	s := w.reg.Snapshot(0)
	for i := range s.Samples {
		if s.Samples[i].Name == "charm_fabric_queue_delay_ns_total" {
			d += int64(s.Samples[i].Value)
		}
	}
	return d
}

// checkRuns holds the self-metrics to what they claim: every remote-L3 or
// DRAM fill of a multi-line access was charged in a run or singly.
func (w *streamTwin) checkRuns() {
	w.tb.Helper()
	_, lines, fallback := w.hostCounts()
	if lines+fallback != w.sysFills {
		w.tb.Fatalf("%d coalesced + %d fallback lines, but multi-line accesses made %d remote-L3 and DRAM fills",
			lines, fallback, w.sysFills)
	}
}

// op decodes four bytes into one access of 1-600 lines on the twin's
// per-core clocks and performs it. Flag bits: 0 write, 1-2 size class
// (within a line, 2-9 lines, up to 600 lines twice), 3 start the access
// just before its window's end so it crosses the boundary, 4 first load
// the window with up to 512 KiB of other traffic (a transfer into the
// core's chiplet and a read of a memory node), so the access finds its
// routes part full: a run starts, runs out of headroom and falls back.
func (w *streamTwin) op(now []int64, b [4]byte) {
	w.tb.Helper()
	core := int(b[0]) % len(now)
	off := int64(b[1]) << 10
	var size int64
	switch b[3] >> 1 & 3 {
	case 0:
		off += int64(b[2] & 63)
		size = 1 + int64(b[2]>>6)%(64-off%64)
	case 1:
		size = (2+int64(b[2]&7))*64 - int64(b[2]>>3)
	default:
		size = (1 + int64(b[2])*599/255) * 64
	}
	if off+size > twinRegion {
		off = twinRegion - size
	}
	if b[3]&8 != 0 {
		now[core] += windowNS - 1 - (now[core]+int64(b[3]>>5)*40)%windowNS
	}
	if b[3]&16 != 0 {
		topo := w.m.Topo
		src := topology.ChipletID(int(b[0]>>4) % topo.NumChiplets())
		node := topology.NodeID(int(b[1]) % topo.NumNodes())
		bytes := (int64(b[2]) + 1) << 11
		for _, m := range []*Machine{w.m, w.ref} {
			m.Fabric.ChargeTransfer(src, m.chipletOf[core], now[core], bytes)
			m.DRAM.Charge(node, now[core], bytes)
		}
	}
	now[core] += w.access(topology.CoreID(core), now[core], off, size, b[3]&1 != 0)
}

// TestAccessStreamMatchesReference holds Machine.Access — single-line path,
// tallied fills, coalesced charges — to the reference per-line path on
// every fabric, on a homogeneous and a heterogeneous machine, exact and
// sampled, healthy and browned out. Other traffic loads some windows (see
// streamTwin.op), so links run past capacity and headroom refuses runs
// part way; with the brownout plan armed no run may form at all.
func TestAccessStreamMatchesReference(t *testing.T) {
	ops := 200
	if testing.Short() {
		ops = 60
	}
	for cfg := 0; cfg < twinCfgs; cfg++ {
		w := newStreamTwin(t, cfg)
		name := fmt.Sprintf("%s/het=%v/shift%d/faults=%v",
			w.m.Fabric.Kind(), w.m.accMilli != nil, w.m.sampleShift, w.faulty)
		t.Run(name, func(t *testing.T) {
			w.tb = t
			now := make([]int64, w.m.Topo.NumCores())
			s := rng.Seed(19, uint64(cfg))
			for i := 0; i < ops; i++ {
				// Half the accesses long, a quarter within one line, a
				// quarter writes; one in 16 starts at its window's end, one
				// in 8 finds other traffic in its window.
				r := rng.SplitMix64(&s) % (1 << 41)
				flags := byte(r>>24)&0xe1 | [4]byte{0, 2, 4, 4}[r>>25&3]
				if r>>32&3 != 0 {
					flags &^= 1
				}
				if r>>34&15 == 0 {
					flags |= 8
				}
				if r>>38&7 == 0 {
					flags |= 16
				}
				w.op(now, [4]byte{byte(r), byte(r >> 8), byte(r >> 16), flags})
			}
			w.checkRuns()
			runs, lines, fallback := w.hostCounts()
			if w.faulty {
				if runs != 0 || lines != 0 || fallback == 0 {
					t.Fatalf("fault plan armed: %d runs of %d lines, %d single charges; want no runs", runs, lines, fallback)
				}
				return
			}
			if runs == 0 || lines < 8*runs {
				t.Errorf("%d runs coalesced %d lines: the streamed loop barely coalesces", runs, lines)
			}
			if fallback == 0 || w.delayNS() == 0 {
				t.Errorf("%d lines refused by headroom, %d ns link delay: no link ran past capacity", fallback, w.delayNS())
			}
		})
	}
}

// FuzzAccessStream is TestAccessStreamMatchesReference on a fuzzer-chosen
// access stream (four bytes an access, see streamTwin.op) and configuration.
func FuzzAccessStream(f *testing.F) {
	// One long read per core at one time, then again: cross-chiplet fills
	// that saturate links (mesh, heterogeneous, healthy).
	var sweep []byte
	for i := 0; i < 32; i++ {
		sweep = append(sweep, byte(i), byte(i*32), 255, 4)
	}
	f.Add(sweep, uint8(6))
	// Writes and window-end starts on the sampled two-socket star.
	f.Add([]byte{0, 0, 200, 5, 9, 0, 200, 12, 3, 1, 77, 3, 9, 0, 200, 13, 0, 0, 9, 0}, uint8(10))
	// The same under the brownout plan on a ring.
	f.Add([]byte{0, 0, 200, 5, 9, 0, 200, 12, 3, 1, 77, 3, 9, 0, 200, 13, 0, 0, 9, 0}, uint8(22))
	f.Fuzz(func(t *testing.T, ops []byte, cfg uint8) {
		if len(ops) > 4*256 {
			ops = ops[:4*256]
		}
		w := newStreamTwin(t, int(cfg)%twinCfgs)
		now := make([]int64, w.m.Topo.NumCores())
		for i := 0; i+3 < len(ops); i += 4 {
			w.op(now, [4]byte(ops[i:i+4]))
		}
		w.checkRuns()
	})
}
