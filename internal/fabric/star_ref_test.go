package fabric

import (
	"math"
	"reflect"
	"strconv"
	"testing"

	"charm/internal/fault"
	"charm/internal/mem"
	"charm/internal/obs"
	"charm/internal/topology"
)

// Star is the hub-and-spoke interconnect as a hand-written model of its
// own, the way it was implemented before the hub became one of Fabric's
// link graphs: every chiplet has one link to its socket's I/O die, and
// sockets are joined by external links. It is the reference model
// FuzzHubMatchesStar replays against Build(KindStar, ...), trimmed to the
// methods the fuzzer compares; its telemetry is plain per-link counters in
// Links order (chiplet links, then socket links).
type Star struct {
	topo         *topology.Topology
	chipletLinks []*mem.TokenBucket
	socketLinks  []*mem.TokenBucket
	socketOf     []topology.SocketID
	bytes, delay []int64
	faults       *fault.Plan
}

func newStar(t *topology.Topology, windowNS int64) *Star {
	f := &Star{topo: t}
	f.chipletLinks = make([]*mem.TokenBucket, t.NumChiplets())
	for i := range f.chipletLinks {
		f.chipletLinks[i] = mem.NewTokenBucket(t.Cost.FabricBandwidth, windowNS)
	}
	f.socketLinks = make([]*mem.TokenBucket, t.Sockets)
	for i := range f.socketLinks {
		f.socketLinks[i] = mem.NewTokenBucket(t.Cost.SocketBandwidth, windowNS)
	}
	f.socketOf = make([]topology.SocketID, t.NumChiplets())
	for ch := range f.socketOf {
		f.socketOf[ch] = t.SocketOfNode(t.NodeOfChiplet(topology.ChipletID(ch)))
	}
	f.bytes = make([]int64, len(f.chipletLinks)+len(f.socketLinks))
	f.delay = make([]int64, len(f.bytes))
	return f
}

func (f *Star) record(i int, bytes, d int64) int64 {
	f.bytes[i] += bytes
	f.delay[i] += d
	return d
}

func (f *Star) chargeChiplet(ch topology.ChipletID, t, bytes int64) int64 {
	return f.record(int(ch), bytes, f.chipletLinks[ch].ChargeScaled(t, bytes, f.faults.ChipletLinkMilli(ch, t)))
}

func (f *Star) chargeSocket(s topology.SocketID, t, bytes int64) int64 {
	return f.record(len(f.chipletLinks)+int(s), bytes, f.socketLinks[s].ChargeScaled(t, bytes, 1000))
}

func (f *Star) ChargeTransfer(src, dst topology.ChipletID, t, bytes int64) int64 {
	if src == dst {
		return 0
	}
	d := f.chargeChiplet(src, t, bytes)
	if d2 := f.chargeChiplet(dst, t, bytes); d2 > d {
		d = d2
	}
	ss, ds := f.socketOf[src], f.socketOf[dst]
	if ss != ds {
		if d2 := f.chargeSocket(ss, t, bytes); d2 > d {
			d = d2
		}
		if d2 := f.chargeSocket(ds, t, bytes); d2 > d {
			d = d2
		}
	}
	return d
}

func (f *Star) ChargeMemory(ch topology.ChipletID, n topology.NodeID, t, bytes int64) int64 {
	d := f.chargeChiplet(ch, t, bytes)
	cs, ns := f.socketOf[ch], f.topo.SocketOfNode(n)
	if cs != ns {
		if d2 := f.chargeSocket(cs, t, bytes); d2 > d {
			d = d2
		}
		if d2 := f.chargeSocket(ns, t, bytes); d2 > d {
			d = d2
		}
	}
	return d
}

func (f *Star) headroom(a, b topology.ChipletID, sa, sb topology.SocketID, t int64) int64 {
	if f.faults != nil {
		return 0
	}
	room := min(f.chipletLinks[a].Headroom(t), f.chipletLinks[b].Headroom(t))
	if sa != sb {
		room = min(room, f.socketLinks[sa].Headroom(t), f.socketLinks[sb].Headroom(t))
	}
	return room
}

func (f *Star) TransferHeadroom(src, dst topology.ChipletID, t int64) int64 {
	if src == dst {
		return math.MaxInt64
	}
	return f.headroom(src, dst, f.socketOf[src], f.socketOf[dst], t)
}

func (f *Star) MemoryHeadroom(ch topology.ChipletID, n topology.NodeID, t int64) int64 {
	return f.headroom(ch, ch, f.socketOf[ch], f.topo.SocketOfNode(n), t)
}

func (f *Star) MessageDelay(src, dst topology.CoreID, t, bytes int64) int64 {
	lat := f.topo.CASLatency(src, dst)
	sc, dc := f.topo.ChipletOf(src), f.topo.ChipletOf(dst)
	if sc != dc {
		milli := f.faults.ChipletLinkMilli(sc, t)
		if m := f.faults.ChipletLinkMilli(dc, t); m > milli {
			milli = m
		}
		lat = lat * milli / 1000
	}
	return lat + f.ChargeTransfer(sc, dc, t, bytes)
}

func (f *Star) Links() []LinkInfo {
	out := make([]LinkInfo, 0, len(f.bytes))
	for i := range f.chipletLinks {
		ch := topology.ChipletID(i)
		out = append(out, LinkInfo{Name: "ccd" + strconv.Itoa(i), A: ch, B: ch, Socket: -1})
	}
	for i := range f.socketLinks {
		out = append(out, LinkInfo{Name: "socket" + strconv.Itoa(i), A: -1, B: -1, Socket: topology.SocketID(i)})
	}
	return out
}

func (f *Star) TransferRoute(src, dst topology.ChipletID) []int {
	if src == dst {
		return nil
	}
	route := []int{int(src), int(dst)}
	if ss, ds := f.socketOf[src], f.socketOf[dst]; ss != ds {
		route = append(route, len(f.chipletLinks)+int(ss), len(f.chipletLinks)+int(ds))
	}
	return route
}

func (f *Star) LinkUtilMilli(i int, t int64) int64 {
	if i < len(f.chipletLinks) {
		return f.chipletLinks[i].UtilMilli(t)
	}
	return f.socketLinks[i-len(f.chipletLinks)].UtilMilli(t)
}

func (f *Star) ChipletUtilMilli(ch topology.ChipletID, t int64) int64 {
	return f.chipletLinks[ch].UtilMilli(t)
}

// hubTopos are the machines the hub is compared with Star on.
func hubTopos() []*topology.Topology {
	return []*topology.Topology{
		topology.AMDMilan7713x2(), topology.AMDMilanNPS4(), topology.IntelSPR8488Cx2(), topology.SyntheticDual(4, 2),
	}
}

// TestHubMatchesStarLayout: the hub graph has Star's links, in Star's
// order and with Star's names, and routes every transfer over Star's links
// in Star's order, so telemetry labels and link maps are unchanged.
func TestHubMatchesStarLayout(t *testing.T) {
	for _, topo := range hubTopos() {
		hub, ref := Build(KindStar, topo, 1000), newStar(topo, 1000)
		if got, want := hub.Links(), ref.Links(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Links:\n got %v\nwant %v", topo.Name, got, want)
		}
		for src := range topo.NumChiplets() {
			for dst := range topo.NumChiplets() {
				a, b := topology.ChipletID(src), topology.ChipletID(dst)
				if got, want := hub.TransferRoute(a, b), ref.TransferRoute(a, b); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: TransferRoute(%d, %d) = %v, want %v", topo.Name, src, dst, got, want)
				}
			}
		}
	}
}

// FuzzHubMatchesStar replays a fuzz-chosen operation sequence against the
// hub link graph of Fabric and the Star reference, healthy or with a link
// brownout armed, and requires every return value and
// every per-link byte and queueing-delay counter to agree after every
// operation. Each operation is five bytes: the operation, two operands
// (chiplets, a node, cores or a link index), a signed time step and a size.
// Headrooms are compared off the diagonal only: an empty route's headroom
// under a fault plan is 0 on Fabric and was unbounded on Star, and no
// caller asks for it.
func FuzzHubMatchesStar(f *testing.F) {
	// Seeds: 300 pseudo-random operations per machine, time drifting
	// forward through both brownouts, sizes large enough to saturate links.
	seed := uint64(1)
	topos := hubTopos()
	for topo := range topos {
		for _, faulted := range []bool{false, true} {
			ops := make([]byte, 5*300)
			for i := range ops {
				seed = seed*6364136223846793005 + 1442695040888963407
				ops[i] = byte(seed >> 56)
			}
			f.Add(uint8(topo), faulted, ops)
		}
	}
	f.Fuzz(func(t *testing.T, topoSel uint8, faulted bool, ops []byte) {
		topo := topos[int(topoSel)%len(topos)]
		const window = 1000
		hub, ref := Build(KindStar, topo, window), newStar(topo, window)
		reg := obs.NewRegistry(1)
		reg.SetEnabled(true)
		hub.Instrument(reg)
		if faulted {
			plan, err := fault.New("hub-vs-star", 1).
				LinkBrownout(1, 5_000, 60_000, 3).
				Compile(topo)
			if err != nil {
				t.Fatal(err)
			}
			hub.SetFaultPlan(plan)
			ref.faults = plan
		}

		nch, nn, ncores := topo.NumChiplets(), topo.NumNodes(), topo.NumCores()
		links := ref.Links()
		var now int64
		for step := 0; len(ops) >= 5; step, ops = step+1, ops[5:] {
			op, a, b := ops[0]%7, int(ops[1]), int(ops[2])
			now = max(0, now+(int64(ops[3])-96)*9)
			bytes := (int64(ops[4]) + 1) * 256
			src, dst := topology.ChipletID(a%nch), topology.ChipletID(b%nch)
			node := topology.NodeID(b % nn)
			var name string
			var got, want int64
			switch op {
			case 0:
				name = "ChargeTransfer"
				got, want = hub.ChargeTransfer(src, dst, now, bytes), ref.ChargeTransfer(src, dst, now, bytes)
			case 1:
				name = "ChargeMemory"
				got, want = hub.ChargeMemory(src, node, now, bytes), ref.ChargeMemory(src, node, now, bytes)
			case 2:
				if src == dst {
					continue
				}
				name = "TransferHeadroom"
				got, want = hub.TransferHeadroom(src, dst, now), ref.TransferHeadroom(src, dst, now)
			case 3:
				name = "MemoryHeadroom"
				got, want = hub.MemoryHeadroom(src, node, now), ref.MemoryHeadroom(src, node, now)
			case 4:
				name = "MessageDelay"
				sc, dc := topology.CoreID(a%ncores), topology.CoreID(b%ncores)
				got, want = hub.MessageDelay(sc, dc, now, bytes), ref.MessageDelay(sc, dc, now, bytes)
			case 5:
				name = "LinkUtilMilli"
				got, want = hub.LinkUtilMilli(a%len(links), now), ref.LinkUtilMilli(a%len(links), now)
			case 6:
				name = "ChipletUtilMilli"
				got, want = hub.ChipletUtilMilli(src, now), ref.ChipletUtilMilli(src, now)
			}
			if got != want {
				t.Fatalf("step %d: %s(%d, %d) at %d = %d, Star gives %d", step, name, a, b, now, got, want)
			}
			for i := range links {
				if hb, hd := hub.met[i].bytes.Value(), hub.met[i].delay.Value(); hb != ref.bytes[i] || hd != ref.delay[i] {
					t.Fatalf("step %d (%s): link %s has %d bytes, %d ns delay; Star has %d, %d",
						step, name, links[i].Name, hb, hd, ref.bytes[i], ref.delay[i])
				}
			}
		}
	})
}
