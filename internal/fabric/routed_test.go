package fabric

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"charm/internal/fault"
	"charm/internal/obs"
	"charm/internal/topology"
)

// testTopo is a dual-socket, 4-chiplets-per-socket machine — big enough
// that every routed kind has multi-hop paths and a cross-socket gateway.
func testTopo() *topology.Topology {
	return topology.SyntheticDual(4, 2)
}

// TransferRoute returns the link indices (into Links) a src→dst transfer
// charges, nil when src == dst.
func (f *Fabric) TransferRoute(src, dst topology.ChipletID) []int {
	if src == dst {
		return nil
	}
	path := f.routes.at(int(src), int(dst))
	out := make([]int, len(path))
	for i, li := range path {
		out[i] = int(li)
	}
	return out
}

// TestLinkConservation: every link on a transfer's route must account
// exactly the transferred bytes — no link skipped, no link double-charged,
// and links off the route untouched. Checked per kind for a same-socket
// and a cross-socket transfer.
func TestLinkConservation(t *testing.T) {
	for _, k := range Kinds() {
		t.Run(k.String(), func(t *testing.T) {
			f := Build(k, testTopo(), 1000)
			reg := obs.NewRegistry(1)
			reg.SetEnabled(true)
			f.Instrument(reg)
			const b1, b2 = 4096, 1 << 20
			f.ChargeTransfer(1, 3, 0, b1) // same socket
			f.ChargeTransfer(1, 6, 0, b2) // cross socket
			want := make(map[int]int64)
			for _, li := range f.TransferRoute(1, 3) {
				want[li] += b1
			}
			for _, li := range f.TransferRoute(1, 6) {
				want[li] += b2
			}
			var total int64
			for i := range f.Links() {
				got := f.met[i].bytes.Value() // the counter charm-obs fabric renders
				if got != want[i] {
					t.Errorf("link %d (%s): %d bytes accounted, want %d",
						i, f.Links()[i].Name, got, want[i])
				}
				total += got
			}
			wantTotal := int64(len(f.TransferRoute(1, 3)))*b1 +
				int64(len(f.TransferRoute(1, 6)))*b2
			if total != wantTotal {
				t.Errorf("total bytes %d, want %d (route-length × payload)", total, wantTotal)
			}
		})
	}
}

// TestTransferRouteEndpoints: a route must actually connect src to dst —
// consecutive links share a chiplet or an I/O die, the walk starts at src
// and ends at dst, and socket links appear exactly on cross-socket routes.
func TestTransferRouteEndpoints(t *testing.T) {
	topo := testTopo()
	for _, k := range Kinds() {
		t.Run(k.String(), func(t *testing.T) {
			f := Build(k, topo, 1000)
			nch := topo.NumChiplets()
			for src := 0; src < nch; src++ {
				for dst := 0; dst < nch; dst++ {
					if src == dst {
						if r := f.TransferRoute(topology.ChipletID(src), topology.ChipletID(dst)); r != nil {
							t.Fatalf("diagonal route %d→%d not nil", src, dst)
						}
						continue
					}
					walkRoute(t, f, topology.ChipletID(src), topology.ChipletID(dst))
				}
			}
		})
	}
}

// walkRoute follows the route link by link. A NoC link moves the walk
// between its two chiplets, a hub link between its chiplet and that
// chiplet's socket's I/O die. A cross-socket route reaches the source
// socket's gateway (the I/O die on the hub, local chiplet 0 of a NoC),
// crosses the two external links, which teleport the walk to the
// destination socket's gateway, and resumes there; the walk must end
// exactly at dst. A hub route lists both chiplet links before the socket
// links, so the destination's link is walked last.
func walkRoute(t *testing.T, f *Fabric, src, dst topology.ChipletID) {
	t.Helper()
	topo := f.topo
	cps := topo.NodesPerSocket * topo.ChipletsPerNode
	socketOf := func(ch topology.ChipletID) int { return int(topo.SocketOfNode(topo.NodeOfChiplet(ch))) }
	ioDie := func(s int) topology.ChipletID { return topology.ChipletID(-1 - s) } // off the chiplet ids
	gateway := func(s int) topology.ChipletID {
		if f.Kind() == KindStar {
			return ioDie(s)
		}
		return topology.ChipletID(s * cps)
	}
	route := f.TransferRoute(src, dst)
	if len(route) > 1 && f.links[route[1]].hub() {
		route = append(append([]int{route[0]}, route[2:]...), route[1])
	}
	at := src
	crossed := false
	for _, li := range route {
		l := f.links[li]
		switch {
		case l.socket >= 0:
			if !crossed && at != gateway(socketOf(src)) {
				t.Fatalf("route %d→%d: socket link crossed away from gateway (at %d)", src, dst, at)
			}
			crossed = true
			at = gateway(socketOf(dst))
		case l.hub() && at == l.a:
			at = ioDie(socketOf(l.a))
		case l.hub() && at == ioDie(socketOf(l.a)):
			at = l.a
		case !l.hub() && at == l.a:
			at = l.b
		case !l.hub() && at == l.b:
			at = l.a
		default:
			t.Fatalf("route %d→%d: link %s does not touch current position %d", src, dst, f.linkName(li), at)
		}
	}
	if at != dst {
		t.Fatalf("route %d→%d: walk ended at %d", src, dst, at)
	}
	if wantCross := socketOf(src) != socketOf(dst); crossed != wantCross {
		t.Fatalf("route %d→%d: crossed=%v, want %v", src, dst, crossed, wantCross)
	}
}

// TestRouteHeadroom holds TransferHeadroom and MemoryHeadroom to what
// they promise about ChargeTransfer and ChargeMemory, per kind, on routes
// loaded with crossing traffic: charging exactly the reported room is free
// and uses the route up, two more lines are delayed (a link takes up to
// 76 B/ns, so fewer bytes of excess round to no delay); a route without
// links has room without bound; an armed fault plan leaves none.
func TestRouteHeadroom(t *testing.T) {
	topo := testTopo()
	for _, k := range Kinds() {
		t.Run(k.String(), func(t *testing.T) {
			f := Build(k, topo, 1000)
			nch := topo.NumChiplets()
			check := func(route string, links bool, room func() int64, charge func(bytes int64) int64) {
				t.Helper()
				r := room()
				if !links {
					if r != math.MaxInt64 || charge(1<<30) != 0 {
						t.Fatalf("%s: no links, yet headroom %d or a delayed charge", route, r)
					}
					return
				}
				if q := charge(r); q != 0 {
					t.Fatalf("%s: charging the headroom %d delayed %d ns", route, r, q)
				}
				if left := room(); left != 0 {
					t.Fatalf("%s: %d bytes of headroom left after charging it", route, left)
				}
				if charge(128) == 0 {
					t.Fatalf("%s: two lines past the headroom were free", route)
				}
			}
			now := int64(0)
			for src := 0; src < nch; src++ {
				for dst := 0; dst < nch; dst++ {
					s, d := topology.ChipletID(src), topology.ChipletID(dst)
					n := topo.NodeOfChiplet(topology.ChipletID((src + dst) % nch))
					other := topology.ChipletID((src + 3) % nch)

					now += 1000 // a fresh window per route
					f.ChargeTransfer(d, other, now, 9000+int64(src)*997)
					f.ChargeMemory(topology.ChipletID((dst+1)%nch), n, now, 5000+int64(dst)*661)
					check(fmt.Sprintf("%d->%d", src, dst), len(f.TransferRoute(s, d)) > 0,
						func() int64 { return f.TransferHeadroom(s, d, now) },
						func(b int64) int64 { return f.ChargeTransfer(s, d, now, b) })

					now += 1000
					f.ChargeTransfer(d, other, now, 9000+int64(src)*997)
					// On a NoC the chiplet hosting n's controller crosses no
					// link to reach it.
					check(fmt.Sprintf("%d->node %d", src, n), f.MemoryHeadroom(s, n, now) != math.MaxInt64,
						func() int64 { return f.MemoryHeadroom(s, n, now) },
						func(b int64) int64 { return f.ChargeMemory(s, n, now, b) })
				}
			}
			plan, err := fault.New("brownout", 1).LinkBrownout(0, 0, 10, 2).Compile(topo)
			if err != nil {
				t.Fatal(err)
			}
			f.SetFaultPlan(plan)
			now += 100_000
			if r := f.TransferHeadroom(1, 6, now); r != 0 {
				t.Errorf("fault plan armed: transfer headroom %d, want 0", r)
			}
			if r := f.MemoryHeadroom(5, 0, now); r != 0 {
				t.Errorf("fault plan armed: memory headroom %d, want 0", r)
			}
		})
	}
}

// TestFabricReplayDeterministic: the exact same charge sequence against a
// fresh fabric must produce bit-identical delays, for every kind, healthy
// and under a fault plan. This is the fabric-local half of the replay
// guarantee (the engine-level half is TestFabricReplayBitIdentical in
// internal/core).
func TestFabricReplayDeterministic(t *testing.T) {
	topo := testTopo()
	sched := fault.New("fabric-replay", 7).
		LinkBrownout(2, 10_000, 60_000, 3)
	plan, err := sched.Compile(topo)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range Kinds() {
		for _, withFaults := range []bool{false, true} {
			name := k.String()
			if withFaults {
				name += "-faulted"
			}
			t.Run(name, func(t *testing.T) {
				run := func() []int64 {
					f := Build(k, testTopo(), 10_000)
					if withFaults {
						f.SetFaultPlan(plan)
					}
					var out []int64
					seed := uint64(1)
					nch := int64(topo.NumChiplets())
					for i := 0; i < 4096; i++ {
						seed = seed*6364136223846793005 + 1442695040888963407
						src := topology.ChipletID(int64(seed>>33) % nch)
						dst := topology.ChipletID(int64(seed>>13) % nch)
						tm := int64(i) * 37
						out = append(out, f.ChargeTransfer(src, dst, tm, 1<<14))
						out = append(out, f.ChargeMemory(src, topo.NodeOfChiplet(dst), tm, 1<<12))
					}
					return out
				}
				if a, b := run(), run(); !reflect.DeepEqual(a, b) {
					t.Fatal("identical charge sequences produced different delays")
				}
			})
		}
	}
}

// TestConcurrentChargeStress hammers every fabric from many goroutines;
// make verify runs it under -race, which is the actual assertion — the
// per-link token buckets must stay safe under concurrent charging.
func TestConcurrentChargeStress(t *testing.T) {
	topo := testTopo()
	for _, k := range Kinds() {
		t.Run(k.String(), func(t *testing.T) {
			f := Build(k, testTopo(), 1000)
			f.Instrument(obs.NewRegistry(4))
			var wg sync.WaitGroup
			nch := int64(topo.NumChiplets())
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					seed := uint64(g + 1)
					for i := 0; i < 2000; i++ {
						seed = seed*6364136223846793005 + 1442695040888963407
						src := topology.ChipletID(int64(seed>>33) % nch)
						dst := topology.ChipletID(int64(seed>>13) % nch)
						f.ChargeTransfer(src, dst, int64(i)*11, 1<<12)
						f.ChipletUtilMilli(src, int64(i)*11)
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// TestKindNamesMatchSpecGrammar: the fabric enum, its parser, and the
// topo-spec grammar must agree on the fabric vocabulary.
func TestKindNamesMatchSpecGrammar(t *testing.T) {
	names := topology.SpecFabrics()
	kinds := Kinds()
	if len(names) != len(kinds) {
		t.Fatalf("spec grammar has %d fabrics, enum has %d", len(names), len(kinds))
	}
	for i, k := range kinds {
		if k.String() != names[i] {
			t.Errorf("kind %d: enum %q, grammar %q", i, k.String(), names[i])
		}
		got, err := ParseKind(names[i])
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", names[i], got, err, k)
		}
	}
	if _, err := ParseKind("hypercube"); err == nil {
		t.Error("ParseKind accepted an unknown fabric")
	}
}

// TestRoutedFlatFlyDiameter: a flattened butterfly reaches any same-socket
// chiplet in at most two hops (one row move + one column move).
func TestRoutedFlatFlyDiameter(t *testing.T) {
	f := Build(KindFlatFly, testTopo(), 1000)
	cps := f.topo.NodesPerSocket * f.topo.ChipletsPerNode
	for src := 0; src < cps; src++ {
		for dst := 0; dst < cps; dst++ {
			if src == dst {
				continue
			}
			r := f.TransferRoute(topology.ChipletID(src), topology.ChipletID(dst))
			if len(r) > 2 {
				t.Errorf("flatfly %d→%d takes %d hops, want ≤ 2", src, dst, len(r))
			}
		}
	}
}

// BenchmarkFabric measures the per-transfer charging cost of each fabric —
// the hot path every simulated memory access crosses. make bench tracks
// it in BENCH_fabric.json and bench-gate flags >15% regressions.
func BenchmarkFabric(b *testing.B) {
	topo := testTopo()
	nch := int64(topo.NumChiplets())
	for _, k := range Kinds() {
		b.Run(k.String(), func(b *testing.B) {
			f := Build(k, testTopo(), 10_000)
			seed := uint64(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				seed = seed*6364136223846793005 + 1442695040888963407
				src := topology.ChipletID(int64(seed>>33) % nch)
				dst := topology.ChipletID(int64(seed>>13) % nch)
				f.ChargeTransfer(src, dst, int64(i), 4096)
			}
		})
	}
}
