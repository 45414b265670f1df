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

// bytesOn reads a link's cumulative byte counter out of the fabric's
// telemetry (the same counters charm-obs fabric renders).
func bytesOn(t *testing.T, f Fabric, i int) int64 {
	t.Helper()
	switch v := f.(type) {
	case *Star:
		if i < len(v.chipletMet) {
			return v.chipletMet[i].bytes.Value()
		}
		return v.socketMet[i-len(v.chipletMet)].bytes.Value()
	case *routed:
		return v.met[i].bytes.Value()
	}
	t.Fatalf("unknown fabric type %T", f)
	return 0
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
				got := bytesOn(t, f, i)
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

// TestTransferRouteEndpoints: a routed path must actually connect src to
// dst — consecutive NoC links share a chiplet, the walk starts at src and
// ends at dst, and socket links appear exactly on cross-socket routes.
func TestTransferRouteEndpoints(t *testing.T) {
	topo := testTopo()
	for _, k := range Kinds() {
		if k == KindStar {
			continue // hub links have no endpoint pairs to walk
		}
		t.Run(k.String(), func(t *testing.T) {
			f := Build(k, topo, 1000).(*routed)
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

// walkRoute follows the route's NoC links hop by hop. A cross-socket
// route reaches the source socket's gateway, crosses the two external
// links (which teleport the walk to the destination socket's gateway),
// and resumes locally; the walk must end exactly at dst.
func walkRoute(t *testing.T, f *routed, src, dst topology.ChipletID) {
	t.Helper()
	cps := f.topo.NodesPerSocket * f.topo.ChipletsPerNode
	at := src
	crossed := false
	for _, li := range f.TransferRoute(src, dst) {
		l := f.links[li]
		if l.socket >= 0 {
			if !crossed && int(at)%cps != 0 {
				t.Fatalf("route %d→%d: socket link crossed away from gateway (at %d)", src, dst, at)
			}
			crossed = true
			at = topology.ChipletID((int(dst) / cps) * cps) // dst socket's gateway
			continue
		}
		switch at {
		case l.a:
			at = l.b
		case l.b:
			at = l.a
		default:
			t.Fatalf("route %d→%d: link %s does not touch current chiplet %d", src, dst, l.name, at)
		}
	}
	if at != dst {
		t.Fatalf("route %d→%d: walk ended at %d", src, dst, at)
	}
	wantCross := f.topo.SocketOfNode(f.topo.NodeOfChiplet(src)) != f.topo.SocketOfNode(f.topo.NodeOfChiplet(dst))
	if crossed != wantCross {
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
					// On a routed fabric the chiplet hosting n's controller
					// crosses no link to reach it.
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

// TestStarSocketTable compares the per-chiplet socket table New tabulates
// with the Topology methods it stands for, which stay the source of truth.
func TestStarSocketTable(t *testing.T) {
	for _, topo := range []*topology.Topology{
		topology.AMDMilan7713x2(), topology.AMDMilanNPS4(), topology.IntelSPR8488Cx2(), testTopo(),
	} {
		f := New(topo, 0)
		for ch := range f.socketOf {
			if got, want := f.socketOf[ch], topo.SocketOfNode(topo.NodeOfChiplet(topology.ChipletID(ch))); got != want {
				t.Errorf("%s: chiplet %d in socket %d, topology says %d", topo.Name, ch, got, want)
			}
		}
		if len(f.socketOf) != topo.NumChiplets() {
			t.Errorf("%s: table covers %d of %d chiplets", topo.Name, len(f.socketOf), topo.NumChiplets())
		}
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
		LinkBrownout(2, 10_000, 60_000, 3).
		SocketBrownout(1, 20_000, 80_000, 2)
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

// TestStarMessageDelaySocketMilli: a browned-out *socket* link must
// stretch cross-socket message latency even when both chiplet links are
// healthy. Regression for the bug where MessageDelay only consulted
// ChipletLinkMilli and socket brownouts were invisible to the RPC path.
func TestStarMessageDelaySocketMilli(t *testing.T) {
	topo := testTopo()
	plan, err := fault.New("sock-brownout", 1).
		SocketBrownout(0, 0, 1<<62, 4).
		Compile(topo)
	if err != nil {
		t.Fatal(err)
	}
	cross := topology.CoreID(topo.CoresPerSocket()) // first core of socket 1
	for _, k := range Kinds() {
		t.Run(k.String(), func(t *testing.T) {
			healthy := Build(k, testTopo(), 1000).MessageDelay(0, cross, 0, 64)
			f := Build(k, testTopo(), 1000)
			f.SetFaultPlan(plan)
			degraded := f.MessageDelay(0, cross, 0, 64)
			if degraded <= healthy {
				t.Fatalf("socket brownout invisible to MessageDelay: healthy %d, degraded %d", healthy, degraded)
			}
		})
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
	f := Build(KindFlatFly, testTopo(), 1000).(*routed)
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
