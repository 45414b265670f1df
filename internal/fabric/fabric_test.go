package fabric

import (
	"testing"

	"charm/internal/topology"
)

func TestIntraChipletTransferFree(t *testing.T) {
	f := Build(KindStar, topology.SyntheticDual(2, 4), 1000)
	if d := f.ChargeTransfer(0, 0, 0, 1<<30); d != 0 {
		t.Errorf("intra-chiplet transfer delayed by %d", d)
	}
}

func TestInterChipletCongestion(t *testing.T) {
	topo := topology.SyntheticDual(2, 4)
	f := Build(KindStar, topo, 1000)
	cap := int64(topo.Cost.FabricBandwidth * 1000)
	if d := f.ChargeTransfer(0, 1, 0, cap); d != 0 {
		t.Errorf("at capacity: delay %d, want 0", d)
	}
	if d := f.ChargeTransfer(0, 1, 0, cap); d == 0 {
		t.Error("over capacity: must delay")
	}
	// Fresh window clears congestion.
	if d := f.ChargeTransfer(0, 1, 5000, 64); d != 0 {
		t.Errorf("fresh window: delay %d, want 0", d)
	}
}

func TestCrossSocketUsesSocketLink(t *testing.T) {
	topo := topology.SyntheticDual(2, 4)
	f := Build(KindStar, topo, 1000)
	// Chiplets 0 and 2 are on different sockets (2 chiplets per node,
	// 1 node per socket).
	sockCap := int64(topo.Cost.SocketBandwidth * 1000)
	f.ChargeTransfer(0, 2, 0, sockCap)
	if d := f.ChargeTransfer(0, 2, 0, sockCap); d == 0 {
		t.Error("saturated socket link must delay")
	}
}

func TestChargeMemoryLocalVsRemote(t *testing.T) {
	topo := topology.SyntheticDual(2, 4)
	f := Build(KindStar, topo, 1000)
	// Local-node memory traffic never touches the socket link: saturate
	// socket links via remote traffic, then confirm local path is bound
	// only by the chiplet link.
	sockCap := int64(topo.Cost.SocketBandwidth * 1000)
	f.ChargeMemory(0, 1, 0, 2*sockCap) // chiplet 0 (socket 0) -> node 1
	if d := f.ChargeMemory(3, 1, 0, 64); d != 0 {
		t.Errorf("chiplet 3 local to node 1: delay %d, want 0", d)
	}
}

func TestMessageDelayIncludesLatency(t *testing.T) {
	topo := topology.SyntheticDual(2, 4)
	f := Build(KindStar, topo, 1000)
	intra := f.MessageDelay(0, 1, 0, 64)
	if intra != topo.Cost.CASIntraChiplet {
		t.Errorf("intra-chiplet message = %d, want %d", intra, topo.Cost.CASIntraChiplet)
	}
	cross := f.MessageDelay(0, topology.CoreID(topo.CoresPerSocket()), 0, 64)
	if cross < topo.Cost.CASInterSocket {
		t.Errorf("cross-socket message = %d, want >= %d", cross, topo.Cost.CASInterSocket)
	}
}
