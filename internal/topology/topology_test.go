package topology

import (
	"testing"
	"testing/quick"
)

func TestPresetsValidate(t *testing.T) {
	for _, topo := range []*Topology{AMDMilan7713x2(), IntelSPR8488Cx2(), Synthetic(4, 4), SyntheticDual(2, 4)} {
		if err := topo.Validate(); err != nil {
			t.Errorf("%s: %v", topo.Name, err)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	base := Synthetic(2, 4)
	cases := []struct {
		name   string
		mutate func(*Topology)
	}{
		{"zero sockets", func(tp *Topology) { tp.Sockets = 0 }},
		{"zero nodes", func(tp *Topology) { tp.NodesPerSocket = 0 }},
		{"zero chiplets", func(tp *Topology) { tp.ChipletsPerNode = 0 }},
		{"zero cores", func(tp *Topology) { tp.CoresPerChiplet = 0 }},
		{"zero quadrant", func(tp *Topology) { tp.QuadrantChiplets = 0 }},
		{"non-pow2 line", func(tp *Topology) { tp.CacheLine = 48 }},
		{"zero L3", func(tp *Topology) { tp.L3PerChiplet = 0 }},
		{"zero ways", func(tp *Topology) { tp.L3Ways = 0 }},
		{"zero channels", func(tp *Topology) { tp.ChannelsPerNode = 0 }},
	}
	for _, c := range cases {
		cp := *base
		c.mutate(&cp)
		if err := cp.Validate(); err == nil {
			t.Errorf("%s: expected validation error, got nil", c.name)
		}
	}
}

func TestMilanCounts(t *testing.T) {
	m := AMDMilan7713x2()
	if got := m.NumCores(); got != 128 {
		t.Errorf("NumCores = %d, want 128", got)
	}
	if got := m.NumChiplets(); got != 16 {
		t.Errorf("NumChiplets = %d, want 16", got)
	}
	if got := m.NumNodes(); got != 2 {
		t.Errorf("NumNodes = %d, want 2", got)
	}
	if got := m.CoresPerNode(); got != 64 {
		t.Errorf("CoresPerNode = %d, want 64", got)
	}
	if got := m.CoresPerSocket(); got != 64 {
		t.Errorf("CoresPerSocket = %d, want 64", got)
	}
}

func TestIntelCounts(t *testing.T) {
	m := IntelSPR8488Cx2()
	if got := m.NumCores(); got != 96 {
		t.Errorf("NumCores = %d, want 96", got)
	}
	if got := m.CoresPerSocket(); got != 48 {
		t.Errorf("CoresPerSocket = %d, want 48", got)
	}
}

func TestCoreMapping(t *testing.T) {
	m := AMDMilan7713x2()
	cases := []struct {
		core    CoreID
		chiplet ChipletID
		node    NodeID
		socket  SocketID
	}{
		{0, 0, 0, 0},
		{7, 0, 0, 0},
		{8, 1, 0, 0},
		{63, 7, 0, 0},
		{64, 8, 1, 1},
		{127, 15, 1, 1},
	}
	for _, c := range cases {
		if got := m.ChipletOf(c.core); got != c.chiplet {
			t.Errorf("ChipletOf(%d) = %d, want %d", c.core, got, c.chiplet)
		}
		if got := m.NodeOfCore(c.core); got != c.node {
			t.Errorf("NodeOfCore(%d) = %d, want %d", c.core, got, c.node)
		}
		if got := m.SocketOfCore(c.core); got != c.socket {
			t.Errorf("SocketOfCore(%d) = %d, want %d", c.core, got, c.socket)
		}
	}
}

func TestLatencyClasses(t *testing.T) {
	m := AMDMilan7713x2()
	cases := []struct {
		a, b CoreID
		want LatencyClass
	}{
		{0, 0, SameCore},
		{0, 1, IntraChiplet},
		{0, 8, InterChipletNear}, // chiplets 0 and 1 share quadrant 0
		{0, 16, InterChipletFar}, // chiplet 2 is quadrant 1
		{0, 63, InterChipletFar}, // chiplet 7 is quadrant 3
		{0, 64, InterSocket},
		{63, 127, InterSocket},
	}
	for _, c := range cases {
		if got := m.ClassOf(c.a, c.b); got != c.want {
			t.Errorf("ClassOf(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestClassSymmetry(t *testing.T) {
	m := AMDMilan7713x2()
	f := func(a, b uint8) bool {
		ca := CoreID(int(a) % m.NumCores())
		cb := CoreID(int(b) % m.NumCores())
		return m.ClassOf(ca, cb) == m.ClassOf(cb, ca)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCASLatencyMonotonic(t *testing.T) {
	m := AMDMilan7713x2()
	// Latency must increase with topological distance (Fig. 3 ordering).
	intra := m.CASLatency(0, 1)
	near := m.CASLatency(0, 8)
	far := m.CASLatency(0, 16)
	socket := m.CASLatency(0, 64)
	if !(intra < near && near < far && far < socket) {
		t.Errorf("latency ordering violated: %d %d %d %d", intra, near, far, socket)
	}
}

func TestCASLatencyIsClasswise(t *testing.T) {
	m := AMDMilan7713x2()
	f := func(a, b uint8) bool {
		ca := CoreID(int(a) % m.NumCores())
		cb := CoreID(int(b) % m.NumCores())
		// Two pairs in the same class must report the same latency.
		return m.CASLatency(ca, cb) == m.CASLatency(cb, ca)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestL3HitLatency(t *testing.T) {
	m := AMDMilan7713x2()
	if got := m.L3HitLatency(0, 0); got != m.Cost.L3LocalHit {
		t.Errorf("local L3 hit = %d, want %d", got, m.Cost.L3LocalHit)
	}
	if got := m.L3HitLatency(0, 1); got != m.Cost.L3RemoteNearHit {
		t.Errorf("near L3 hit = %d, want %d", got, m.Cost.L3RemoteNearHit)
	}
	if got := m.L3HitLatency(0, 7); got != m.Cost.L3RemoteFarHit {
		t.Errorf("far L3 hit = %d, want %d", got, m.Cost.L3RemoteFarHit)
	}
	if got := m.L3HitLatency(0, 8); got != m.Cost.L3RemoteSocketHit {
		t.Errorf("cross-socket L3 hit = %d, want %d", got, m.Cost.L3RemoteSocketHit)
	}
}

func TestDRAMLatency(t *testing.T) {
	m := AMDMilan7713x2()
	if got := m.DRAMLatency(0, 0); got != m.Cost.DRAMLocal {
		t.Errorf("local DRAM = %d, want %d", got, m.Cost.DRAMLocal)
	}
	if got := m.DRAMLatency(0, 1); got != m.Cost.DRAMRemote {
		t.Errorf("remote DRAM = %d, want %d", got, m.Cost.DRAMRemote)
	}
}

func TestScaled(t *testing.T) {
	m := AMDMilan7713x2()
	s := m.Scaled(64)
	if s.L3PerChiplet != m.L3PerChiplet/64 {
		t.Errorf("scaled L3 = %d, want %d", s.L3PerChiplet, m.L3PerChiplet/64)
	}
	if s.NumCores() != m.NumCores() {
		t.Errorf("scaling must not change core count")
	}
	if err := s.Validate(); err != nil {
		t.Errorf("scaled topology invalid: %v", err)
	}
	// Scaling by a huge factor clamps at one set of ways.
	h := m.Scaled(1 << 40)
	if h.L3PerChiplet < h.CacheLine*int64(h.L3Ways) {
		t.Errorf("scaled L3 below minimum: %d", h.L3PerChiplet)
	}
	// Scaling by <=1 is identity.
	id := m.Scaled(1)
	if id.L3PerChiplet != m.L3PerChiplet || id.Name != m.Name {
		t.Errorf("Scaled(1) must be identity")
	}
}

func TestCoresOfChipletAndNodes(t *testing.T) {
	m := Synthetic(2, 4)
	cores := m.CoresOfChiplet(1)
	want := []CoreID{4, 5, 6, 7}
	if len(cores) != len(want) {
		t.Fatalf("len = %d, want %d", len(cores), len(want))
	}
	for i := range want {
		if cores[i] != want[i] {
			t.Errorf("cores[%d] = %d, want %d", i, cores[i], want[i])
		}
	}
}

func TestFirstCoreOf(t *testing.T) {
	m := AMDMilan7713x2()
	f := func(ch uint8) bool {
		c := ChipletID(int(ch) % m.NumChiplets())
		first := m.FirstCoreOf(c)
		return m.ChipletOf(first) == c && int(first)%m.CoresPerChiplet == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLatencyClassString(t *testing.T) {
	for c, want := range map[LatencyClass]string{
		SameCore: "same-core", IntraChiplet: "intra-chiplet",
		InterChipletNear: "inter-chiplet-near", InterChipletFar: "inter-chiplet-far",
		InterSocket: "inter-socket", LatencyClass(99): "LatencyClass(99)",
	} {
		if got := c.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", c, got, want)
		}
	}
}

func TestTopologyString(t *testing.T) {
	s := AMDMilan7713x2().String()
	if s == "" {
		t.Error("empty String()")
	}
}

func TestNPS4Preset(t *testing.T) {
	m := AMDMilanNPS4()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NumCores() != 128 || m.NumNodes() != 8 || m.NumChiplets() != 16 {
		t.Errorf("NPS4 counts: cores=%d nodes=%d chiplets=%d", m.NumCores(), m.NumNodes(), m.NumChiplets())
	}
	if m.CoresPerNode() != 16 {
		t.Errorf("CoresPerNode = %d, want 16", m.CoresPerNode())
	}
	// Same socket structure as NPS1.
	if m.SocketOfCore(63) != 0 || m.SocketOfCore(64) != 1 {
		t.Error("socket mapping changed under NPS4")
	}
}

func TestSMTAccessors(t *testing.T) {
	m := AMDMilan7713x2()
	if m.SMT() != 2 || m.NumThreads() != 256 {
		t.Errorf("SMT = %d, NumThreads = %d", m.SMT(), m.NumThreads())
	}
	s := Synthetic(2, 2)
	if s.SMT() != 1 || s.NumThreads() != s.NumCores() {
		t.Errorf("synthetic SMT = %d", s.SMT())
	}
	s.SMTWays = -1
	if err := s.Validate(); err == nil {
		t.Error("negative SMTWays must fail validation")
	}
}
