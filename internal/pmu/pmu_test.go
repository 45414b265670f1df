package pmu

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestAddRead(t *testing.T) {
	p := New(4)
	p.Add(2, FillL3Local, 5)
	p.Add(2, FillL3Local, 3)
	if got := p.Read(2, FillL3Local); got != 8 {
		t.Errorf("Read = %d, want 8", got)
	}
	if got := p.Read(1, FillL3Local); got != 0 {
		t.Errorf("other core = %d, want 0", got)
	}
	if len(p.cores) != 4 {
		t.Errorf("NumCores = %d, want 4", len(p.cores))
	}
}

func TestTotal(t *testing.T) {
	p := New(3)
	p.Add(0, TaskRun, 1)
	p.Add(1, TaskRun, 2)
	p.Add(2, TaskRun, 3)
	if got := p.Total(TaskRun); got != 6 {
		t.Errorf("Total = %d, want 6", got)
	}
}

func TestFillsFromSystem(t *testing.T) {
	p := New(1)
	p.Add(0, FillL2, 100)     // not from system
	p.Add(0, FillL3Local, 50) // not from system
	p.Add(0, FillL3RemoteNear, 1)
	p.Add(0, FillL3RemoteFar, 2)
	p.Add(0, FillL3RemoteSocket, 4)
	p.Add(0, FillDRAMLocal, 8)
	p.Add(0, FillDRAMRemote, 16)
	if got := p.FillsFromSystem(0); got != 31 {
		t.Errorf("FillsFromSystem = %d, want 31", got)
	}
}

func TestSnapshotDelta(t *testing.T) {
	p := New(2)
	p.Add(0, Migration, 2)
	s1 := p.Snapshot()
	p.Add(0, Migration, 3)
	p.Add(1, CtxSwitch, 7)
	s2 := p.Snapshot()
	if got := s2.Counts[0][Migration] - s1.Counts[0][Migration]; got != 3 {
		t.Errorf("delta migration = %d, want 3", got)
	}
	if got := s2.Counts[1][CtxSwitch] - s1.Counts[1][CtxSwitch]; got != 7 {
		t.Errorf("delta ctxswitch = %d, want 7", got)
	}
	var total int64
	for i := range s2.Counts {
		total += s2.Counts[i][Migration] - s1.Counts[i][Migration]
	}
	if total != 3 {
		t.Errorf("delta total = %d, want 3", total)
	}
}

func TestReset(t *testing.T) {
	p := New(2)
	p.Add(0, TaskSteal, 9)
	p.Reset()
	if got := p.Total(TaskSteal); got != 0 {
		t.Errorf("after Reset, Total = %d", got)
	}
}

func TestEventString(t *testing.T) {
	if FillL2.String() != "fill.l2" {
		t.Errorf("FillL2 = %q", FillL2.String())
	}
	if Event(200).String() != "Event(200)" {
		t.Errorf("unknown = %q", Event(200).String())
	}
	seen := map[string]bool{}
	for e := Event(0); int(e) < NumEvents; e++ {
		n := e.String()
		if n == "" || seen[n] {
			t.Errorf("event %d: empty or duplicate name %q", e, n)
		}
		seen[n] = true
	}
}

func TestConcurrentAdds(t *testing.T) {
	p := New(8)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				p.Add(c, BytesRead, 1)
			}
		}(c)
	}
	wg.Wait()
	if got := p.Total(BytesRead); got != 8000 {
		t.Errorf("Total = %d, want 8000", got)
	}
}

func TestSnapshotTotalProperty(t *testing.T) {
	f := func(adds []uint8) bool {
		p := New(4)
		var want int64
		for i, a := range adds {
			p.Add(i%4, TaskRun, int64(a))
			want += int64(a)
		}
		var got int64
		for _, c := range p.Snapshot().Counts {
			got += c[TaskRun]
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFilteredMasks(t *testing.T) {
	p := New(2)
	p.Add(0, FillL2, 1)
	p.Add(0, FillL3Local, 2)
	p.Add(0, FillL3RemoteNear, 4)
	p.Add(0, FillL3RemoteFar, 8)
	p.Add(0, FillL3RemoteSocket, 16)
	p.Add(0, FillDRAMLocal, 32)
	p.Add(0, FillDRAMRemote, 64)
	cases := []struct {
		name string
		mask SourceMask
		want int64
	}{
		{"llc-hit", MaskLLCHit, 2 + 4 + 8 + 16},
		{"llc-local", MaskLLCHitLocal, 2},
		{"llc-remote", MaskLLCHitRemote, 4 + 8 + 16},
		{"dram", MaskDRAM, 32 + 64},
		{"dram-local", MaskDRAMLocal, 32},
		{"dram-remote", MaskDRAMRemote, 64},
		{"from-system", MaskFromSystem, 4 + 8 + 16 + 32 + 64},
		{"on-die", MaskOnDie, 4 + 8},
		{"empty", 0, 0},
	}
	for _, c := range cases {
		if got := p.Filtered(0, c.mask); got != c.want {
			t.Errorf("%s: Filtered = %d, want %d", c.name, got, c.want)
		}
	}
	// FillsFromSystem must match the mask.
	if p.FillsFromSystem(0) != p.Filtered(0, MaskFromSystem) {
		t.Error("FillsFromSystem diverges from MaskFromSystem")
	}
}

func TestMaskBitsDisjoint(t *testing.T) {
	masks := []SourceMask{SrcL2, SrcL3Local, SrcL3RemoteNear, SrcL3RemoteFar,
		SrcL3RemoteSocket, SrcDRAMLocal, SrcDRAMRemote}
	var all SourceMask
	for _, m := range masks {
		if all&m != 0 {
			t.Fatalf("mask bit %b overlaps", m)
		}
		all |= m
	}
}
