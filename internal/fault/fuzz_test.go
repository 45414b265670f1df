package fault

import (
	"reflect"
	"testing"

	"charm/internal/topology"
)

// FuzzFaultSpec churns the fault-spec grammar against a fuzz-chosen
// synthetic machine: no input may panic, an accepted schedule compiles or
// fails with an error, it holds at most MaxSpecEvents events, and parsing
// the same input twice yields the same schedule.
func FuzzFaultSpec(f *testing.F) {
	for _, s := range []string{
		"none", "core-flap", "chiplet-flap", "brownout", "mem-brownout", "thermal", "chaos",
		"chiplet-flap:seed=7", "chaos:seed=3", "chiplet-flap:count=5,period=1000,horizon=4000",
		"core-flap:count=1000,period=1000",
		"core-flap:period=1,horizon=1000000",
		"core-flap:count=-3",
		"thermal:period=5000000000000000000,horizon=9000000000000000000",
		"power:tdp=8", "chiplet-flap:seed=7,period=2ms", "chaos:,", "thermal:factor=1e308",
	} {
		f.Add(s, uint8(4), uint8(2))
	}
	f.Fuzz(func(t *testing.T, in string, chiplets, cores uint8) {
		topo := topology.Synthetic(1+int(chiplets%8), 1+int(cores%4))
		s, err := ParseSpec(in, topo)
		if err != nil {
			if s != nil {
				t.Fatalf("ParseSpec(%q) returned both a schedule and %v", in, err)
			}
			return
		}
		if s == nil {
			t.Fatalf("ParseSpec(%q) returned neither a schedule nor an error", in)
		}
		if len(s.Events) > MaxSpecEvents {
			t.Fatalf("ParseSpec(%q) generated %d events, over the %d cap", in, len(s.Events), MaxSpecEvents)
		}
		if p, err := s.Compile(topo); (p == nil) == (err == nil) {
			t.Fatalf("Compile(%q) = %v, %v: want exactly one of a plan and an error", in, p, err)
		}
		again, err := ParseSpec(in, topo)
		if err != nil || !reflect.DeepEqual(s, again) {
			t.Fatalf("ParseSpec(%q) does not repeat: %+v then %+v, %v", in, s, again, err)
		}
	})
}
