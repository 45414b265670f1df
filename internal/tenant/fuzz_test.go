package tenant

import "testing"

// FuzzParseSpec churns the tenant-spec grammar: no input may panic, and
// every accepted spec must validate, render canonically, and survive a
// parse→String→parse round trip unchanged (the grammar is its own codec).
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"a",
		"tenant:a,weight=3,quota=2",
		"interactive,4,2",
		"batch,weight=1,quota=1,gap=50us,burst=8,policy=shed",
		"b,gap=2ms,policy=block,queue=64",
		"x,1,0,gap=1000,burst=2,policy=reject",
		"tenant:z-9._,weight=1048576,quota=4096",
		"a,,b", "a,gap=9223372036854775807", "a,weight=-1", ",",
		"interactive,4,2,class=1", // class is not a key

	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := ParseSpec(in)
		if err != nil {
			return
		}
		if verr := spec.Validate(); verr != nil {
			t.Fatalf("ParseSpec(%q) accepted an invalid spec %+v: %v", in, spec, verr)
		}
		s := spec.String()
		again, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not reparse: %v", s, in, err)
		}
		if again != spec {
			t.Fatalf("round trip of %q: %+v -> %q -> %+v", in, spec, s, again)
		}
	})
}
