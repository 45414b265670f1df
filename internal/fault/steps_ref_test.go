package fault

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// refBuildSteps is buildSteps as it was before the sweep: every distinct
// bound rescans every window. It is the oracle for the sweep's output.
func refBuildSteps(wins []win) []step {
	if len(wins) == 0 {
		return nil
	}
	bounds := make([]int64, 0, 2*len(wins))
	for _, w := range wins {
		bounds = append(bounds, w.from)
		if w.to != Forever {
			bounds = append(bounds, w.to)
		}
	}
	slices.Sort(bounds)
	var out []step
	last := int64(1000)
	for i, b := range bounds {
		if i > 0 && b == bounds[i-1] {
			continue
		}
		f := 1.0
		for _, w := range wins {
			if w.from <= b && b < w.to {
				f *= w.factor
			}
		}
		milli := int64(f*1000 + 0.5)
		if milli < 1000 {
			milli = 1000
		}
		if milli != last {
			out = append(out, step{b, milli})
			last = milli
		}
	}
	return out
}

// TestBuildStepsMatchesRescan: on random windows — overlapping, nested,
// sharing bounds, open-ended, with factors whose products round
// differently by order — the sweep builds the rescan's step function.
func TestBuildStepsMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	factors := []float64{1, 1.1, 1.7, 2, 3, 4, 8, 1.0000001, 2.9999}
	for iter := 0; iter < 2000; iter++ {
		wins := make([]win, rng.Intn(12))
		for i := range wins {
			from := int64(rng.Intn(40))
			to := from + 1 + int64(rng.Intn(20))
			if rng.Intn(8) == 0 {
				to = Forever
			}
			wins[i] = win{from, to, factors[rng.Intn(len(factors))]}
		}
		if got, want := buildSteps(wins), refBuildSteps(wins); !reflect.DeepEqual(got, want) {
			t.Fatalf("windows %+v:\nsweep  %v\nrescan %v", wins, got, want)
		}
	}
}
