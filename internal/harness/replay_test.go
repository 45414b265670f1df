package harness

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"charm/internal/obs"
)

// TestMetricsReplay is the replay law of the harness: an experiment run
// again in the same process prints the same table, and each of its
// runtimes captures the same metrics document as in the first run — every
// series outside charm_host_* (those measure the host, by design), every
// history point, and the capture's virtual time. Each subtest
// replays one experiment once against the memoized first run that the
// shape and golden tests read, so tier-1 runs every experiment twice;
// -count=N replays it N times. Every experiment runs at test scale, and
// sens at the default scale too (sens-default, 0.2 s a run): its longer
// BFS leaves the idle turns between one phase's last task and the next
// phase where a host-paced steal-order count once showed, which test scale
// hides.
func TestMetricsReplay(t *testing.T) {
	replay := func(name, id string, o Options) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			again := make(chan testRun, 1)
			go func() { again <- observedRun(o, id) }() // beside the first run, if that is still to come
			want, got := firstRun(o, id), <-again
			if want.err != nil || got.err != nil {
				t.Fatal(want.err, got.err)
			}
			var a, b strings.Builder
			writeTable(&a, want.tab)
			writeTable(&b, got.tab)
			if a.String() != b.String() {
				t.Fatalf("table differs from the first run:\n%s\nfirst run:\n%s", b.String(), a.String())
			}
			if len(got.obs) != len(want.obs) {
				t.Fatalf("%d metrics captures, first run %d", len(got.obs), len(want.obs))
			}
			for i := range want.obs {
				w, g := modelDoc(t, want.obs[i]), modelDoc(t, got.obs[i])
				if d := docDiff(w, g); d != "" {
					t.Fatalf("capture %d (%d workers): %s", i, want.obs[i].Workers, d)
				}
			}
		})
	}
	for _, id := range testOptions().IDs() {
		replay(id, id, testOptions())
	}
	replay("sens-default", "sens", Defaults())
}

// modelDoc decodes a capture's metrics document without its charm_host_*
// series and history values: what remains is a function of the model.
func modelDoc(t *testing.T, e ObsEntry) obs.JSONDoc {
	t.Helper()
	var d obs.JSONDoc
	if err := json.Unmarshal(e.Metrics, &d); err != nil {
		t.Fatal(err)
	}
	host := func(key string) bool { return strings.HasPrefix(key, "charm_host_") }
	ms := d.Metrics[:0]
	for _, m := range d.Metrics {
		if !host(m.Name) {
			ms = append(ms, m)
		}
	}
	d.Metrics = ms
	for _, h := range d.History {
		for k := range h.Values {
			if host(k) {
				delete(h.Values, k)
			}
		}
	}
	return d
}

// docDiff names the first difference between two model documents, or
// returns "" when they are equal.
func docDiff(want, got obs.JSONDoc) string {
	if want.VirtualTimeNS != got.VirtualTimeNS {
		return fmt.Sprintf("virtual time %d, first run %d", got.VirtualTimeNS, want.VirtualTimeNS)
	}
	for i := 0; i < len(want.Metrics) || i < len(got.Metrics); i++ {
		if i >= len(want.Metrics) || i >= len(got.Metrics) {
			return fmt.Sprintf("%d series, first run %d", len(got.Metrics), len(want.Metrics))
		}
		if w, g := want.Metrics[i], got.Metrics[i]; !reflect.DeepEqual(w, g) {
			return fmt.Sprintf("series %s %v differs:\n got: %s\nwant: %s", w.Name, w.Labels, jsonOf(g), jsonOf(w))
		}
	}
	if len(want.History) != len(got.History) {
		return fmt.Sprintf("%d history points, first run %d", len(got.History), len(want.History))
	}
	for i, w := range want.History {
		if g := got.History[i]; !reflect.DeepEqual(w, g) {
			return fmt.Sprintf("history point %d differs:\n got: %s\nwant: %s", i, jsonOf(g), jsonOf(w))
		}
	}
	return ""
}

func jsonOf(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestFaultsOption: Options.Faults (charm-bench -faults) reaches the
// runtimes an experiment builds. fig13 under chiplet-flap differs from the
// healthy table and replays byte for byte, and a malformed spec fails Run
// with a message naming it.
func TestFaultsOption(t *testing.T) {
	t.Parallel()
	o := testOptions()
	o.Faults = "chiplet-flap:seed=7"
	var runs [2]strings.Builder
	for i := range runs {
		tab, err := o.Run("fig13")
		if err != nil {
			t.Fatal(err)
		}
		writeTable(&runs[i], tab)
	}
	var healthy strings.Builder
	writeTable(&healthy, testTable(t, "fig13"))
	if runs[0].String() == healthy.String() {
		t.Errorf("fig13 under %s prints the healthy table:\n%s", o.Faults, healthy.String())
	}
	if runs[0].String() != runs[1].String() {
		t.Errorf("fig13 under %s does not replay:\n%s\nthen\n%s", o.Faults, runs[0].String(), runs[1].String())
	}
	for _, spec := range []string{"no-such-scenario", "chiplet-flap:seed=oops"} {
		o.Faults = spec
		if _, err := o.Run("fig13"); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", spec)) {
			t.Errorf("Run under -faults %s: error %v, want one naming the spec", spec, err)
		}
	}
}
