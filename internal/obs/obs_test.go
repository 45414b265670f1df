package obs

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestDisabledRecordsNothing(t *testing.T) {
	r := NewRegistry(4)
	c := r.Counter("c_total", "c", nil)
	h := r.Histogram("h_ns", "h", nil, []int64{10, 100})
	c.Add(0, 5)
	h.Observe(0, 7)
	if c.Value() != 0 {
		t.Errorf("disabled counter = %d, want 0", c.Value())
	}
	if _, _, n := h.Merged(); n != 0 {
		t.Errorf("disabled histogram count = %d, want 0", n)
	}
	r.SetEnabled(true)
	c.Add(0, 5)
	if c.Value() != 5 {
		t.Errorf("enabled counter = %d, want 5", c.Value())
	}
}

func TestRegistrationDedup(t *testing.T) {
	r := NewRegistry(1)
	a := r.Counter("x_total", "x", Labels{"k": "1"})
	b := r.Counter("x_total", "x", Labels{"k": "1"})
	if a != b {
		t.Error("same name+labels must return the same handle")
	}
	c := r.Counter("x_total", "x", Labels{"k": "2"})
	if a == c {
		t.Error("different labels must return distinct handles")
	}
	// Re-registering with Traced upgrades the descriptor.
	r.Counter("x_total", "x", Labels{"k": "1"}, Traced())
	if !a.d.Traced {
		t.Error("Traced option must stick on re-registration")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch must panic")
		}
	}()
	r.Gauge("x_total", "x", Labels{"k": "1"})
}

// TestLabelKey pins the canonical series key: labels sorted by name,
// joined as k=v with commas, "" for none, and built in at most one
// allocation (the key string).
func TestLabelKey(t *testing.T) {
	for _, tc := range []struct {
		l      Labels
		want   string
		allocs float64
	}{
		{nil, "", 0},
		{Labels{}, "", 0},
		{Labels{"chiplet": "3"}, "chiplet=3", 1},
		{Labels{"tenant": "B", "chiplet": "12", "link": "ccd0"}, "chiplet=12,link=ccd0,tenant=B", 1},
	} {
		if got := labelKey(tc.l); got != tc.want {
			t.Errorf("labelKey(%v) = %q, want %q", tc.l, got, tc.want)
		}
		if n := testing.AllocsPerRun(100, func() { labelKey(tc.l) }); n > tc.allocs {
			t.Errorf("labelKey(%v) makes %.0f allocations, want at most %.0f", tc.l, n, tc.allocs)
		}
	}
}

// TestTracedSeriesList: the traced series a periodic sample collects are
// the Traced, non-histogram metrics in registration order, including one
// re-registered as Traced after later series, and a sample allocates only
// the Samples slice it stores.
func TestTracedSeriesList(t *testing.T) {
	r := NewRegistry(2)
	r.SetEnabled(true)
	r.Counter("a_total", "a", nil)
	r.Gauge("b", "b", Labels{"chiplet": "0"}, Traced())
	r.Histogram("c_ns", "c", nil, []int64{10, 100}, Traced())
	r.Func("d", "d", KindGauge, nil, func(now int64) float64 { return float64(now) }, Traced())
	r.Counter("e_total", "e", nil)
	r.Counter("a_total", "a", nil, Traced()) // now traced, ahead of b
	r.Histogram("c_ns", "c", nil, []int64{10, 100}, Traced())
	r.Counter("e_total", "e", nil, Traced())
	r.Gauge("b", "b", Labels{"chiplet": "0"}, Traced()) // already traced
	var got []string
	for _, s := range r.snapshotTraced(7).Samples {
		got = append(got, s.Key())
	}
	if want := []string{"a_total", "b{chiplet=0}", "d", "e_total"}; !slices.Equal(got, want) {
		t.Fatalf("traced samples %v, want %v", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { r.snapshotTraced(7) }); n != 1 {
		t.Errorf("a traced sample makes %.0f allocations, want 1", n)
	}
}

// TestConcurrentRecord hammers sharded handles from N goroutines under
// -race and checks the merged totals against the serial expectation.
func TestConcurrentRecord(t *testing.T) {
	const shards, perShard = 8, 10000
	r := NewRegistry(shards)
	r.SetEnabled(true)
	c := r.Counter("ops_total", "ops", nil)
	g := r.Gauge("load", "load", nil)
	h := r.Histogram("lat_ns", "latency", nil, []int64{10, 100, 1000})
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perShard; i++ {
				c.Inc(s)
				g.Set(s, int64(i+1))
				h.Observe(s, int64(i%2000))
				if i%100 == 0 {
					r.MaybeSample(int64(i)) // exercise the sampling path concurrently
				}
			}
		}(s)
	}
	wg.Wait()
	if c.Value() != shards*perShard {
		t.Errorf("counter = %d, want %d", c.Value(), shards*perShard)
	}
	if g.Value() != shards*perShard {
		t.Errorf("gauge = %d, want %d", g.Value(), shards*perShard)
	}
	counts, _, n := h.Merged()
	if n != shards*perShard {
		t.Errorf("histogram count = %d, want %d", n, shards*perShard)
	}
	// Serial reference: i%2000 uniform over [0,2000); per shard 11 values
	// are <= 10, 90 in (10,100], 900 in (100,1000], 999 above.
	want := []int64{11 * shards * (perShard / 2000), 90 * shards * (perShard / 2000),
		900 * shards * (perShard / 2000), 999 * shards * (perShard / 2000)}
	for i, w := range want {
		if counts[i] != w {
			t.Errorf("bucket[%d] = %d, want %d", i, counts[i], w)
		}
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry(1)
	r.SetEnabled(true)
	h := r.Histogram("b_ns", "b", nil, []int64{10, 100})
	// Bounds are inclusive: 10 lands in bucket 0, 11 in bucket 1,
	// 100 in bucket 1, 101 overflows to +Inf.
	for _, v := range []int64{-5, 0, 10} {
		h.Observe(0, v)
	}
	for _, v := range []int64{11, 100} {
		h.Observe(0, v)
	}
	h.Observe(0, 101)
	counts, sum, n := h.Merged()
	if counts[0] != 3 || counts[1] != 2 || counts[2] != 1 {
		t.Errorf("counts = %v, want [3 2 1]", counts)
	}
	if n != 6 {
		t.Errorf("count = %d, want 6", n)
	}
	if sum != -5+0+10+11+100+101 {
		t.Errorf("sum = %d", sum)
	}
}

// TestSnapshotMergeMatchesSerial drives the same observation stream
// through a sharded registry and a serial single-shard one and asserts
// identical snapshots (modulo timestamps).
func TestSnapshotMergeMatchesSerial(t *testing.T) {
	sharded := NewRegistry(5)
	serial := NewRegistry(1)
	for _, r := range []*Registry{sharded, serial} {
		r.SetEnabled(true)
	}
	bounds := []int64{50, 500, 5000}
	cs := sharded.Counter("t_total", "t", nil)
	c1 := serial.Counter("t_total", "t", nil)
	hs := sharded.Histogram("t_ns", "t", nil, bounds)
	h1 := serial.Histogram("t_ns", "t", nil, bounds)
	for i := 0; i < 5000; i++ {
		v := int64(i*7919) % 10000
		cs.Add(i%5, v)
		c1.Add(0, v)
		hs.Observe(i%5, v)
		h1.Observe(0, v)
	}
	a, b := sharded.Snapshot(42), serial.Snapshot(42)
	if len(a.Samples) != len(b.Samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		x, y := &a.Samples[i], &b.Samples[i]
		if x.Key() != y.Key() || x.Value != y.Value {
			t.Errorf("sample %s: %v vs %v", x.Key(), x.Value, y.Value)
		}
		if (x.Hist == nil) != (y.Hist == nil) {
			t.Fatalf("histogram presence differs at %s", x.Key())
		}
		if x.Hist != nil {
			if x.Hist.Sum != y.Hist.Sum || x.Hist.Count != y.Hist.Count {
				t.Errorf("hist %s: sum/count %d/%d vs %d/%d", x.Key(),
					x.Hist.Sum, x.Hist.Count, y.Hist.Sum, y.Hist.Count)
			}
			for j := range x.Hist.Counts {
				if x.Hist.Counts[j] != y.Hist.Counts[j] {
					t.Errorf("hist %s bucket %d: %d vs %d", x.Key(), j,
						x.Hist.Counts[j], y.Hist.Counts[j])
				}
			}
		}
	}
}

func TestFuncMetricAndSampling(t *testing.T) {
	r := NewRegistry(2)
	r.SetEnabled(true)
	var val float64 = 3
	r.Func("f_gauge", "f", KindGauge, Labels{"link": "ccd0"}, func(now int64) float64 {
		return val + float64(now)
	}, Traced())
	r.Counter("quiet_total", "not traced", nil) // absent from periodic samples
	r.EnableSampling(100, 3)

	if r.MaybeSample(50) {
		t.Error("sample before interval elapsed")
	}
	for _, now := range []int64{100, 250, 400, 550} {
		if !r.MaybeSample(now) {
			t.Errorf("sample at %d rejected", now)
		}
	}
	hist := r.History()
	if len(hist) != 3 {
		t.Fatalf("history = %d entries, want 3 (ring cap)", len(hist))
	}
	if r.dropped != 1 {
		t.Errorf("dropped = %d, want 1", r.dropped)
	}
	// Ring preserves time order after wrapping.
	if hist[0].T != 250 || hist[2].T != 550 {
		t.Errorf("history times = %d..%d, want 250..550", hist[0].T, hist[2].T)
	}
	for _, h := range hist {
		if len(h.Samples) != 1 || h.Samples[0].Name != "f_gauge" {
			t.Errorf("periodic sample must hold only traced metrics, got %v", h.Samples)
		}
		if h.Samples[0].Value != val+float64(h.T) {
			t.Errorf("func value = %v at t=%d", h.Samples[0].Value, h.T)
		}
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry(2)
	r.SetEnabled(true)
	c := r.Counter("charm_tasks_total", "Tasks executed.", nil)
	c.Add(0, 3)
	c.Add(1, 4)
	g := r.Gauge("charm_occ", "Occupancy.", Labels{"link": "ccd1"})
	g.Set(0, 2)
	h := r.Histogram("charm_lat_ns", "Latency.", nil, []int64{100, 1000})
	h.Observe(0, 50)
	h.Observe(1, 500)
	h.Observe(0, 5000)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot(777)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"charm_virtual_time_ns 777",
		"# TYPE charm_tasks_total counter",
		"charm_tasks_total 7",
		`charm_occ{link="ccd1"} 2`,
		"# TYPE charm_lat_ns histogram",
		`charm_lat_ns_bucket{le="100"} 1`,
		`charm_lat_ns_bucket{le="1000"} 2`,
		`charm_lat_ns_bucket{le="+Inf"} 3`,
		"charm_lat_ns_sum 5550",
		"charm_lat_ns_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Every non-comment line must be "name_or_name{labels} value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if parts := strings.Split(line, " "); len(parts) != 2 {
			t.Errorf("malformed line %q", line)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	r := NewRegistry(2)
	r.SetEnabled(true)
	c := r.Counter("charm_tasks_total", "Tasks.", Labels{"chiplet": "0"})
	c.Add(1, 9)
	h := r.Histogram("charm_lat_ns", "Latency.", nil, []int64{100})
	h.Observe(0, 42)
	r.Func("charm_util", "Util.", KindGauge, nil, func(int64) float64 { return 0.5 }, Traced())
	r.EnableSampling(10, 16)
	r.MaybeSample(10)
	r.MaybeSample(20)

	var buf bytes.Buffer
	if err := WriteJSON(&buf, r.Snapshot(999), r.History()); err != nil {
		t.Fatal(err)
	}
	var doc JSONDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.VirtualTimeNS != 999 {
		t.Errorf("virtual_time_ns = %d", doc.VirtualTimeNS)
	}
	if len(doc.Metrics) != 3 {
		t.Fatalf("metrics = %d, want 3", len(doc.Metrics))
	}
	byName := map[string]JSONMetric{}
	for _, m := range doc.Metrics {
		byName[m.Name] = m
	}
	if m := byName["charm_tasks_total"]; m.Value == nil || *m.Value != 9 || m.Type != "counter" {
		t.Errorf("tasks metric = %+v", m)
	}
	if m := byName["charm_lat_ns"]; m.Count == nil || *m.Count != 1 || len(m.Buckets) != 2 {
		t.Errorf("histogram metric = %+v", m)
	} else if m.Buckets[1].LE != "+Inf" {
		t.Errorf("last bucket le = %q", m.Buckets[1].LE)
	}
	if len(doc.History) != 2 || doc.History[0].Values["charm_util"] != 0.5 {
		t.Errorf("history = %+v", doc.History)
	}
}
