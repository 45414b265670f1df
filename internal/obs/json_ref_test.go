package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"testing"
)

// The reference model of the metrics document: the JSONDoc built with a
// map and a Sample.Key string per history point, marshalled by
// encoding/json and re-indented, as WriteJSON worked before it appended
// the document itself. It is the oracle of FuzzMetricsJSON and of the
// byte-equality tests; nothing outside the tests calls it.

func refBuildJSON(s Snapshot, history []Snapshot) JSONDoc {
	doc := JSONDoc{VirtualTimeNS: s.T, Metrics: make([]JSONMetric, 0, len(s.Samples))}
	for i := range s.Samples {
		sm := &s.Samples[i]
		jm := JSONMetric{Name: sm.Name, Labels: sm.Labels, Type: sm.Kind.String()}
		if sm.Hist != nil {
			h := sm.Hist
			ex := func(j int) uint64 {
				if j < len(h.Exemplars) {
					return uint64(h.Exemplars[j])
				}
				return 0
			}
			var cum int64
			for j, b := range h.Bounds {
				cum += h.Counts[j]
				jm.Buckets = append(jm.Buckets, JSONBucket{LE: formatValue(float64(b)), Count: cum, Exemplar: ex(j)})
			}
			jm.Buckets = append(jm.Buckets, JSONBucket{LE: "+Inf", Count: h.Count, Exemplar: ex(len(h.Bounds))})
			sum, count := h.Sum, h.Count
			jm.Sum, jm.Count = &sum, &count
		} else {
			v := sm.Value
			jm.Value = &v
		}
		doc.Metrics = append(doc.Metrics, jm)
	}
	for _, hs := range history {
		pt := JSONHistoryPoint{T: hs.T, Values: make(map[string]float64, len(hs.Samples))}
		for i := range hs.Samples {
			pt.Values[hs.Samples[i].Key()] = hs.Samples[i].Value
		}
		doc.History = append(doc.History, pt)
	}
	return doc
}

func refWriteMetricsJSON(w io.Writer, s Snapshot, history []Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(refBuildJSON(s, history))
}

// RefWriteMetricsJSON hands the reference model to this directory's
// external tests, which run whole scenarios.
var RefWriteMetricsJSON = refWriteMetricsJSON

// writtenDoc is what WriteJSON writes for s and history, decoded.
func writtenDoc(t *testing.T, s Snapshot, history []Snapshot) JSONDoc {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, s, history); err != nil {
		t.Fatal(err)
	}
	var doc JSONDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	return doc
}

// metricsDeparture writes s and history with WriteJSON and with the
// reference model and describes the first difference: an error on one side
// only, or the first byte at which the documents part. It returns "" when
// they agree.
func metricsDeparture(s Snapshot, history []Snapshot) string {
	var got, want bytes.Buffer
	gotErr, wantErr := WriteJSON(&got, s, history), refWriteMetricsJSON(&want, s, history)
	switch {
	case (gotErr != nil) != (wantErr != nil):
		return "WriteJSON error " + errString(gotErr) + ", the reference's " + errString(wantErr)
	case gotErr != nil:
		return ""
	case !bytes.Equal(got.Bytes(), want.Bytes()):
		g, w := got.Bytes(), want.Bytes()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		lo := max(0, i-80)
		return "documents part at byte " + strconv.Itoa(i) + ":\n got ..." + string(g[lo:min(len(g), i+80)]) +
			"\nwant ..." + string(w[lo:min(len(w), i+80)])
	}
	return ""
}

func errString(err error) string {
	if err == nil {
		return "nil"
	}
	return err.Error()
}

// fuzzStrings are the names, label keys and values the fuzzer draws from:
// everything encoding/json escapes, invalid UTF-8, and a name whose
// history key collides with a labelled series' ("a{b=c}" and a{b="c"}).
var fuzzStrings = []string{
	"", "charm_tasks_total", "a", "b", "c", "a{b=c}", "chiplet", "0",
	`<script>&amp;</script>`, `q"uote\back`, "tab\tnl\ncr\rbs\bff\f",
	"\x00\x01\x1f\x7f", "line\u2028para\u2029", "\xff\xfe", "caf\xc3", "\u00e9 \u00fc \u65e5\u672c",
}

// fuzzValues are the floats it draws from: every formatting boundary of
// encoding/json, negative zero, integers, and the values it refuses.
var fuzzValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 42, 0.1, 2.5, 1.0 / 3, 1e-7, -1e-7, 1e-6, 9.99e-7,
	1e20, 1e21, -1e21, 1.5e300, 123456789012345678, math.MaxFloat64, math.SmallestNonzeroFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// fuzzDoc decodes a snapshot and a history from raw bytes. Samples of
// later history points reuse earlier points' names and label maps, as a
// registry's do, or bring equal-content maps of their own, or collide.
func fuzzDoc(data []byte) (Snapshot, []Snapshot) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		c := data[0]
		data = data[1:]
		return c
	}
	str := func() string {
		c := next()
		if c < 0xf0 {
			return fuzzStrings[int(c)%len(fuzzStrings)]
		}
		n := min(int(c-0xf0), len(data)) // raw bytes from the input
		s := string(data[:n])
		data = data[n:]
		return s
	}
	value := func() float64 {
		c := next()
		if c < 0xf8 {
			return fuzzValues[int(c)%len(fuzzValues)]
		}
		var bits uint64
		for range 8 {
			bits = bits<<8 | uint64(next())
		}
		return math.Float64frombits(bits)
	}
	labels := func() Labels {
		switch c := next(); c % 4 {
		case 0:
			return nil
		case 1:
			return Labels{}
		default:
			l := Labels{}
			for n := int(c%4) + int(c>>6); n > 0; n-- {
				l[str()] = str()
			}
			return l
		}
	}
	sample := func() Sample {
		sm := Sample{Name: str(), Labels: labels(), Kind: Kind(next() % 4)}
		if c := next(); c%3 == 0 {
			h := &HistData{Sum: int64(c) * 1e9, Count: int64(c)}
			for n := int(next() % 5); n > 0; n-- {
				b := int64(next())<<(next()%63) - 40
				if len(h.Bounds) > 0 && b <= h.Bounds[len(h.Bounds)-1] {
					b = h.Bounds[len(h.Bounds)-1] + 1
				}
				h.Bounds = append(h.Bounds, b)
			}
			for range len(h.Bounds) + 1 {
				h.Counts = append(h.Counts, int64(next()))
			}
			if e := next(); e%2 == 1 {
				for range int(e/2) % (len(h.Bounds) + 2) {
					h.Exemplars = append(h.Exemplars, TraceID(next()))
				}
			}
			sm.Hist = h
		} else {
			sm.Value = value()
		}
		return sm
	}
	snap := Snapshot{T: int64(next()) << 20}
	for n := int(next() % 6); n > 0; n-- {
		snap.Samples = append(snap.Samples, sample())
	}
	var history []Snapshot
	if c := next(); c%4 == 1 {
		history = []Snapshot{}
	} else if c%4 > 1 {
		var series []Sample // what a point may repeat
		for p := int(next() % 5); p > 0; p-- {
			hs := Snapshot{T: int64(next()) * 1000}
			for n := int(next() % 5); n > 0; n-- {
				var sm Sample
				if c := next(); c%2 == 0 && len(series) > 0 {
					sm = series[int(c/2)%len(series)] // the same name and label map
				} else {
					sm = sample()
					sm.Hist = nil
					series = append(series, sm)
				}
				sm.Value = value()
				hs.Samples = append(hs.Samples, sm)
			}
			history = append(history, hs)
		}
	}
	return snap, history
}

// FuzzMetricsJSON holds WriteJSON to the reference model on random
// snapshots and histories: byte-identical documents, or an error on both
// sides.
func FuzzMetricsJSON(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 3, 1, 2, 3, 3, 5, 7, 1, 0, 4, 6, 2, 9, 1, 3, 2, 3, 2, 4, 1, 2, 7, 0, 2, 12})
	f.Add([]byte{9, 5, 8, 2, 14, 15, 0, 1, 20, 11, 3, 2, 12, 13, 1, 0, 0, 2, 4, 3, 3, 8, 6, 7, 9, 10,
		3, 3, 7, 3, 0, 5, 0, 9, 1, 6, 0, 4, 2, 0, 1, 4, 5, 4, 4, 2, 2, 6, 0, 3})
	f.Add([]byte{2, 1, 0, 0, 0, 19, 2, 2, 3, 4, 0, 21, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, history := fuzzDoc(data)
		if d := metricsDeparture(s, history); d != "" {
			t.Fatalf("WriteJSON departs from encoding/json: %s", d)
		}
	})
}

// TestMetricsJSONMatchesReference: a registry's own document — counters,
// gauges and funcs with labels, histograms with and without exemplars, a
// sampled history — and the edge values the registry can hold are written
// byte for byte as encoding/json writes them; NaN and ±Inf are refused by
// both.
func TestMetricsJSONMatchesReference(t *testing.T) {
	r := NewRegistry(2)
	r.SetEnabled(true)
	r.Counter("charm_tasks_total", "Tasks.", Labels{"chiplet": "0", "kind": "<fast&hot>"}, Traced()).Add(1, 9)
	r.Gauge("charm_depth", "Depth.", Labels{"worker": "line\u2028sep"}, Traced()).Set(0, -3)
	h := r.Histogram("charm_lat_ns", "Latency.", nil, []int64{10, 100, 1 << 40}, WithExemplars())
	h.ObserveT(0, 5, 7)
	h.ObserveT(1, 1<<41, 12)
	r.Histogram("charm_plain_ns", "Plain.", Labels{"k": "v"}, []int64{1}).Observe(0, 3)
	v := 0.0
	r.Func("charm_util", "Util.", KindGauge, nil, func(int64) float64 { return v }, Traced())
	r.EnableSampling(10, 16)
	for _, x := range []float64{0.5, 1e-7, 1e21, math.Copysign(0, -1), 3, 2.5e-300} {
		v = x
		r.MaybeSample(r.SampleHorizon())
	}
	if d := metricsDeparture(r.Snapshot(999), r.History()); d != "" {
		t.Fatal(d)
	}
	if d := metricsDeparture(r.Snapshot(0), nil); d != "" {
		t.Fatal(d)
	}
	if d := metricsDeparture(Snapshot{}, nil); d != "" {
		t.Fatal(d)
	}
	// A point holding one series twice, a NaN first (a map keeps the last
	// value), and a name that collides with that series' key.
	l := Labels{"b": "c"}
	dup := []Snapshot{{T: 5, Samples: []Sample{{Name: "a", Labels: l, Value: math.NaN()},
		{Name: "z", Value: 2}, {Name: "a", Labels: l, Value: 1}, {Name: "a{b=c}", Value: 3}}}}
	if d := metricsDeparture(Snapshot{}, dup); d != "" {
		t.Fatal(d)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		v = bad
		if err := WriteJSON(io.Discard, r.Snapshot(1), nil); err == nil {
			t.Errorf("WriteJSON wrote a document holding %v", bad)
		}
		r.MaybeSample(r.SampleHorizon())
		v = 1
		if err := WriteJSON(io.Discard, r.Snapshot(1), r.History()); err == nil {
			t.Errorf("WriteJSON wrote a history holding %v", bad)
		}
	}
}
