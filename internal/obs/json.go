package obs

import (
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// JSONBucket is one histogram bucket in the JSON document. LE is the
// inclusive upper bound in virtual ns; the +Inf bucket uses LE = "+Inf".
// Exemplar, when non-zero, is a TraceID that observed into this bucket —
// the link from a tail bucket to the flight-recorded trace behind it.
type JSONBucket struct {
	LE       string `json:"le"`
	Count    int64  `json:"count"`
	Exemplar uint64 `json:"exemplar,omitempty"`
}

// JSONMetric is one metric in the JSON document.
type JSONMetric struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Type    string            `json:"type"`
	Value   *float64          `json:"value,omitempty"`
	Buckets []JSONBucket      `json:"buckets,omitempty"`
	Sum     *int64            `json:"sum,omitempty"`
	Count   *int64            `json:"count,omitempty"`
}

// JSONHistoryPoint is one periodic sample: series key -> value.
type JSONHistoryPoint struct {
	T      int64              `json:"t"`
	Values map[string]float64 `json:"values"`
}

// JSONDoc is the machine-readable snapshot document the BENCH_*.json
// tooling consumes: the full metric state at one virtual time plus the
// periodic traced-metric history. WriteJSON writes it; this is the type
// it decodes into.
type JSONDoc struct {
	VirtualTimeNS int64              `json:"virtual_time_ns"`
	Metrics       []JSONMetric       `json:"metrics"`
	History       []JSONHistoryPoint `json:"history,omitempty"`
}

// docChunk is how much of a metrics document WriteJSON buffers before it
// writes it out.
const docChunk = 32 << 10

// WriteJSON renders the snapshot (plus optional history, which may be nil)
// as the indented JSONDoc document, byte for byte what encoding/json's
// Encoder with SetIndent("", "  ") writes for it: map keys (labels, history
// series) in byte order, floats formatted and strings escaped as
// encoding/json does, the omitempty fields left out when empty. It appends
// the document straight from the snapshot into one buffer that it writes
// out every docChunk bytes, and builds each history series key once. A NaN
// or infinite value is an error, as it is for encoding/json; the document
// written up to it is cut short.
func WriteJSON(w io.Writer, s Snapshot, history []Snapshot) error {
	d := docWriter{w: w, buf: make([]byte, 0, 2*docChunk)}
	d.buf = append(d.buf, '{')
	d.key(1, true, "virtual_time_ns")
	d.buf = strconv.AppendInt(d.buf, s.T, 10)
	d.key(1, false, "metrics")
	d.buf = append(d.buf, '[')
	for i := range s.Samples {
		d.next(2, i == 0)
		d.metric(&s.Samples[i])
		if d.err != nil {
			return d.err
		}
		d.flushFull()
	}
	d.end(1, len(s.Samples) == 0, ']')
	if len(history) > 0 {
		d.key(1, false, "history")
		d.buf = append(d.buf, '[')
		ranks, keys := historyKeys(history)
		vals, at := make([]float64, len(keys)), make([]int, len(keys))
		var point []int32 // the ranks one point holds, once each
		for p := range history {
			hs := &history[p]
			point = point[:0]
			for i := range hs.Samples {
				r := ranks[0]
				ranks = ranks[1:]
				if at[r] != p+1 {
					at[r] = p + 1
					point = append(point, r)
				}
				vals[r] = hs.Samples[i].Value // a repeated key keeps its last value
			}
			slices.Sort(point)
			d.next(2, p == 0)
			d.buf = append(d.buf, '{')
			d.key(3, true, "t")
			d.buf = strconv.AppendInt(d.buf, hs.T, 10)
			d.key(3, false, "values")
			d.buf = append(d.buf, '{')
			for i, r := range point {
				d.key(4, i == 0, keys[r])
				d.float(vals[r])
			}
			d.end(3, len(point) == 0, '}')
			d.end(2, false, '}')
			if d.err != nil {
				return d.err
			}
			d.flushFull()
		}
		d.end(1, false, ']')
	}
	d.end(0, false, '}')
	d.buf = append(d.buf, '\n')
	d.flush()
	return d.err
}

// docWriter appends one indented JSON document to buf and writes buf out
// whenever it passes docChunk.
type docWriter struct {
	w      io.Writer
	buf    []byte
	err    error
	labels []string // one metric's label keys, sorted
}

func (d *docWriter) flush() {
	if d.err == nil {
		_, d.err = d.w.Write(d.buf)
	}
	d.buf = d.buf[:0]
}

func (d *docWriter) flushFull() {
	if len(d.buf) >= docChunk {
		d.flush()
	}
}

// next starts an element of the object or array whose elements sit at
// depth: a comma unless it is the first, then a newline and the indent.
func (d *docWriter) next(depth int, first bool) {
	if !first {
		d.buf = append(d.buf, ',')
	}
	d.buf = append(d.buf, '\n')
	for range depth {
		d.buf = append(d.buf, ' ', ' ')
	}
}

// key starts an object member: next, then the quoted name and ": ".
func (d *docWriter) key(depth int, first bool, name string) {
	d.next(depth, first)
	d.buf = appendJSONString(d.buf, name)
	d.buf = append(d.buf, ':', ' ')
}

// end closes the object or array opened at depth: on its own line, unless
// it is empty.
func (d *docWriter) end(depth int, empty bool, c byte) {
	if !empty {
		d.next(depth, true)
	}
	d.buf = append(d.buf, c)
}

// metric writes one metric object, its members at depth 3.
func (d *docWriter) metric(sm *Sample) {
	d.buf = append(d.buf, '{')
	d.key(3, true, "name")
	d.buf = appendJSONString(d.buf, sm.Name)
	if len(sm.Labels) > 0 {
		d.key(3, false, "labels")
		d.buf = append(d.buf, '{')
		d.labels = d.labels[:0]
		for k := range sm.Labels {
			d.labels = append(d.labels, k)
		}
		slices.Sort(d.labels)
		for i, k := range d.labels {
			d.key(4, i == 0, k)
			d.buf = appendJSONString(d.buf, sm.Labels[k])
		}
		d.end(3, false, '}')
	}
	d.key(3, false, "type")
	d.buf = appendJSONString(d.buf, sm.Kind.String())
	if h := sm.Hist; h == nil {
		d.key(3, false, "value")
		d.float(sm.Value)
	} else {
		d.key(3, false, "buckets")
		d.buf = append(d.buf, '[')
		var cum int64
		for j := 0; j <= len(h.Bounds); j++ {
			d.next(4, j == 0)
			d.buf = append(d.buf, '{')
			d.key(5, true, "le")
			count := h.Count
			if j < len(h.Bounds) {
				cum += h.Counts[j]
				count = cum
				d.buf = append(d.buf, '"')
				d.buf = appendValue(d.buf, float64(h.Bounds[j]))
				d.buf = append(d.buf, '"')
			} else {
				d.buf = append(d.buf, `"+Inf"`...)
			}
			d.key(5, false, "count")
			d.buf = strconv.AppendInt(d.buf, count, 10)
			if j < len(h.Exemplars) && h.Exemplars[j] != 0 {
				d.key(5, false, "exemplar")
				d.buf = strconv.AppendUint(d.buf, uint64(h.Exemplars[j]), 10)
			}
			d.end(4, false, '}')
		}
		d.end(3, false, ']')
		d.key(3, false, "sum")
		d.buf = strconv.AppendInt(d.buf, h.Sum, 10)
		d.key(3, false, "count")
		d.buf = strconv.AppendInt(d.buf, h.Count, 10)
	}
	d.end(2, false, '}')
}

// float appends v as encoding/json formats a float64: like %g, but in
// exponent form only below 1e-6 or from 1e21 on, and with a one-digit
// exponent unpadded.
func (d *docWriter) float(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if d.err == nil {
			d.err = fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(v, 'g', -1, 64))
		}
		return
	}
	f := byte('f')
	if a := math.Abs(v); a != 0 && (a < 1e-6 || a >= 1e21) {
		f = 'e'
	}
	d.buf = strconv.AppendFloat(d.buf, v, f, -1, 64)
	if n := len(d.buf); f == 'e' && d.buf[n-4] == 'e' && d.buf[n-3] == '-' && d.buf[n-2] == '0' {
		d.buf[n-2] = d.buf[n-1]
		d.buf = d.buf[:n-1]
	}
}

// appendJSONString appends s quoted and escaped as encoding/json escapes
// it: quote, backslash and the HTML characters <, > and &, control
// characters (\b, \f, \n, \r, \t by name, the rest as \u00XX), invalid
// UTF-8 as \ufffd, and U+2028 and U+2029.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// historyKeys numbers the series of a history: for every sample of every
// point, in order, the rank of its key (Sample.Key) among the history's
// distinct keys in byte order, and those keys in that order. Each key is
// built once, not once a point: the samples of one series share its Name
// and Labels map, so a series is found by the pair.
func historyKeys(history []Snapshot) (ranks []int32, keys []string) {
	type series struct {
		name   string
		labels uintptr
	}
	bySeries, byKey := map[series]int32{}, map[string]int32{}
	n := 0
	for i := range history {
		n += len(history[i].Samples)
	}
	ranks = make([]int32, 0, n)
	for i := range history {
		for j := range history[i].Samples {
			sm := &history[i].Samples[j]
			id := series{sm.Name, reflect.ValueOf(sm.Labels).Pointer()}
			k, ok := bySeries[id]
			if !ok {
				key := sm.Key()
				if k, ok = byKey[key]; !ok {
					k = int32(len(keys))
					keys = append(keys, key)
					byKey[key] = k
				}
				bySeries[id] = k
			}
			ranks = append(ranks, k)
		}
	}
	order := make([]int32, len(keys))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(keys[a], keys[b]) })
	rank, sorted := make([]int32, len(keys)), make([]string, len(keys))
	for r, k := range order {
		rank[k] = int32(r)
		sorted[r] = keys[k]
	}
	for i := range ranks {
		ranks[i] = rank[ranks[i]]
	}
	return ranks, sorted
}
