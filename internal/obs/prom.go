package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format (version 0.0.4). Samples arrive sorted by (name, labels) from
// Registry.Snapshot, so each family's HELP/TYPE header is emitted once.
// The snapshot's virtual time is exported as its own gauge,
// charm_virtual_time_ns, rather than as per-line timestamps (which
// Prometheus would interpret as wall-clock milliseconds).
func WritePrometheus(w io.Writer, s Snapshot) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# HELP charm_virtual_time_ns Virtual time of this snapshot.\n")
	fmt.Fprintf(bw, "# TYPE charm_virtual_time_ns gauge\n")
	fmt.Fprintf(bw, "charm_virtual_time_ns %d\n", s.T)
	prev := ""
	for i := range s.Samples {
		sm := &s.Samples[i]
		if sm.Name != prev {
			prev = sm.Name
			if sm.Help != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", sm.Name, escapeHelp(sm.Help))
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", sm.Name, sm.Kind)
		}
		if sm.Hist != nil {
			writePromHistogram(bw, sm)
			continue
		}
		fmt.Fprintf(bw, "%s%s %s\n", sm.Name, promLabels(sm.Labels, "", ""), formatValue(sm.Value))
	}
	return bw.Flush()
}

// writePromHistogram emits the cumulative _bucket/_sum/_count series.
func writePromHistogram(w io.Writer, sm *Sample) {
	h := sm.Hist
	var cum int64
	for i, b := range h.Bounds {
		cum += h.Counts[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", sm.Name, promLabels(sm.Labels, "le", strconv.FormatInt(b, 10)), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", sm.Name, promLabels(sm.Labels, "le", "+Inf"), h.Count)
	fmt.Fprintf(w, "%s_sum%s %d\n", sm.Name, promLabels(sm.Labels, "", ""), h.Sum)
	fmt.Fprintf(w, "%s_count%s %d\n", sm.Name, promLabels(sm.Labels, "", ""), h.Count)
}

// promLabels renders {k="v",...} with an optional extra label appended.
func promLabels(l Labels, extraK, extraV string) string {
	if len(l) == 0 && extraK == "" {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l[k]))
		b.WriteByte('"')
	}
	if extraK != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraK)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraV))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format: only
// backslash, double-quote, and newline are escaped; everything else —
// including non-ASCII UTF-8 — passes through raw. (Go's %q is wrong
// here: it emits \xNN/\uNNNN escapes the format does not define.)
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 8)
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// formatValue prints integers without exponents and floats compactly.
func formatValue(v float64) string { return string(appendValue(nil, v)) }

// appendValue appends formatValue(v) to dst.
func appendValue(dst []byte, v float64) []byte {
	if v == float64(int64(v)) {
		return strconv.AppendInt(dst, int64(v), 10)
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, "\\", "\\\\")
	return strings.ReplaceAll(h, "\n", "\\n")
}
