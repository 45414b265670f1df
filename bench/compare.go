package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
)

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedSpec `json:"end_to_end"`
	PerLayer []boundedSpec `json:"per_layer"`
}

type boundedSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadBenchSpec reads BENCHMARK.json from the repository root, whether the
// benchmark was started there or in its own directory.
func loadBenchSpec() (*benchSpec, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		if b, err = os.ReadFile("../BENCHMARK.json"); err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("bench: BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

func loadDocument(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	// A single-workload run prints its result line after the document.
	var doc document
	if err := json.NewDecoder(bytes.NewReader(b)).Decode(&doc); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &doc, nil
}

// worsening is how much worse b is than a as a share of a, negative when b
// is better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compare prints, per workload and end-to-end metric, both values, the
// relative change and the bound from BENCHMARK.json. It reports false when
// a bound is exceeded, a check failed in either document, or a
// deterministic workload run with the same seed produced other virtual-time
// results.
func compare(aPath, bPath string, out io.Writer) (bool, error) {
	spec, err := loadBenchSpec()
	if err != nil {
		return false, err
	}
	a, err := loadDocument(aPath)
	if err != nil {
		return false, err
	}
	b, err := loadDocument(bPath)
	if err != nil {
		return false, err
	}
	byName := map[string]*report{}
	for _, r := range b.Workloads {
		byName[r.Workload] = r
	}

	ok := true
	tw := tabwriter.NewWriter(out, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tworse by\tbound\t")
	for _, ra := range a.Workloads {
		rb := byName[ra.Workload]
		if rb == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			va, hasA := ra.EndToEnd[m.Name]
			vb, hasB := rb.EndToEnd[m.Name]
			if !hasA || !hasB {
				continue
			}
			w := worsening(va.Value, vb.Value, m.Better)
			verdict := ""
			if w > m.Bound {
				verdict, ok = "REGRESSED", false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%+.1f%%\t%.0f%%\t%s\n",
				ra.Workload, m.Name, va.Value, va.Unit, vb.Value, vb.Unit, 100*w, 100*m.Bound, verdict)
		}
		if ra.OpsFailed+rb.OpsFailed > 0 {
			ok = false
			fmt.Fprintf(tw, "%s\tops_failed\t%d\t%d\t\t0\tFAILED\n", ra.Workload, ra.OpsFailed, rb.OpsFailed)
		}
		// Virtual-time results of a deterministic workload are exact: a
		// speed-only change must leave them bit-identical.
		if ra.SimDigest != "" && ra.Seed == rb.Seed {
			if ra.SimDigest != rb.SimDigest {
				ok = false
				fmt.Fprintf(tw, "%s\tsim_digest\t%s\t%s\t\texact\tDIFFERS\n", ra.Workload, ra.SimDigest, rb.SimDigest)
			}
			for name, va := range ra.PerLayer {
				if vb, has := rb.PerLayer[name]; has && strings.HasPrefix(name, "sim_") && va.Value != vb.Value {
					ok = false
					fmt.Fprintf(tw, "%s\t%s\t%v\t%v\t\texact\tDIFFERS\n", ra.Workload, name, va.Value, vb.Value)
				}
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return false, fmt.Errorf("bench: %w", err)
	}
	return ok, nil
}
