package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"charm/internal/harness"
)

// regenerate runs ids through runAll on a pool of the given size and
// returns the output without its host-time lines, and which experiment
// each metrics capture was filed under (with the runtime's worker count),
// in the sink's order.
func regenerate(t *testing.T, ids []string, pool int) (tables, captures string) {
	t.Helper()
	o := harness.Defaults()
	o.GraphScale = 8
	o.Obs = &harness.ObsSink{}
	var out bytes.Buffer
	if err := runAll(&out, o, ids, pool, false); err != nil {
		t.Fatal(err)
	}
	var keep []string
	for _, l := range strings.Split(out.String(), "\n") {
		if !strings.Contains(l, "(host time)") {
			keep = append(keep, l)
		}
	}
	var c strings.Builder
	for _, e := range o.Obs.Entries() {
		fmt.Fprintf(&c, "%s/%d ", e.Experiment, e.Workers)
	}
	return strings.Join(keep, "\n"), c.String()
}

// TestPoolMatchesOneByOne: experiments regenerated concurrently print the
// tables, and file the metrics captures under the experiment ids, that
// running them one at a time does. fig5 places workers statically from
// inside the run; sens and tab1 build, then read, the one shared Kronecker
// graph concurrently (the pooled run goes first). The ids are in sorted
// order, the order of `all` and of the sink's entries. make verify runs
// this under -race.
func TestPoolMatchesOneByOne(t *testing.T) {
	ids := []string{"fig5", "gran", "sens", "tab1"}
	tables, captures := regenerate(t, ids, len(ids))
	var seqTables, seqCaptures string
	for _, id := range ids {
		tab, c := regenerate(t, []string{id}, 1)
		seqTables += tab
		seqCaptures += c
	}
	if tables != seqTables {
		t.Errorf("pooled tables differ from one-by-one runs:\n got:\n%s\nwant:\n%s", tables, seqTables)
	}
	if captures != seqCaptures {
		t.Errorf("pooled captures filed as\n%s\nwant\n%s", captures, seqCaptures)
	}
	for _, id := range ids {
		if !strings.Contains(tables, "## "+id+" ") || !strings.Contains(captures, id+"/") {
			t.Errorf("%s: no table or no captures", id)
		}
	}
}
