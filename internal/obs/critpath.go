package obs

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
)

// Post-hoc critical-path attribution. A completed job's trace is a
// contiguous chain in virtual time — admit-queue wait, then one window
// per stage (dispatch → barrier release) — so walking the span tree
// decomposes end-to-end latency into named buckets with no gaps by
// construction. Within a stage the critical task is the one whose End
// closes the barrier; its own span splits the stage window into dispatch
// wait, compute, and memory/fabric stall, and any residue before the
// critical task's enqueue is barrier skew from earlier work in the same
// window (charged to queue, since the stage's tasks were runnable but
// the critical one had not been picked up yet).

// Breakdown attributes one job's end-to-end latency (virtual ns) to
// causes. Total = AdmitQueue + DispatchQueue + Compute + Stall +
// Unattributed; Unattributed is nonzero only when the trace is missing
// spans (dropped on a full shard, or the job never completed).
type Breakdown struct {
	Trace    TraceID
	Priority int64
	Arrival  int64
	Finish   int64
	Total    int64

	AdmitQueue    int64 // arrival → dispatch (admission-queue wait)
	DispatchQueue int64 // stage-internal wait before the critical task ran
	Compute       int64 // critical tasks' execution minus stalls
	Stall         int64 // critical tasks' memory/fabric access time
	Unattributed  int64 // trace gaps (dropped spans, incomplete job)

	Stages []StageBreakdown
}

// StageBreakdown decomposes one stage window.
type StageBreakdown struct {
	Stage   int32
	Start   int64
	End     int64
	Tasks   int64
	Queue   int64 // window time before the critical task executed
	Compute int64
	Stall   int64
	Chiplet int32 // chiplet the critical task ran on (-1 if unknown)
	Worker  int32
}

// AttributedFraction is the share of Total explained by named buckets.
func (b Breakdown) AttributedFraction() float64 {
	if b.Total <= 0 {
		return 1
	}
	return 1 - float64(b.Unattributed)/float64(b.Total)
}

// Analyze decomposes one job trace. It returns ok=false when the trace
// has no stage spans (the job was shed, rejected, or expired before
// dispatch — its breakdown is pure admit-queue time).
func Analyze(tr Trace) (Breakdown, bool) {
	var slab []StageBreakdown
	return analyze(tr, &slab)
}

// analyze is Analyze with the job's Stages appended to *slab, a window of
// it whose capacity ends at its length: appending to one job's Stages
// reallocates them rather than reaching the next job's. A slab with too
// little room left is replaced by a new one sized for this job.
func analyze(tr Trace, slab *[]StageBreakdown) (Breakdown, bool) {
	b := Breakdown{Trace: tr.ID}
	var admit, term *Span
	nStages := 0
	for i := range tr.Spans {
		s := &tr.Spans[i]
		switch s.Kind {
		case SpanAdmitQueue:
			admit = s
		case SpanStage:
			nStages++
		case SpanShed, SpanExpire, SpanReject, SpanCancel, SpanFail:
			if term == nil || s.End > term.End {
				term = s
			}
			if b.Finish < s.End {
				b.Finish = s.End
			}
		}
	}
	if admit != nil {
		b.Arrival = admit.Start
		b.Priority = admit.Arg
		b.AdmitQueue = admit.End - admit.Start
	} else if term != nil {
		// Never dispatched: the terminal span covers arrival → verdict.
		b.Arrival = term.Start
		b.Priority = term.Arg
	}
	if nStages == 0 {
		b.Total = b.Finish - b.Arrival
		if b.Total < 0 {
			b.Total = 0
		}
		// A job with no stage spans spent its whole recorded life in the
		// admission queue (shed, rejected, or expired before dispatch).
		if b.AdmitQueue < b.Total {
			b.AdmitQueue = b.Total
		}
		return b, false
	}
	if cap(*slab)-len(*slab) < nStages {
		*slab = make([]StageBreakdown, 0, nStages)
	}
	first := len(*slab)
	for i := range tr.Spans {
		st := &tr.Spans[i]
		if st.Kind != SpanStage {
			continue
		}
		sb := StageBreakdown{Stage: st.Stage, Start: st.Start, End: st.End,
			Tasks: st.Arg, Chiplet: -1, Worker: -1}
		wall := st.End - st.Start
		// The critical task is the one that released the barrier: the
		// latest End in the stage (ties broken by the canonical order the
		// spans already carry). A trace is a handful of spans, so each
		// stage rescans it in place.
		var crit *Span
		for j := range tr.Spans {
			s := &tr.Spans[j]
			if s.Stage == st.Stage && s.Kind == SpanTask && (crit == nil || s.End > crit.End) {
				crit = s
			}
		}
		if crit != nil {
			execStart := crit.Arg // first-execution time
			queue := execStart - st.Start
			if queue < 0 {
				queue = 0
			}
			stall := crit.Arg2
			compute := crit.End - execStart - stall
			if compute < 0 {
				compute = 0
			}
			// Clamp to the stage wall so a missing tail span can never
			// over-attribute.
			if queue+compute+stall > wall {
				over := queue + compute + stall - wall
				if queue >= over {
					queue -= over
				} else {
					over -= queue
					queue = 0
					if compute >= over {
						compute -= over
					} else {
						compute = 0
					}
				}
			}
			sb.Queue, sb.Compute, sb.Stall = queue, compute, stall
			sb.Chiplet, sb.Worker = crit.Chiplet, crit.Worker
			// Tail of the window after the critical task's End (barrier
			// bookkeeping) is charged to queue — it is time the job spent
			// waiting on scheduling, not computing.
			sb.Queue += wall - (queue + compute + stall)
		} else {
			// No task spans survived for this stage: charge the whole
			// window to queue only if we know nothing better.
			sb.Queue = wall
		}
		*slab = append(*slab, sb)
		b.DispatchQueue += sb.Queue
		b.Compute += sb.Compute
		b.Stall += sb.Stall
		if b.Finish < st.End {
			b.Finish = st.End
		}
	}
	b.Stages = (*slab)[first:len(*slab):len(*slab)]
	// Stages are reported by index; two stage spans with one index (only a
	// hand-built trace has them) stay in canonical span order.
	slices.SortStableFunc(b.Stages, func(x, y StageBreakdown) int { return cmp.Compare(x.Stage, y.Stage) })
	if b.Arrival == 0 && admit == nil {
		b.Arrival = b.Stages[0].Start
	}
	b.Total = b.Finish - b.Arrival
	attributed := b.AdmitQueue + b.DispatchQueue + b.Compute + b.Stall
	b.Unattributed = b.Total - attributed
	if b.Unattributed < 0 {
		b.Unattributed = 0
	}
	return b, true
}

// Culprit is one row of an aggregate attribution table.
type Culprit struct {
	Key   string
	NS    int64
	Count int64
}

// Report aggregates per-job breakdowns into "top culprits" tables.
type Report struct {
	Jobs       []Breakdown
	ByChiplet  []Culprit // critical-path exec+stall ns per chiplet
	ByStage    []Culprit // critical-path wall ns per stage index
	ByFault    []Culprit // instant counts per fault kind (rehome/shed/...)
	TotalNS    int64
	AttribNS   int64
	QueueNS    int64 // admit + dispatch queue
	ComputeNS  int64
	StallNS    int64
	UnattribNS int64
}

// BuildReport analyzes every job trace the tracer holds (trace 0, the
// runtime scope, feeds only the fault table). It reads the buffer in one
// walk (Tracer.eachTrace) and allocates per report, not per job: every
// job's Stages are windows of one slab sized by the count of stage spans.
func BuildReport(t *Tracer) Report {
	var rep Report
	var faults, stages, chiplets culpritTable // keyed by span kind, stage index, chiplet
	var slab []StageBreakdown
	jobs := 0 // a job has an admit-queue span or ends before dispatch
	size := func(kinds *[1 << 8]int) {
		slab = make([]StageBreakdown, 0, kinds[SpanStage])
		for _, k := range []SpanKind{SpanAdmitQueue, SpanShed, SpanExpire, SpanReject, SpanCancel} {
			jobs += kinds[k]
		}
	}
	t.eachTrace(size, func(tr Trace) {
		if tr.ID == 0 {
			for i := range tr.Spans {
				switch k := tr.Spans[i].Kind; k {
				case SpanRehome, SpanPark, SpanBreaker:
					faults.bump(int32(k), 0)
				}
			}
			return
		}
		for i := range tr.Spans {
			switch k := tr.Spans[i].Kind; k {
			case SpanShed, SpanExpire, SpanFail, SpanCancel:
				faults.bump(int32(k), 0)
			}
		}
		b, ok := analyze(tr, &slab)
		if !ok && b.Total == 0 {
			return
		}
		if rep.Jobs == nil {
			rep.Jobs = make([]Breakdown, 0, max(jobs, 1))
		}
		rep.Jobs = append(rep.Jobs, b)
		rep.TotalNS += b.Total
		rep.AttribNS += b.Total - b.Unattributed
		rep.QueueNS += b.AdmitQueue + b.DispatchQueue
		rep.ComputeNS += b.Compute
		rep.StallNS += b.Stall
		rep.UnattribNS += b.Unattributed
		for _, st := range b.Stages {
			stages.bump(st.Stage, st.End-st.Start)
			if st.Chiplet >= 0 {
				chiplets.bump(st.Chiplet, st.Compute+st.Stall)
			}
		}
	})
	rep.ByChiplet = chiplets.sorted(func(i int32) string { return "chiplet-" + strconv.Itoa(int(i)) })
	rep.ByStage = stages.sorted(func(i int32) string { return "stage-" + strconv.Itoa(int(i)) })
	rep.ByFault = faults.sorted(func(k int32) string { return SpanKind(k).String() })
	// Slowest jobs first — the tail is what the report is for.
	slowestFirst(rep.Jobs)
	return rep
}

// slowestFirst orders jobs by Total descending, then Trace ascending. They
// arrive in ascending Trace order, so a stable sort on Total alone gives
// that order: radixStable over the compact keys ^(Total with its sign bit
// flipped), then each Breakdown moves once, along the cycles of the
// permutation.
func slowestFirst(jobs []Breakdown) {
	if len(jobs) < 2 {
		return
	}
	keys, pos := make([]uint64, len(jobs)), make([]uint32, len(jobs))
	var vary uint64
	for i := range jobs {
		keys[i] = ^(uint64(jobs[i].Total) ^ 1<<63)
		pos[i] = uint32(i)
		vary |= keys[i] ^ keys[0]
	}
	pos = radixStable(pos, make([]uint32, len(jobs)), vary, func(p uint32) uint64 { return keys[p] })
	// pos[i] is the job that belongs at i; a visited entry is set to i.
	for i := range pos {
		if pos[i] == uint32(i) {
			continue
		}
		hold, j := jobs[i], i
		for {
			k := int(pos[j])
			pos[j] = uint32(j)
			if k == i {
				jobs[j] = hold
				break
			}
			jobs[j] = jobs[k]
			j = k
		}
	}
}

// culpritTable accumulates culprit rows keyed by a small integer: a span
// kind, a stage index, a chiplet. A run has a handful of each, so a row is
// found by scanning the index list, and its key is formatted once, at the
// end, rather than once per job.
type culpritTable struct {
	idx  []int32
	rows []Culprit
}

func (t *culpritTable) bump(idx int32, ns int64) {
	i := slices.Index(t.idx, idx)
	if i < 0 {
		i = len(t.idx)
		t.idx, t.rows = append(t.idx, idx), append(t.rows, Culprit{})
	}
	t.rows[i].NS += ns
	t.rows[i].Count++
}

// sorted names the rows and returns them, heaviest first (an empty table
// is an empty slice, not nil).
func (t *culpritTable) sorted(key func(idx int32) string) []Culprit {
	rows := append([]Culprit{}, t.rows...)
	for i := range rows {
		rows[i].Key = key(t.idx[i])
	}
	slices.SortFunc(rows, func(x, y Culprit) int {
		return cmp.Or(cmp.Compare(y.NS, x.NS), cmp.Compare(y.Count, x.Count), cmp.Compare(x.Key, y.Key))
	})
	return rows
}

// WriteText renders the report as aligned tables.
func (rep Report) WriteText(w io.Writer, topJobs int) {
	pct := func(ns int64) float64 {
		if rep.TotalNS == 0 {
			return 0
		}
		return 100 * float64(ns) / float64(rep.TotalNS)
	}
	fmt.Fprintf(w, "critical-path attribution over %d jobs (total %.3f ms on the critical path)\n\n",
		len(rep.Jobs), float64(rep.TotalNS)/1e6)
	fmt.Fprintf(w, "  %-14s %12s %7s\n", "bucket", "ns", "share")
	for _, row := range []struct {
		k  string
		ns int64
	}{
		{"queue", rep.QueueNS}, {"compute", rep.ComputeNS},
		{"stall", rep.StallNS}, {"unattributed", rep.UnattribNS},
	} {
		fmt.Fprintf(w, "  %-14s %12d %6.1f%%\n", row.k, row.ns, pct(row.ns))
	}
	writeCulprits := func(title string, rows []Culprit) {
		if len(rows) == 0 {
			return
		}
		fmt.Fprintf(w, "\n  top culprits %s\n", title)
		for i, c := range rows {
			if i >= 8 {
				break
			}
			fmt.Fprintf(w, "    %-14s %12d ns  %6d events\n", c.Key, c.NS, c.Count)
		}
	}
	writeCulprits("by chiplet (critical exec+stall)", rep.ByChiplet)
	writeCulprits("by stage (wall)", rep.ByStage)
	writeCulprits("by fault kind", rep.ByFault)
	if topJobs > 0 && len(rep.Jobs) > 0 {
		fmt.Fprintf(w, "\n  slowest jobs\n")
		fmt.Fprintf(w, "    %-8s %4s %12s %10s %10s %10s %8s\n",
			"trace", "prio", "total", "queue", "compute", "stall", "attrib")
		for i, b := range rep.Jobs {
			if i >= topJobs {
				break
			}
			fmt.Fprintf(w, "    %-8d %4d %12d %10d %10d %10d %7.1f%%\n",
				b.Trace, b.Priority, b.Total, b.AdmitQueue+b.DispatchQueue,
				b.Compute, b.Stall, 100*b.AttributedFraction())
		}
	}
}

// WriteJobText renders one job's per-stage breakdown.
func (b Breakdown) WriteJobText(w io.Writer) {
	fmt.Fprintf(w, "trace %d  priority %d  arrival %d  finish %d  total %d ns  (%.1f%% attributed)\n",
		b.Trace, b.Priority, b.Arrival, b.Finish, b.Total, 100*b.AttributedFraction())
	fmt.Fprintf(w, "  %-14s %12d ns\n", "admit-queue", b.AdmitQueue)
	for _, st := range b.Stages {
		fmt.Fprintf(w, "  stage %-3d [%d..%d] %d tasks  queue %d  compute %d  stall %d",
			st.Stage, st.Start, st.End, st.Tasks, st.Queue, st.Compute, st.Stall)
		if st.Chiplet >= 0 {
			fmt.Fprintf(w, "  (critical on chiplet %d, worker %d)", st.Chiplet, st.Worker)
		}
		fmt.Fprintln(w)
	}
	if b.Unattributed > 0 {
		fmt.Fprintf(w, "  %-14s %12d ns\n", "unattributed", b.Unattributed)
	}
}
