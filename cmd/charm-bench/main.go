// Command charm-bench regenerates the paper's tables and figures on the
// simulated chiplet machines.
//
// Usage:
//
//	charm-bench [-full] [-scale N] [-timer NS] [-sample S] [-faults SPEC]
//	            [-arrivals X] [-timeout D] <experiment>|all
//
// Experiments: fig1 fig3 fig4 fig5 fig7 fig8 fig9 fig10 fig11 fig12 fig13
// fig14 tab1 tab2 sens abl gran chaos overload thermal tenants topo. The default options run each
// experiment in seconds; -full selects paper-sized inputs. Every runtime
// runs in virtual-clock lockstep, so a table is a pure function of the
// options: experiments run on a pool of GOMAXPROCS workers and print in id
// order, the same tables a one-by-one run prints. -faults injects a fault
// scenario (internal/fault grammar, e.g.
// "chaos" or "chiplet-flap:seed=7") into every runtime, running the whole
// suite on a degrading machine. -arrivals X pins the overload experiment's
// open-loop arrival rate to X times machine capacity instead of sweeping
// 0.5x/1x/2x. -timeout D aborts a hung run after the
// host-time duration D, dumping all goroutine stacks (and the metrics
// captures collected so far, under -metrics) for post-mortem.
// -cpuprofile/-memprofile write pprof profiles for perf work.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"charm/internal/harness"
)

func main() {
	full := flag.Bool("full", false, "paper-sized inputs (slow)")
	scale := flag.Int("scale", 0, "override graph scale (log2 vertices)")
	timer := flag.Int64("timer", 0, "override scheduler timer (virtual ns)")
	sample := flag.Uint("sample", 0, "override cache sample shift")
	asCSV := flag.Bool("csv", false, "emit CSV instead of aligned text")
	metrics := flag.String("metrics", "", "capture a metrics document per runtime and write the JSON dump to FILE")
	faults := flag.String("faults", "", "inject a fault scenario into every runtime an experiment builds; chaos and the service scenarios ignore it (e.g. \"chaos\" or \"chiplet-flap:seed=7\")")
	arrivals := flag.Float64("arrivals", 0, "pin the overload experiment's arrival rate to this multiple of capacity (0 = sweep 0.5x/1x/2x)")
	hangAfter := flag.Duration("timeout", 0, "abort after host-time D with goroutine stacks (0 = no limit)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to FILE")
	memprofile := flag.String("memprofile", "", "write a heap profile to FILE at exit")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: charm-bench [flags] <experiment>|all")
		fmt.Fprintln(os.Stderr, "experiments:", harness.Defaults().IDs())
		os.Exit(2)
	}

	o := harness.Defaults()
	if *full {
		o = harness.FullScale()
	}
	if *scale > 0 {
		o.GraphScale = *scale
	}
	if *timer > 0 {
		o.SchedulerTimer = *timer
	}
	if *sample > 0 {
		o.SampleShift = *sample
	}
	if *metrics != "" {
		o.Obs = &harness.ObsSink{}
	}
	o.Faults = *faults
	o.ArrivalLoad = *arrivals
	if *hangAfter > 0 {
		watchdog(*hangAfter, o.Obs)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	ids := []string{flag.Arg(0)}
	if flag.Arg(0) == "all" {
		ids = o.IDs()
	}
	if err := runAll(os.Stdout, o, ids, runtime.GOMAXPROCS(0), *asCSV); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if o.Obs != nil {
		o.Obs.Summary().Fprint(os.Stdout)
		f, err := os.Create(*metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := o.Obs.WriteJSON(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("# wrote %d metrics captures to %s\n", o.Obs.Len(), *metrics)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
	}
}

// watchdog arms the -timeout hang guard: after d of host time it dumps
// every goroutine stack (virtual time can only hang when goroutines
// deadlock, so the stacks name the culprit) plus any metrics captures
// collected so far, then exits nonzero. Simulations make no host-time
// promises, so the guard is opt-in and generous timeouts are advised.
func watchdog(d time.Duration, sink *harness.ObsSink) {
	time.AfterFunc(d, func() {
		fmt.Fprintf(os.Stderr, "charm-bench: no result after %v; dumping goroutine stacks\n", d)
		buf := make([]byte, 1<<20)
		for {
			n := runtime.Stack(buf, true)
			if n < len(buf) {
				buf = buf[:n]
				break
			}
			buf = make([]byte, len(buf)*2)
		}
		os.Stderr.Write(buf)
		if sink != nil && sink.Len() > 0 {
			fmt.Fprintf(os.Stderr, "charm-bench: %d metrics captures before the hang:\n", sink.Len())
			sink.WriteJSON(os.Stderr)
		}
		os.Exit(2)
	})
}

// runAll regenerates the experiments on a pool of min(pool, len(ids))
// workers and renders them to w in the order of ids. Each experiment
// renders into its own buffer and buffers flush in id order; every cell is
// deterministic, so the pool size cannot change a table (host-time lines
// aside).
func runAll(w io.Writer, o harness.Options, ids []string, pool int, asCSV bool) error {
	pool = max(1, min(pool, len(ids)))
	outs := make([]bytes.Buffer, len(ids))
	errs := make([]error, len(ids))
	work := make(chan int)
	var wg sync.WaitGroup
	for wk := 0; wk < pool; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				errs[i] = runOne(&outs[i], o, ids[i], asCSV)
			}
		}()
	}
	for i := range ids {
		work <- i
	}
	close(work)
	wg.Wait()
	for i := range ids {
		if errs[i] != nil {
			return errs[i]
		}
		if _, err := w.Write(outs[i].Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// runOne regenerates one experiment into w.
func runOne(w io.Writer, o harness.Options, id string, asCSV bool) error {
	start := time.Now()
	t, err := o.Run(id)
	if err != nil {
		return err
	}
	if asCSV {
		fmt.Fprintf(w, "# %s — %s\n", t.ID, t.Title)
		if err := t.WriteCSV(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
		return nil
	}
	t.Fprint(w)
	fmt.Fprintf(w, "# %s regenerated in %v (host time)\n\n", id, time.Since(start).Round(time.Millisecond))
	return nil
}
