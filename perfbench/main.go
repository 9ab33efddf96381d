// Command perfbench is the repository's end-to-end benchmark. It replays
// synthetic EMR audit days from internal/emr through a real internal/server
// on loopback TCP, configured like cmd/sagserver, checks every answer, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer metrics)
// as one JSON object on its last line. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// setupsBefore is how many times a run builds its stack before the load;
// the last build serves it. An untraced run builds one more after each
// slice of the load, and setup_s is the median of all of them.
const setupsBefore = 3

// slices is how many rounds of its three phases (open loop, one-connection
// closed loop, saturating closed loop) an untraced run alternates through.
const slices = 8

// holdoutSalt moves -holdout-seed streams into their own seed space, so a
// holdout input can never coincide with a tuning seed's.
const holdoutSalt = 0x5eed << 32

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: emr-day, durable-standby or tenant-fanout")
		seed    = flag.Int64("seed", 1, "input seed: world, history and request stream")
		holdout = flag.Int64("holdout-seed", 0, "when non-zero, generate inputs from this holdout seed instead of -seed; holdout seeds are kept out of tuning")
		seconds = flag.Int("seconds", 10, "measured load time in seconds")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		workdir = flag.String("workdir", ".bench_build", "directory for the run's data directories")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	genSeed := *seed
	if *holdout != 0 {
		genSeed = *holdout ^ holdoutSalt
	}
	dir := filepath.Join(*workdir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	res, err := measure(w, genSeed, time.Duration(*seconds)*time.Second, *trace == 1, dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *holdout != 0 {
		fmt.Printf("inputs from holdout seed %d\n", *holdout)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// heapSampler records the peak live heap while the load runs and it is on.
type heapSampler struct {
	on   atomic.Bool
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.on.Store(true)
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			if h.on.Load() {
				metrics.Read(s)
				if v := s[0].Value.Uint64(); v > h.peak {
					h.peak = v
				}
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// report accumulates the metrics; percentiles are printed as they are set,
// the rest by print.
type report struct {
	metrics map[string]metric
	printed map[string]bool
}

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// setPct records a percentile and prints which one it is and its sample
// count.
func (r *report) setPct(name string, p pct, unit string) {
	r.set(name, p.Value, unit)
	r.printed[name] = true
	printPct(name, p, unit)
}

func printPct(name string, p pct, unit string) {
	fmt.Printf("  %-32s %12.4f %-6s (%s)\n", name, p.Value, unit, p)
}

func (r *report) print() {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if !r.printed[n] {
			fmt.Printf("  %-32s %12.4f %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
		}
	}
}

func measure(w *workload, seed int64, dur time.Duration, traced bool, dir string) (*result, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var setups []float64
	// timeSetUp builds a stack, times it and tears it down.
	timeSetUp := func() error {
		runtime.GC() // the previous build's garbage is not this one's cost
		t0 := time.Now()
		s, err := setUp(w, seed, filepath.Join(dir, fmt.Sprint(len(setups))), tr)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		s.tearDown()
		return nil
	}
	for i := 1; i < setupsBefore; i++ {
		if err := timeSetUp(); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	t0 := time.Now()
	st, err := setUp(w, seed, filepath.Join(dir, "serving"), tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setups = append(setups, time.Since(t0).Seconds())
	defer st.tearDown()
	runtime.GC()

	str := newStream(w, seed, st.env.gen, st.env.det)
	hash, err := str.hash(hashDays)
	if err != nil {
		return nil, err
	}
	fmt.Printf("perfbench %s seed=%d trace=%v: stream sha256(first %d days)=%s\n", w.name, seed, traced, hashDays, hash)
	fail := &failures{}
	r := newRunner(w, st.primary.base, str, st.clock, fail)
	if err := r.warmUp(warmupOps); err != nil {
		return nil, err
	}

	// Every buffer the load fills is allocated before the heap sampler
	// starts, and none grows with the number of requests sent.
	var phases []*recorder
	var open, lat, closed, plain, tracedRec *recorder
	slice := dur / slices
	openDur, latDur := slice/5, 2*slice/5
	if !traced {
		open, lat, closed = newRecorder(), newRecorder(), newRecorder()
		phases = []*recorder{open, lat, closed}
	} else {
		open, plain, tracedRec = newRecorder(), newRecorder(), newRecorder()
		phases = []*recorder{open, plain, tracedRec}
	}
	scr := r.startScraper(dur)
	runtime.GC()
	heap := startHeapSampler()
	var disk *diskSampler
	if traced && w.durable {
		disk = startDiskSampler(st)
	}
	before, fbefore := st.reg.Snapshot(), st.freg.Snapshot()
	if !traced {
		// The phases alternate in slices, so each samples the machine's
		// speed across the whole run rather than over its own stretch of
		// it. Latency is timed on one connection in a closed loop: nothing
		// queues, so a slow stretch of the host slows the requests it
		// covers and no more. The open loop's backlog after a stall, and
		// so its latency, swings with the host from run to run; it is
		// printed, not gated. Scrapes run beside the one-connection loop,
		// so at most two requests are in flight on the two cores.
		for i := 0; i < slices; i++ {
			if err := r.phase(open, maxConnection, w.rate, openDur); err != nil {
				return nil, err
			}
			scr.on.Store(true)
			if err := r.phase(lat, 1, 0, latDur); err != nil {
				return nil, err
			}
			scr.on.Store(false)
			if err := r.phase(closed, maxConnection, 0, slice-openDur-latDur); err != nil {
				return nil, err
			}
			// Between slices, with the heap sampler paused, one more
			// set-up, so setup_s too samples the machine across the run,
			// and the quiet scrapes, after the set-up's garbage is
			// collected so that they do not pay for it.
			heap.on.Store(false)
			if err := timeSetUp(); err != nil {
				return nil, err
			}
			runtime.GC()
			scr.quiet(w.quietScrapes)
			runtime.GC()
			heap.on.Store(true)
		}
	} else {
		scr.on.Store(true)
		if err := r.phase(open, maxConnection, w.rate, dur/3); err != nil {
			return nil, err
		}
		if err := r.phase(plain, 1, 0, dur/3); err != nil {
			return nil, err
		}
		tr.on.Store(true)
		r.keepSent = true
		if err := r.phase(tracedRec, 1, 0, dur-2*(dur/3)); err != nil {
			return nil, err
		}
		tr.on.Store(false)
		r.keepSent = false
	}
	scr.finish()
	var diskStats diskResult
	if disk != nil {
		diskStats = disk.finish()
	}
	heapPeak := heap.finish()
	after, fafter := st.reg.Snapshot(), st.freg.Snapshot()

	if !traced {
		rest := newRecorder()
		phases = append(phases, rest)
		if err := r.finishDays(w.utilDays, rest); err != nil {
			return nil, err
		}
	}
	r.checkOpenCycles()
	var rec *recovery
	if w.durable {
		if rec, err = r.finishDurable(st); err != nil {
			return nil, err
		}
	}

	res := &result{Metrics: map[string]metric{}}
	rep := &report{metrics: res.Metrics, printed: map[string]bool{}}
	for _, p := range phases {
		res.Attempted += p.sent
		res.Failed += p.sent - p.ok
	}
	res.Attempted += scr.attempts
	res.Failed += scr.attempts - scr.ok
	if rec != nil {
		fmt.Printf("  recovery: reopen %.4f s; standby mirror replayed %d records in %.4f s\n", rec.reopen, rec.replayed, rec.mirror)
	}
	if !traced {
		rep.set("setup_s", median(setups).Value, "s")
		fmt.Printf("  setup_s runs: %v\n", setups)
		rep.setPct("access_p50_ms", lat.access.pct(0.5), "ms")
		rep.setPct("alert_p50_ms", lat.alert.pct(0.5), "ms")
		// The tails and the status reads are printed, not gated: on
		// durable-standby the tails follow the shared host disk's stalls,
		// and the sub-0.2 ms status reads swing with the host's wake-up
		// latency.
		printPct("access_p99_ms", lat.access.pct(0.99), "ms")
		printPct("alert_p99_ms", lat.alert.pct(0.99), "ms")
		rep.set("sat_rps", midMean(closed.segments), "1/s")
		fmt.Printf("  sat_rps: interquartile mean over %d day stretches; whole phase %.1f/s\n",
			len(closed.segments), float64(closed.accesses)/closed.busy().Seconds())
		rep.set("ossp_utility", ratio(r.utilSum, float64(r.utilN)), "utility")
		fmt.Printf("  ossp_utility: over the %d alerts of the first %d days' cycles\n", r.utilN, w.utilDays)
		hits := counter(after, "sag_engine_cache_hits_total") - counter(before, "sag_engine_cache_hits_total")
		misses := counter(after, "sag_engine_cache_misses_total") - counter(before, "sag_engine_cache_misses_total")
		fmt.Printf("  decision cache: %.0f hits in %.0f lookups (hit ratio %.3f)\n", hits, hits+misses, ratio(hits, hits+misses))
		rep.set("heap_peak_mb", heapPeak, "MiB")
		rep.setPct("scrape_p50_ms", median(scr.quietMs), "ms")
		rep.set("scrape_kb", median(scr.bytes).Value/1024, "KiB")
		printPct("busy_scrape_p50_ms", median(scr.ms), "ms")
		printPct("status_p50_ms", lat.statuses().pct(0.5), "ms")
		printPct("status_p99_ms", lat.statuses().pct(0.99), "ms")
		fmt.Printf("  open loop at %g req/s, %d sent, generator late %.4f ms (%s):\n", w.rate, open.sent, open.late.pct(0.99).Value, open.late.pct(0.99))
		printPct("open_access_p50_ms", open.access.pct(0.5), "ms")
		printPct("open_access_p99_ms", open.access.pct(0.99), "ms")
		printPct("open_alert_p50_ms", open.alert.pct(0.5), "ms")
		printPct("open_alert_p99_ms", open.alert.pct(0.99), "ms")
	} else {
		layerMetrics(rep, w, st, tr, r, layerInput{
			before: before, after: after, fbefore: fbefore, fafter: fafter,
			open: open, plain: plain, traced: tracedRec, scrape: scr, disk: diskStats, rec: rec,
		})
	}
	fmt.Printf("  cycles closed %d over %d days\n", r.cycles, r.dayIdx)
	rep.print()
	if n := fail.count(); n > 0 {
		fmt.Printf("  %d output checks FAILED:\n    %s\n", n, strings.Join(fail.msgs, "\n    "))
	}
	res.Correct = fail.count() == 0 && res.Failed == 0
	return res, nil
}
