package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/emr"
	"github.com/auditgames/sag/internal/obs"
	"github.com/auditgames/sag/internal/signaling"
)

// layerInput is what a traced run hands to the per-layer analysis.
type layerInput struct {
	before, after   obs.Snapshot // primary registry around the load
	fbefore, fafter obs.Snapshot // follower registry around the load
	open            *recorder    // open loop, untraced
	plain           *recorder    // one connection, closed loop, untraced
	traced          *recorder    // the same, traced
	scrape          *scraper
	disk            diskResult
	rec             *recovery
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// layerMetrics fills rep with every per-layer metric. Layers a workload does
// not exercise report 0.
func layerMetrics(rep *report, w *workload, st *stack, tr *tracer, r *runner, in layerInput) {
	// Tracing overhead: the same closed loop over one connection, with and
	// without spans.
	plainRPS := float64(in.plain.accesses) / in.plain.busy().Seconds()
	tracedRPS := float64(in.traced.accesses) / in.traced.busy().Seconds()
	pp, tp := in.plain.access.pct(0.5), in.traced.access.pct(0.5)
	pa, ta := in.plain.alert.pct(0.5), in.traced.alert.pct(0.5)
	fmt.Printf("  one connection, closed loop   untraced | traced\n")
	fmt.Printf("    access_p50_ms               %8.4f | %8.4f\n", pp.Value, tp.Value)
	fmt.Printf("    alert_p50_ms                %8.4f | %8.4f\n", pa.Value, ta.Value)
	fmt.Printf("    accesses/s                  %8.1f | %8.1f\n", plainRPS, tracedRPS)
	rep.set("trace.overhead_pct", 100*(ratio(tp.Value, pp.Value)-1), "%")
	rep.set("trace.access_p50_ms_untraced", pp.Value, "ms")
	rep.set("trace.access_p50_ms_traced", tp.Value, "ms")

	// Spans: server, history, game.
	spans := tr.taken()
	var reqUS, selfUS, estUS, sseUS, lps, iters []float64
	var respBytes, accessSpans float64
	var decided []typedTheta
	for _, n := range nest(spans) {
		d, ok := accessDecision(n.parent)
		if !ok {
			continue
		}
		accessSpans++
		respBytes += float64(n.parent.bytes)
		reqUS = append(reqUS, us(n.parent.dur()))
		selfUS = append(selfUS, us(n.self))
		for _, c := range n.children {
			switch c.layer {
			case layerHistory:
				estUS = append(estUS, us(c.dur()))
			case layerGame:
				sseUS = append(sseUS, us(c.dur()))
				lps = append(lps, float64(c.lps))
				iters = append(iters, float64(c.iters))
				if idx, ok := typeIndex(st.env.typeIDs, d.TypeID); ok && d.Alert && idx < len(c.coverage) {
					decided = append(decided, typedTheta{typ: idx, theta: c.coverage[idx]})
				}
			}
		}
	}
	fmt.Printf("  traced spans: %d access requests, %d estimates, %d SSE solves\n", int(accessSpans), len(estUS), len(sseUS))
	rep.setPct("server.request_us_p50", median(reqUS), "us")
	rep.setPct("server.self_us_p50", median(selfUS), "us")
	rep.set("server.resp_bytes_per_access", ratio(respBytes, accessSpans), "bytes")
	rep.setPct("history.estimate_us_p50", median(estUS), "us")
	rep.setPct("game.sse_us_p50", median(sseUS), "us")
	rep.setPct("game.sse_us_p99", tail(sseUS, 0.99), "us")
	rep.set("lp.candidate_lps_per_sse", mean(lps), "count")
	rep.set("lp.iterations_per_sse", mean(iters), "count")

	// Public functions replayed on the traced phase's inputs.
	ops := r.sentOps
	evalUS, fired := replayAlerts(st, ops)
	rep.setPct("alerts.evaluate_us_p50", median(evalUS), "us")
	rep.set("alerts.alert_ratio", ratio(fired, float64(len(ops))), "ratio")
	rep.setPct("signaling.ossp_us_p50", median(replaySignaling(st, decided)), "us")
	decUS, allocs := replayDecisions(st, r, ops)
	rep.setPct("core.decide_us_p50", median(decUS), "us")
	rep.setPct("core.decide_us_p99", tail(decUS, 0.99), "us")
	rep.set("core.allocs_per_decision", allocs, "count")

	// Registry counts over the load.
	b, a := in.before, in.after
	diff := func(name string) float64 { return counter(a, name) - counter(b, name) }
	decisions := diff("sag_engine_decisions_total")
	hits, misses := diff("sag_engine_cache_hits_total"), diff("sag_engine_cache_misses_total")
	rep.set("core.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	rep.set("core.commit_retries_per_decision", ratio(diff("sag_engine_commit_retries_total"), decisions), "ratio")
	rep.set("core.coalesced_ratio", ratio(diff("sag_engine_coalesced_solves_total"), decisions), "ratio")
	rep.set("core.fallback_ratio", ratio(diff("sag_engine_fallback_total"), decisions), "ratio")

	wait := histDiff(hist(b, "sag_admit_queue_wait_seconds"), hist(a, "sag_admit_queue_wait_seconds"))
	rep.set("admit.queue_wait_ms_p99", 1e3*histQuantile(wait, 0.99), "ms")
	rep.set("admit.shed", diff("sag_admit_shed_total"), "count")
	rep.set("shard.tenants_created", counter(a, "sag_shard_tenants_created_total"), "count")
	rep.set("shard.evictions", counter(a, "sag_shard_evictions_total"), "count")

	fsync := histDiff(hist(b, "sag_wal_fsync_seconds"), hist(a, "sag_wal_fsync_seconds"))
	appends := diff("sag_wal_appends_total")
	accesses := 0
	for _, p := range []*recorder{in.open, in.plain, in.traced} {
		accesses += p.accesses
	}
	rep.set("wal.fsync_ms_p50", 1e3*histQuantile(fsync, 0.5), "ms")
	rep.set("wal.fsync_ms_p99", 1e3*histQuantile(fsync, 0.99), "ms")
	rep.set("wal.records_per_fsync", ratio(appends, float64(fsync.Count)), "count")
	rep.set("wal.bytes_per_access", ratio(in.disk.written, float64(accesses)), "bytes")
	snapshots := 0.0
	if appends > 0 {
		// Every access and every cycle close and open is one record; the
		// rest are snapshots.
		snapshots = appends - float64(accesses) - 2*float64(r.cycles)
	}
	rep.set("wal.snapshots", snapshots, "count")
	var recoveryS, replayRate float64
	if in.rec != nil {
		recoveryS = in.rec.reopen
		replayRate = ratio(float64(in.rec.replayed), in.rec.mirror)
	}
	rep.set("wal.recovery_s", recoveryS, "s")
	rep.set("wal.replay_records_per_s", replayRate, "1/s")
	rep.set("retain.pruned_segments", diff("sag_retain_pruned_segments_total"), "count")
	rep.set("retain.peak_bytes", in.disk.peakBytes, "bytes")
	rep.setPct("replica.lag_records_p99", tail(in.disk.lag, 0.99), "records")
	fdiff := func(name string) float64 { return counter(in.fafter, name) - counter(in.fbefore, name) }
	rep.set("replica.reconnects", fdiff("sag_replica_reconnects_total"), "count")
	rep.set("replica.reseeds", fdiff("sag_replica_reseeds_total"), "count")

	tenants := float64(w.tenants + 1)
	samples := exposedSamples(st.reg)
	fmt.Printf("  obs: %d registry series, %d exposed samples (%.1f per tenant)\n", seriesCount(a), samples, float64(samples)/tenants)
	rep.set("obs.series", float64(samples), "count")
	rep.set("obs.bytes_per_tenant", median(in.scrape.bytes).Value/tenants, "bytes")
	rep.setPct("obs.scrape_ms_p50", median(timeScrapes(st.reg, 11)), "ms")

	rep.setPct("load.access_p99_ms", in.open.access.pct(0.99), "ms")
	rep.setPct("load.alert_p99_ms", in.open.alert.pct(0.99), "ms")
	rep.setPct("load.status_p50_ms", in.open.statuses().pct(0.5), "ms")
	rep.setPct("load.status_p99_ms", in.open.statuses().pct(0.99), "ms")
	rep.set("load.sent", float64(in.open.sent), "count")
	rep.set("load.ok", float64(in.open.ok), "count")
	rep.set("load.failed", float64(in.open.sent-in.open.ok), "count")
	rep.setPct("load.late_ms_p99", in.open.late.pct(0.99), "ms")
}

// typedTheta is one traced decision's alert type and served coverage.
type typedTheta struct {
	typ   int
	theta float64
}

// typeIndex maps a taxonomy type ID to the engine's type index.
func typeIndex(ids []int, id int) (int, bool) {
	for i, t := range ids {
		if t == id {
			return i, true
		}
	}
	return 0, false
}

// replayAlerts times alerts.Engine.Evaluate on every traced access.
func replayAlerts(st *stack, ops []*op) (evalUS []float64, fired float64) {
	for _, o := range ops {
		ev := emr.AccessEvent{Time: o.at, EmployeeID: int(o.emp), PatientID: int(o.pat)}
		t0 := time.Now()
		_, ok, _ := st.env.det.Evaluate(ev)
		evalUS = append(evalUS, us(int64(time.Since(t0))))
		if ok {
			fired++
		}
	}
	return evalUS, fired
}

// replaySignaling times the OSSP stage on every traced decision's type and
// coverage, choosing the solver the engine chooses.
func replaySignaling(st *stack, decided []typedTheta) []float64 {
	out := make([]float64, 0, len(decided))
	for _, d := range decided {
		pf := st.env.inst.Payoffs[d.typ]
		t0 := time.Now()
		if pf.SatisfiesTheorem3() {
			_, _ = signaling.Solve(pf, d.theta)
		} else {
			_, _ = signaling.SolveLPCtx(context.Background(), pf, d.theta)
		}
		out = append(out, us(int64(time.Since(t0))))
	}
	return out
}

// replayDecisions times core.Engine.ProcessContext on the traced alerts
// with a stand-alone engine configured like a server tenant's (uncached),
// one cycle per replayed day, and counts heap allocations per decision
// across the whole replay (the load has stopped by then).
func replayDecisions(st *stack, r *runner, ops []*op) (decUS []float64, allocsPer float64) {
	est, err := st.env.newEstimator()
	if err != nil {
		return nil, 0
	}
	eng, err := core.NewEngine(core.Config{
		Instance:  st.env.inst,
		Budget:    budget,
		Estimator: est,
		Policy:    core.PolicyOSSP,
		Rand:      rand.New(rand.NewSource(serverSeed)),
		Fallback:  true,
	})
	if err != nil {
		return nil, 0
	}
	decUS = make([]float64, 0, len(ops))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var last time.Duration
	for _, o := range ops {
		if o.at < last {
			_ = eng.NewCycle(budget)
		}
		last = o.at
		idx, ok := typeIndex(st.env.typeIDs, int(o.typ))
		if !o.alert || !ok {
			continue
		}
		a := core.Alert{Type: idx, Time: o.at}
		t0 := time.Now()
		_, err := eng.ProcessContext(context.Background(), a)
		el := time.Since(t0)
		if err == nil {
			decUS = append(decUS, us(int64(el)))
		}
	}
	runtime.ReadMemStats(&ms1)
	return decUS, ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(len(decUS)))
}

// exposedSamples counts the sample lines of one Prometheus rendering: the
// series a scraper ingests, each histogram bucket, sum and count included.
func exposedSamples(reg *obs.Registry) int {
	var b bytes.Buffer
	_ = reg.WritePrometheus(&b)
	n := 0
	for _, line := range bytes.Split(b.Bytes(), []byte("\n")) {
		if len(line) > 0 && line[0] != '#' {
			n++
		}
	}
	return n
}

// timeScrapes times n Prometheus renderings of the registry, without HTTP.
func timeScrapes(reg *obs.Registry, n int) []float64 {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		_ = reg.WritePrometheus(io.Discard)
		out = append(out, ms(time.Since(t0)))
	}
	return out
}
