package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"github.com/auditgames/sag/internal/obs"
	"github.com/auditgames/sag/internal/server"
)

// checkOpenCycles compares the client's counts for every tenant whose
// cycle is still open with the tenant's /v1/status, after the load drained.
func (r *runner) checkOpenCycles() {
	for _, tr := range r.tracks {
		tr.mu.Lock()
		c := tr.c
		tr.mu.Unlock()
		if c == (cycleCounts{}) {
			continue
		}
		b, err := r.do(http.MethodGet, "/v1/status"+tenantQuery(tr.name), "", nil)
		if err != nil {
			r.fail.add(fmt.Errorf("final status of %q: %w", tr.name, err))
			continue
		}
		var st server.Status
		if err := json.Unmarshal(b, &st); err != nil {
			r.fail.add(err)
			continue
		}
		r.fail.add(checkStatus(tr.name, c, &st))
	}
}

// recovery is what the durable workload's restart measured.
type recovery struct {
	reopen   float64 // seconds from reopening the primary's directory until every tenant's state matched
	mirror   float64 // seconds to recover the promoted standby's journals
	replayed int     // journal records that recovery replayed on top of snapshots
}

// tenantState is one tenant's /v1/status and /v1/cycle/summary bodies.
type tenantState struct{ status, summary []byte }

// statesVia reads every tenant's state through h.
func statesVia(h http.Handler, names []string) map[string]tenantState {
	get := func(path string) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			return []byte(fmt.Sprintf("HTTP %d: %s", rec.Code, rec.Body.String()))
		}
		return rec.Body.Bytes()
	}
	out := make(map[string]tenantState, len(names))
	for _, n := range names {
		out[n] = tenantState{status: get("/v1/status" + tenantQuery(n)), summary: get("/v1/cycle/summary" + tenantQuery(n))}
	}
	return out
}

// finishDurable runs the durable workload's end-of-run checks and its
// restart: the follower must have caught up to the primary's summaries; the
// primary is closed and reopened on its directory, and every tenant's
// status and summary must come back byte-identical; finally the standby is
// promoted and its mirrored journals recovered from disk as after a crash,
// which must reproduce the same bytes again.
func (r *runner) finishDurable(st *stack) (*recovery, error) {
	names := append([]string{""}, st.w.tenantIDs()...)
	primary := statesVia(st.primary.srv.Handler(), names)

	deadline := time.Now().Add(20 * time.Second)
	for {
		follower := statesVia(st.follower.Handler(), names)
		var err error
		for _, n := range names {
			if err = checkSame(fmt.Sprintf("standby summary of %q", n), primary[n].summary, follower[n].summary); err != nil {
				break
			}
		}
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			r.fail.add(err)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := st.follower.Promote(); err != nil {
		return nil, fmt.Errorf("promoting the standby: %w", err)
	}

	if err := st.primary.shutdown(); err != nil {
		return nil, fmt.Errorf("stopping the primary listener: %w", err)
	}
	if err := st.primary.srv.Close(); err != nil {
		return nil, fmt.Errorf("closing the primary: %w", err)
	}
	st.primary = nil
	clock := func() time.Duration { return time.Duration(st.clock.Load()) }

	rec := &recovery{}
	t0 := time.Now()
	reopened, err := r.reopen(st.env.serverConfig(st.w, obs.NewRegistry(), clock, filepath.Join(st.dir, "primary"), nil, nil), names, primary, "reopened primary")
	rec.reopen = time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	_ = reopened.Close()

	mcfg := st.env.serverConfig(st.w, obs.NewRegistry(), clock, filepath.Join(st.dir, "follower"), nil, nil)
	mcfg.DiskBudgetBytes, mcfg.CompactInterval = 0, 0
	t0 = time.Now()
	mirror, err := r.reopen(mcfg, names, primary, "recovered standby")
	rec.mirror = time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	replayed, _ := gauges(mcfg.Metrics.Snapshot(), server.MetricRecoveryReplayed)
	rec.replayed = int(replayed)
	_ = mirror.Close()
	return rec, nil
}

// reopen builds a server over an existing data directory, restores every
// tenant and requires each one's state to equal want byte for byte.
func (r *runner) reopen(cfg server.Config, names []string, want map[string]tenantState, what string) (*server.Server, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	for _, n := range names[1:] {
		if err := srv.EnsureTenant(n); err != nil {
			return nil, fmt.Errorf("%s: restoring %q: %w", what, n, err)
		}
	}
	got := statesVia(srv.Handler(), names)
	for _, n := range names {
		r.fail.add(checkSame(fmt.Sprintf("%s status of %q", what, n), want[n].status, got[n].status))
		r.fail.add(checkSame(fmt.Sprintf("%s summary of %q", what, n), want[n].summary, got[n].summary))
	}
	return srv, nil
}

// diskSampler follows the primary's journal directory and the retention
// and replication gauges while the load runs.
type diskSampler struct {
	st   *stack
	stop chan struct{}
	done chan struct{}
	res  diskResult
}

type diskResult struct {
	written   float64   // journal bytes written (growth of every file seen)
	peakBytes float64   // peak of Σ sag_retain_bytes
	lag       []float64 // samples of the follower's worst per-tenant lag
}

func startDiskSampler(st *stack) *diskSampler {
	d := &diskSampler{st: st, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		sizes := map[string]int64{}
		root := filepath.Join(st.dir, "primary")
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			_ = filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
				if err != nil || e.IsDir() {
					return nil
				}
				info, err := e.Info()
				if err != nil {
					return nil
				}
				if grow := info.Size() - sizes[p]; grow > 0 {
					d.res.written += float64(grow)
				}
				sizes[p] = info.Size()
				return nil
			})
			sum, _ := gauges(st.reg.Snapshot(), "sag_retain_bytes")
			if sum > d.res.peakBytes {
				d.res.peakBytes = sum
			}
			_, lag := gauges(st.freg.Snapshot(), "sag_replica_lag_records")
			d.res.lag = append(d.res.lag, lag)
			select {
			case <-d.stop:
				return
			case <-t.C:
			}
		}
	}()
	return d
}

func (d *diskSampler) finish() diskResult {
	close(d.stop)
	<-d.done
	return d.res
}
