package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/obs"
	"github.com/auditgames/sag/internal/retain"
	"github.com/auditgames/sag/internal/shard"
	"github.com/auditgames/sag/internal/wal"
)

// MetricRecoveryReplayed gauges, per tenant, how many journal records boot
// recovery replayed on top of the restored snapshot.
const MetricRecoveryReplayed = "sag_recovery_replayed_records"

// DefaultSnapshotEvery is the automatic snapshot cadence (journal records
// between snapshots) when Config.SnapshotEvery is zero.
const DefaultSnapshotEvery = 4096

// estimator state snapshot seams: stateful estimators (the knowledge-
// rollback history estimator) opt in by implementing both; stateless ones
// need neither.
type stateMarshaler interface{ MarshalState() ([]byte, error) }
type stateUnmarshaler interface{ UnmarshalState([]byte) error }

// tenantSnapshot is the owner-encoded payload of a WAL snapshot record: the
// engine's full cycle state plus the HTTP layer's per-tenant state. JSON is
// used deliberately — Go's encoder round-trips float64 exactly — and the
// blob never crosses a version boundary unvalidated (decode errors fail
// recovery loudly rather than restoring a half-right tenant).
type tenantSnapshot struct {
	Engine    core.EngineState `json:"engine"`
	Estimator []byte           `json:"estimator,omitempty"`
	Accesses  int64            `json:"accesses"`
	Alerts    int64            `json:"alerts"`
	Warned    int64            `json:"warned"`
	Quits     int64            `json:"quits"`
	Flagged   []int            `json:"flagged,omitempty"`
	Closed    bool             `json:"closed"`
}

// durable reports whether the server was configured with a data directory.
func (s *Server) durable() bool { return s.cfg.DataDir != "" }

// tenantWALDir maps a tenant ID to its journal directory. The "t-" prefix
// is load-bearing: shard.ValidID admits IDs like ".." and "." (dots are
// legal ID characters), so raw IDs must never become path components.
func (s *Server) tenantWALDir(id string) string {
	return filepath.Join(s.cfg.DataDir, "tenants", "t-"+id)
}

// tenantOnDisk reports whether id has journal state under the data dir, so
// tenant resolution can distinguish "unloaded" from "unknown".
func (s *Server) tenantOnDisk(id string) bool {
	info, err := os.Stat(s.tenantWALDir(id))
	return err == nil && info.IsDir()
}

// openTenantJournal opens (and recovers) one tenant's journal and replays
// the recovered state onto t. Called from buildTenant after the engine is
// constructed but before the tenant serves its first request.
func (s *Server) openTenantJournal(t *tenantState) error {
	j, rec, err := s.openJournal(t.id)
	if err != nil {
		return fmt.Errorf("server: opening journal for tenant %q: %w", t.id, err)
	}
	if rec.Truncated {
		s.logf("server: tenant %s: truncated corrupt journal tail of %s at offset %d",
			t.id, rec.TruncatedSegment, rec.TruncatedOffset)
	}
	if err := s.replayTenant(t, rec); err != nil {
		_ = j.Close()
		return fmt.Errorf("server: recovering tenant %q: %w", t.id, err)
	}
	t.journal = j
	replayed := len(rec.Tail)
	s.met.reg.Gauge(MetricRecoveryReplayed,
		"Journal records replayed on top of the restored snapshot at boot.",
		obs.L("tenant", t.id)).Set(float64(replayed))
	if rec.Snapshot != nil || replayed > 0 {
		s.logf("server: tenant %s: recovered snapshot=%dB + %d replayed records (%d segments scanned)",
			t.id, len(rec.Snapshot), replayed, rec.Segments)
	}
	return nil
}

// openJournal opens (and recovers) tenant id's journal for appending, with
// the server's journal fault hook installed.
func (s *Server) openJournal(id string) (*wal.Journal, *wal.Recovery, error) {
	j, rec, err := wal.Open(s.tenantWALDir(id), wal.Options{
		Fsync:        s.cfg.Fsync,
		SegmentBytes: s.cfg.SegmentBytes,
		Metrics:      s.met.reg,
		Labels:       []obs.Label{obs.L("tenant", id)},
	})
	if err == nil {
		j.SetFault(s.fireJournalFault)
	}
	return j, rec, err
}

// replayTenant restores t from a journal recovery: first the snapshot (if
// any), then the tail records in journal order. Exactly one record was
// written per acknowledged request, so replay applies each record's full
// counter delta and never double-applies a half-recorded request.
func (s *Server) replayTenant(t *tenantState, rec *wal.Recovery) error {
	if rec.Snapshot != nil {
		if err := s.restoreSnapshot(t, rec.Snapshot); err != nil {
			return err
		}
	}
	for _, r := range rec.Tail {
		if err := s.applyRecord(t, r); err != nil {
			return err
		}
	}
	t.flaggedMu.RLock()
	flagged := len(t.flagged)
	t.flaggedMu.RUnlock()
	t.met.flagged.Set(float64(flagged))
	return nil
}

// restoreSnapshot decodes one snapshot blob onto t. The engine must be
// pristine (core.RestoreState enforces it): boot replay calls this before
// the tenant serves, and a follower only applies a snapshot as the very
// first record of a seed.
func (s *Server) restoreSnapshot(t *tenantState, blob []byte) error {
	var snap tenantSnapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		return fmt.Errorf("decoding snapshot: %w", err)
	}
	if snap.Estimator != nil {
		u, ok := t.est.(stateUnmarshaler)
		if !ok {
			return errors.New("snapshot carries estimator state but the estimator cannot restore it")
		}
		if err := u.UnmarshalState(snap.Estimator); err != nil {
			return err
		}
	}
	if err := t.engine.RestoreState(snap.Engine); err != nil {
		return err
	}
	t.accesses.Store(snap.Accesses)
	t.alerts.Store(snap.Alerts)
	t.warned.Store(snap.Warned)
	t.quits.Store(snap.Quits)
	t.flaggedMu.Lock()
	for _, emp := range snap.Flagged {
		t.flagged[emp] = true
	}
	t.met.flagged.Set(float64(len(t.flagged)))
	t.flaggedMu.Unlock()
	t.closed = snap.Closed
	return nil
}

// applyRecord replays one non-snapshot journal record onto t — shared by
// boot recovery and live follower apply, so both walk the identical state
// machine. Counter semantics mirror the handlers that wrote each record.
func (s *Server) applyRecord(t *tenantState, r wal.Record) error {
	switch r.Kind {
	case wal.KindDecision:
		// A decision record is one full acknowledged /v1/access request
		// of a gamed alert: one access, one alert, and the engine's
		// committed decision (recorded signal, recorded budget chain).
		if err := t.engine.ApplyDecision(r.Decision); err != nil {
			return err
		}
		t.count(wal.Meta{Alerted: true, Warned: r.Decision.Warned})
	case wal.KindMeta:
		// One acknowledged request that bypassed the engine.
		t.count(r.Meta)
	case wal.KindQuit:
		t.flaggedMu.Lock()
		first := !t.flagged[r.Employee]
		if first {
			t.flagged[r.Employee] = true
			t.met.flagged.Set(float64(len(t.flagged)))
		}
		t.flaggedMu.Unlock()
		if first {
			t.quits.Add(1)
		}
	case wal.KindCycleOpen:
		if err := t.engine.NewCycle(r.Budget); err != nil {
			return err
		}
		t.closed = false
		t.accesses.Store(0)
		t.alerts.Store(0)
		t.warned.Store(0)
		t.quits.Store(0)
	case wal.KindCycleClose:
		t.closed = true
	default:
		return fmt.Errorf("unknown journal record kind %v", r.Kind)
	}
	return nil
}

// count adds one access to t's per-cycle counters.
func (t *tenantState) count(m wal.Meta) {
	t.accesses.Add(1)
	if m.Alerted {
		t.alerts.Add(1)
	}
	if m.Warned {
		t.warned.Add(1)
	}
}

// noteAppend accounts one journaled record toward the automatic snapshot
// cadence, kicking a background snapshot when the cadence is reached. Safe
// to call from the engine's journal hook (it only touches atomics and at
// most spawns one goroutine).
func (s *Server) noteAppend(t *tenantState) {
	t.lastAppend.Store(time.Now().UnixNano())
	if s.retain != nil {
		// Snapshot-now under pressure: a write burst meets compaction at the
		// kick (coalesced, debounced in the compactor), not at the next tick.
		s.retain.Kick()
	}
	every := s.cfg.SnapshotEvery
	if every <= 0 {
		every = DefaultSnapshotEvery
	}
	if t.walRecords.Add(1) < int64(every) {
		return
	}
	if !t.snapshotting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer t.snapshotting.Store(false)
		if err := s.snapshotTenant(t); err != nil {
			s.logf("server: tenant %s: background snapshot: %v", t.id, err)
		}
	}()
}

// commit journals one record for a request that bypasses the engine, waits
// for its durability, and applies it with applyRecord — the state machine
// recovery and followers run. An error leaves t to be unloaded.
func (s *Server) commit(t *tenantState, r wal.Record) error {
	if t.journal != nil {
		wait, err := t.journal.Append(r)
		if err == nil && wait != nil {
			err = wait()
		}
		if err != nil {
			return err
		}
		s.noteAppend(t)
	}
	return s.applyRecord(t, r)
}

// retainTarget adapts one tenant to the retention compactor's Tenant view.
// Every method tolerates the tenant's journal being nil (a follower before
// promotion) or sealed (eviction raced the scan) by reporting nothing to do.
type retainTarget struct {
	s *Server
	t *tenantState
}

func (rt retainTarget) RetainID() string { return rt.t.id }

func (rt retainTarget) RetainStats() (wal.RetainStats, bool) {
	j := rt.t.journal
	if j == nil {
		return wal.RetainStats{}, false
	}
	return j.RetainStats(), true
}

func (rt retainTarget) Prune() (int, int64, error) {
	j := rt.t.journal
	if j == nil {
		return 0, 0, nil
	}
	return j.Prune()
}

// Compact snapshots-then-prunes the tenant. TryLock is the "never while a
// cycle rollover holds the lifecycle write lock" rule: a rollover (or an
// in-flight snapshot, or eviction) owns the write side, and queueing behind
// it would stall the whole compaction round on one busy tenant — the
// compactor skips it and returns next round.
func (rt retainTarget) Compact() error {
	t := rt.t
	if !t.lifecycle.TryLock() {
		return retain.ErrBusy
	}
	defer t.lifecycle.Unlock()
	if t.sealed || t.journal == nil {
		return nil
	}
	return rt.s.snapshotTenantLocked(t)
}

func (rt retainTarget) LastAppend() time.Time {
	return time.Unix(0, rt.t.lastAppend.Load())
}

// listRetainTenants is the compactor's Config.List: the resident tenants as
// retention targets.
func (s *Server) listRetainTenants() []retain.Tenant {
	out := make([]retain.Tenant, 0, s.router.Len())
	s.router.Range(func(tn *shard.Tenant) bool {
		out = append(out, retainTarget{s: s, t: tn.Data.(*tenantState)})
		return true
	})
	return out
}

// exportTenant encodes t's full state. The caller holds t.lifecycle
// exclusively, so no decision is mid-commit and the engine export, the
// counters, and the journal position are mutually consistent.
func (s *Server) exportTenant(t *tenantState) ([]byte, error) {
	snap := tenantSnapshot{
		Engine:   t.engine.ExportState(),
		Accesses: t.accesses.Load(),
		Alerts:   t.alerts.Load(),
		Warned:   t.warned.Load(),
		Quits:    t.quits.Load(),
		Closed:   t.closed,
	}
	if m, ok := t.est.(stateMarshaler); ok {
		blob, err := m.MarshalState()
		if err != nil {
			return nil, fmt.Errorf("estimator state: %w", err)
		}
		snap.Estimator = blob
	}
	t.flaggedMu.RLock()
	for emp := range t.flagged {
		snap.Flagged = append(snap.Flagged, emp)
	}
	t.flaggedMu.RUnlock()
	sort.Ints(snap.Flagged)
	return json.Marshal(snap)
}

// snapshotTenant writes one tenant's full state as a journal snapshot
// record, fsyncs it, and prunes superseded segments. It takes the tenant's
// lifecycle write lock, so it drains in-flight decisions first — the
// snapshot can never miss a decision that was journaled before it.
func (s *Server) snapshotTenant(t *tenantState) error {
	if t.journal == nil {
		return errors.New("server: tenant has no journal")
	}
	s.lockLifecycleW(t)
	defer t.lifecycle.Unlock()
	if t.sealed {
		// Eviction won the race: the tenant's final state is already
		// snapshotted into the sealed journal, which is everything this
		// call exists to guarantee.
		return nil
	}
	return s.snapshotTenantLocked(t)
}

// snapshotTenantLocked is snapshotTenant for callers already holding the
// tenant's lifecycle write lock.
func (s *Server) snapshotTenantLocked(t *tenantState) error {
	blob, err := s.exportTenant(t)
	if err != nil {
		return err
	}
	if err := t.journal.Snapshot(blob); err != nil {
		return err
	}
	t.walRecords.Store(0)
	return nil
}

// SnapshotAll snapshots every resident tenant's state to its journal. The
// graceful-shutdown drain and the /v1/admin/snapshot endpoint call it; a
// no-op (nil) when durability is disabled. The first error is returned but
// every tenant is attempted.
func (s *Server) SnapshotAll() error {
	if !s.durable() {
		return nil
	}
	var first error
	s.router.Range(func(tn *shard.Tenant) bool {
		t := tn.Data.(*tenantState)
		if t.journal == nil {
			return true
		}
		if err := s.snapshotTenant(t); err != nil {
			s.logf("server: tenant %s: snapshot: %v", t.id, err)
			if first == nil {
				first = err
			}
		}
		return true
	})
	return first
}

// Close seals every tenant journal (snapshotting each first). Call it after
// the HTTP listener has stopped; it is what makes SIGTERM indistinguishable
// from a clean restart.
func (s *Server) Close() error {
	if s.retain != nil {
		// Stop the compactor before sealing journals so no compaction round
		// races the close-time snapshots.
		s.retain.Stop()
	}
	if !s.durable() {
		return nil
	}
	err := s.SnapshotAll()
	s.router.Range(func(tn *shard.Tenant) bool {
		t := tn.Data.(*tenantState)
		if t.journal != nil {
			if cerr := t.journal.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		return true
	})
	return err
}

// RemoveTenant evicts a resident tenant. With durability on, the shard
// router's OnEvict hook snapshots the tenant and seals its journal first,
// so the eviction is an unload — a later request for the ID rebuilds the
// tenant from its journal. Reports whether the tenant was resident.
func (s *Server) RemoveTenant(id string) bool {
	return s.router.Remove(id)
}

// evictTenant is the shard.Config.OnEvict hook: drain, snapshot, seal. It
// runs under the router's creation lock with the tenant already unlinked,
// so no new request can resolve it; the lifecycle write lock drains the
// ones already holding it, and the sealed flag (set under the same lock)
// diverts requests that resolved the holder before the unlink but have not
// locked it yet — they re-resolve and rebuild from the sealed journal
// instead of writing into it.
func (s *Server) evictTenant(tn *shard.Tenant) {
	t := tn.Data.(*tenantState)
	// Drop the tenant's admission gate (if idle) so the gate table tracks
	// the resident set; this must run even for non-durable tenants, which
	// return before the journal work below.
	if s.admit != nil {
		s.admit.Forget(t.id)
	}
	if s.retain != nil {
		// The evicted tenant no longer counts against the resident budget
		// (its journal directory persists, but restore-on-first-use re-adds
		// it); zero its gauges and lift any disk-pressure block.
		s.retain.Forget(t.id)
	}
	if t.journal == nil {
		return
	}
	s.lockLifecycleW(t)
	defer t.lifecycle.Unlock()
	if err := s.snapshotTenantLocked(t); err != nil {
		s.logf("server: tenant %s: eviction snapshot: %v", t.id, err)
	}
	if err := t.journal.Close(); err != nil {
		s.logf("server: tenant %s: sealing journal: %v", t.id, err)
	}
	t.sealed = true
}

// SnapshotRequest is the body of POST /v1/admin/snapshot. An empty tenant
// snapshots every resident tenant.
type SnapshotRequest struct {
	Tenant string `json:"tenant,omitempty"`
}

// SnapshotResponse reports what /v1/admin/snapshot persisted.
type SnapshotResponse struct {
	Tenants int `json:"tenants"`
}

// handleSnapshot is POST /v1/admin/snapshot: force a snapshot of one tenant
// (or all, when none is named) so an operator can bound replay length
// before a planned restart. 400 when the server runs without a data dir.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.rejectIfFollowing(w) {
		return
	}
	if !s.durable() {
		writeJSON(w, http.StatusBadRequest,
			apiError{Error: "durability is disabled (server started without a data dir)"})
		return
	}
	// The body is optional (operators curl this with none); malformed JSON
	// is tolerated but an oversized body is a hard 413.
	var req SnapshotRequest
	if !s.decodeJSONLenient(w, r, &req) {
		return
	}
	id := req.Tenant
	if h := r.Header.Get(TenantHeader); h != "" {
		id = h
	}
	if id == "" {
		n := 0
		var first error
		s.router.Range(func(tn *shard.Tenant) bool {
			t := tn.Data.(*tenantState)
			if t.journal == nil {
				return true
			}
			if err := s.snapshotTenant(t); err != nil {
				if first == nil {
					first = err
				}
				return true
			}
			n++
			return true
		})
		if first != nil {
			writeJSON(w, http.StatusInternalServerError, apiError{Error: first.Error()})
			return
		}
		writeJSON(w, http.StatusOK, SnapshotResponse{Tenants: n})
		return
	}
	t := s.resolveTenant(w, id, false)
	if t == nil {
		return
	}
	if err := s.snapshotTenant(t); err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, SnapshotResponse{Tenants: 1})
}

// handleCycleSummary is GET /v1/cycle/summary: the tenant's aggregate view
// of the current cycle — the same summary the drain path logs — so restart
// drills can compare recovered state against a golden run byte for byte.
func (s *Server) handleCycleSummary(w http.ResponseWriter, r *http.Request) {
	t := s.resolveTenantLocked(w, s.tenantID(r, r.URL.Query().Get("tenant")), false, false)
	if t == nil {
		return
	}
	defer t.lifecycle.RUnlock()
	writeJSON(w, http.StatusOK, t.engine.Summary())
}

// logf writes a server log line via Config.Logf; silent when unset.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}
