package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/auditgames/sag/internal/replica"
	"github.com/auditgames/sag/internal/shard"
	"github.com/auditgames/sag/internal/wal"
)

// discoverInterval is how often a follower polls the primary's tenant
// listing for tenants it is not replicating yet.
const discoverInterval = 2 * time.Second

// followController owns a follower's replication clients: one goroutine per
// tenant plus a discovery loop, all stopped together by Promote (or by the
// context StartFollowing was given).
type followController struct {
	s      *Server
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	clients map[string]*replica.Client // nil while the tenant is starting
}

// StartFollowing launches replication against Config.FollowPrimary:
// locally-present tenants resume from their mirrored journals immediately
// (even while the primary is unreachable), and a discovery loop picks up new
// tenants from the primary's listing. It returns an error when the server
// was not configured as a follower. Cancel ctx to stop replicating without
// promoting (shutdown).
func (s *Server) StartFollowing(ctx context.Context) error {
	if s.cfg.FollowPrimary == "" {
		return errors.New("server: not configured with a primary to follow")
	}
	if !s.following.Load() {
		return errors.New("server: already promoted")
	}
	fctx, cancel := context.WithCancel(ctx)
	fc := &followController{
		s:       s,
		ctx:     fctx,
		cancel:  cancel,
		clients: make(map[string]*replica.Client),
	}
	if !s.follow.CompareAndSwap(nil, fc) {
		cancel()
		return errors.New("server: already following")
	}
	for _, id := range s.onDiskTenantIDs() {
		fc.ensureTenant(id)
	}
	fc.wg.Add(1)
	go func() {
		defer fc.wg.Done()
		fc.discoverLoop()
	}()
	s.logf("server: following primary %s (%d local tenants resumed)",
		s.cfg.FollowPrimary, len(fc.snapshotClients()))
	return nil
}

// stop cancels every replication goroutine and waits for them to exit.
func (fc *followController) stop() {
	fc.cancel()
	fc.wg.Wait()
}

// discoverLoop polls the primary's tenant listing and starts replication for
// tenants this follower does not know yet.
func (fc *followController) discoverLoop() {
	fc.discoverOnce()
	t := time.NewTicker(discoverInterval)
	defer t.Stop()
	for {
		select {
		case <-fc.ctx.Done():
			return
		case <-t.C:
			fc.discoverOnce()
		}
	}
}

// tenantListing is the JSON body of GET /v1/replicate without a tenant.
type tenantListing struct {
	Tenants []string `json:"tenants"`
}

func (fc *followController) discoverOnce() {
	ctx, cancel := context.WithTimeout(fc.ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fc.s.cfg.FollowPrimary+"/v1/replicate", nil)
	if err != nil {
		return
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return // primary unreachable; per-tenant clients keep retrying too
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	var listing tenantListing
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		return
	}
	for _, id := range listing.Tenants {
		if shard.ValidID(id) {
			fc.ensureTenant(id)
		}
	}
}

// ensureTenant starts (at most once) the replication goroutine for id.
func (fc *followController) ensureTenant(id string) {
	fc.mu.Lock()
	if _, ok := fc.clients[id]; ok {
		fc.mu.Unlock()
		return
	}
	fc.clients[id] = nil // reserve before the goroutine builds the client
	fc.mu.Unlock()
	fc.wg.Add(1)
	go func() {
		defer fc.wg.Done()
		fc.runTenant(id)
	}()
}

// runTenant replicates one tenant until the controller stops. The local
// tenantState is swapped out on re-seed, so the apply callback always loads
// the current one through the holder.
func (fc *followController) runTenant(id string) {
	s := fc.s
	tn, _, err := s.router.GetOrCreate(id)
	if err != nil {
		s.logf("server: follower: tenant %s: %v", id, err)
		fc.mu.Lock()
		delete(fc.clients, id) // discovery retries later
		fc.mu.Unlock()
		return
	}
	var holder atomicTenant
	holder.store(tn.Data.(*tenantState))
	t := holder.load()
	cl := replica.NewClient(replica.ClientConfig{
		Primary: s.cfg.FollowPrimary,
		Tenant:  id,
		Dir:     s.tenantWALDir(id),
		Apply: func(rec wal.Record, _ wal.Cursor) error {
			return s.applyReplicated(holder.load(), rec)
		},
		Reset: func() error {
			fresh, err := s.reseedTenant(id)
			if err != nil {
				return err
			}
			holder.store(fresh)
			return nil
		},
		Cursor:  t.repl.cur,
		LastCRC: t.repl.crc,
		Records: t.repl.records,
		Seeded:  t.repl.seeded,
		Metrics: s.met.reg,
		Logf:    s.cfg.Logf,
	})
	fc.mu.Lock()
	fc.clients[id] = cl
	fc.mu.Unlock()
	_ = cl.Run(fc.ctx)
	// Write the final position back so Promote (which runs after wg.Wait,
	// so it observes this) can cross-check the reopened journal against
	// what was actually applied.
	st := cl.State()
	cur := holder.load()
	cur.repl = replState{cur: st.Cursor, crc: st.LastCRC, records: st.Records, seeded: st.Seeded}
}

// snapshotClients returns the current client set.
func (fc *followController) snapshotClients() map[string]*replica.Client {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	out := make(map[string]*replica.Client, len(fc.clients))
	for id, cl := range fc.clients {
		out[id] = cl
	}
	return out
}

// maxLag reports the worst per-tenant replication lag in records. known is
// false until every replicated tenant has heard at least one heartbeat (lag
// is then unknown, not zero) or when no tenant is replicating yet. Nil-safe:
// a follower that has not started replication reports unknown.
func (fc *followController) maxLag() (lag int64, known bool) {
	if fc == nil {
		return 0, false
	}
	clients := fc.snapshotClients()
	if len(clients) == 0 {
		return 0, false
	}
	for _, cl := range clients {
		if cl == nil {
			return 0, false // still starting
		}
		l, ok := cl.Lag()
		if !ok {
			return 0, false
		}
		if l > lag {
			lag = l
		}
	}
	return lag, true
}

// recoverTenantLocal replays a follower tenant's mirrored journal into its
// warm engine without opening the journal for writing — the replication
// client owns the directory until promotion. The recovered end position
// seeds the client's resume cursor.
func (s *Server) recoverTenantLocal(t *tenantState) error {
	rec, err := wal.Recover(s.tenantWALDir(t.id))
	if err != nil {
		return fmt.Errorf("server: recovering follower tenant %q: %w", t.id, err)
	}
	if rec.Truncated {
		s.logf("server: follower tenant %s: truncated mirrored tail of %s at offset %d",
			t.id, rec.TruncatedSegment, rec.TruncatedOffset)
	}
	if err := s.replayTenant(t, rec); err != nil {
		return fmt.Errorf("server: recovering follower tenant %q: %w", t.id, err)
	}
	t.repl = replState{
		cur:     rec.End,
		crc:     rec.LastCRC,
		records: int64(rec.Records),
		seeded:  rec.Records > 0,
	}
	if rec.Records > 0 {
		s.logf("server: follower tenant %s: resumed mirror at %v (%d records)",
			t.id, rec.End, rec.Records)
	}
	return nil
}

// applyReplicated replays one replicated record onto the live tenant under
// the same locking the HTTP handlers use: lifecycle transitions (snapshot
// seed, cycle open/close) take the write side, everything else the read side
// — so status reads on the follower never observe a half-applied rollover.
func (s *Server) applyReplicated(t *tenantState, rec wal.Record) error {
	switch rec.Kind {
	case wal.KindSnapshot:
		s.lockLifecycleW(t)
		defer t.lifecycle.Unlock()
		return s.restoreSnapshot(t, rec.Snapshot)
	case wal.KindCycleOpen, wal.KindCycleClose:
		s.lockLifecycleW(t)
		defer t.lifecycle.Unlock()
		return s.applyRecord(t, rec)
	default:
		s.lockLifecycleR(t)
		defer t.lifecycle.RUnlock()
		return s.applyRecord(t, rec)
	}
}

// reseedTenant discards a follower tenant's local state — engine and
// mirrored journal — ahead of a snapshot re-seed, and returns the fresh
// tenant. Called by the replication client when its history has diverged
// from the primary's retained journal.
func (s *Server) reseedTenant(id string) (*tenantState, error) {
	s.router.Remove(id) // evict hook is a no-op: follower tenants hold no journal
	if err := os.RemoveAll(s.tenantWALDir(id)); err != nil {
		return nil, fmt.Errorf("server: wiping tenant %q for re-seed: %w", id, err)
	}
	tn, _, err := s.router.GetOrCreate(id)
	if err != nil {
		return nil, err
	}
	s.logf("server: follower tenant %s: local state discarded for re-seed", id)
	return tn.Data.(*tenantState), nil
}

// Promote turns the standby into a primary: stop every replication client,
// reopen each tenant's mirrored journal for writing, and lift the mutation
// gate. A tenant whose journal cannot be reopened — or whose on-disk record
// count does not match what was applied — is unloaded instead of served
// with forked history; the first request after promotion rebuilds it from
// disk through the normal recovery path. Returns the number of tenants
// promoted with open journals.
func (s *Server) Promote() (int, error) {
	if !s.following.Load() {
		return 0, errors.New("server: not a standby")
	}
	if fc := s.follow.Load(); fc != nil {
		fc.stop()
	}
	var tenants []*tenantState
	s.router.Range(func(tn *shard.Tenant) bool {
		tenants = append(tenants, tn.Data.(*tenantState))
		return true
	})
	n := 0
	var firstErr error
	for _, t := range tenants {
		j, rec, err := s.openJournal(t.id)
		if err == nil && int64(rec.Records) != t.repl.records {
			_ = j.Close()
			err = fmt.Errorf("journal holds %d records, %d were applied", rec.Records, t.repl.records)
		}
		if err != nil {
			s.logf("server: promote: tenant %s unloaded: %v", t.id, err)
			if firstErr == nil {
				firstErr = fmt.Errorf("server: promoting tenant %q: %w", t.id, err)
			}
			s.router.Remove(t.id)
			continue
		}
		t.journal = j
		t.walRecords.Store(int64(len(rec.Tail)))
		n++
	}
	s.following.Store(false)
	s.logf("server: promoted to primary (%d tenants)", n)
	return n, firstErr
}

// onDiskTenantIDs lists tenants with journal state under the data dir.
func (s *Server) onDiskTenantIDs() []string {
	entries, err := os.ReadDir(filepath.Join(s.cfg.DataDir, "tenants"))
	if err != nil {
		return nil
	}
	var ids []string
	for _, e := range entries {
		id, ok := strings.CutPrefix(e.Name(), "t-")
		if ok && e.IsDir() && shard.ValidID(id) {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// durableTenantIDs lists every tenant a follower could replicate: resident
// tenants with open journals plus unloaded ones with on-disk state.
func (s *Server) durableTenantIDs() []string {
	seen := make(map[string]bool)
	s.router.Range(func(tn *shard.Tenant) bool {
		t := tn.Data.(*tenantState)
		if t.journal != nil {
			seen[t.id] = true
		}
		return true
	})
	for _, id := range s.onDiskTenantIDs() {
		seen[id] = true
	}
	ids := make([]string, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// handleReplicate is GET /v1/replicate: without a tenant parameter, the JSON
// listing a follower's discovery loop polls; with one, the unbounded
// log-shipping stream (see internal/replica). Mounted outside the timeout
// and recovery middleware — the response must not be buffered.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if !s.durable() {
		writeJSON(w, http.StatusBadRequest,
			apiError{Error: "durability is disabled (server started without a data dir)"})
		return
	}
	if s.following.Load() {
		writeJSON(w, http.StatusServiceUnavailable,
			apiError{Error: "standby follower cannot serve replication; promote it first"})
		return
	}
	id := r.URL.Query().Get("tenant")
	if id == "" {
		writeJSON(w, http.StatusOK, tenantListing{Tenants: s.durableTenantIDs()})
		return
	}
	t := s.resolveTenant(w, id, false)
	if t == nil {
		return
	}
	if t.journal == nil {
		writeJSON(w, http.StatusInternalServerError,
			apiError{Error: fmt.Sprintf("tenant %q has no open journal", id)})
		return
	}
	replica.ServeStream(w, r, replica.StreamConfig{Source: t.journal, Logf: s.cfg.Logf})
}

// handlePromote is POST /v1/admin/promote: turn this standby into the
// primary. 409 when the server is not a standby; the body reports how many
// tenants were promoted with open journals.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if !s.following.Load() {
		writeJSON(w, http.StatusConflict, apiError{Error: "server is not a standby"})
		return
	}
	n, err := s.Promote()
	if err != nil {
		// Promotion still happened — the gate is lifted — but some tenant
		// was unloaded; surface that to the operator.
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Promoted int `json:"promoted"`
	}{Promoted: n})
}

// atomicTenant is a swap-safe reference to a follower tenant's current
// serving state (re-seed replaces the tenantState wholesale).
type atomicTenant struct {
	mu sync.Mutex
	t  *tenantState
}

func (a *atomicTenant) store(t *tenantState) {
	a.mu.Lock()
	a.t = t
	a.mu.Unlock()
}

func (a *atomicTenant) load() *tenantState {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.t
}
