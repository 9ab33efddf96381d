package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/server"
)

// tenantTrack is the client's view of one tenant's open cycle.
type tenantTrack struct {
	name string // "" = the default tenant
	mu   sync.Mutex
	c    cycleCounts
	// floor is the lowest remaining budget any completed response of this
	// cycle reported.
	floor float64
}

func (t *tenantTrack) snapshotFloor() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.floor
}

// recorder collects one phase's samples. Latencies are in milliseconds,
// kept as blocked percentiles, so a recorder's memory does not grow with
// the number of requests a run sends.
type recorder struct {
	mu     sync.Mutex
	access *blocks
	alert  *blocks
	status *blocks
	late   *blocks
	// rollStatus holds the status reads of cycle rollovers, which run with
	// no accesses in flight.
	rollStatus *blocks
	sent       int
	ok         int
	accesses   int // successful accesses
	// elapsed is the phase's time over all its slices; rollovers is the
	// part spent closing and opening cycles between days, which
	// throughput excludes.
	elapsed   time.Duration
	rollovers time.Duration
	// segments is the throughput of each stretch of one day's requests
	// between rollovers, in successful accesses per second.
	segments []float64
}

// minSegment is the fewest accesses a stretch needs to count as a
// throughput sample.
const minSegment = 100

func newRecorder() *recorder {
	return &recorder{
		access: newBlocks(), alert: newBlocks(), status: newBlocks(), late: newBlocks(), rollStatus: newBlocks(),
		segments: make([]float64, 0, 1024),
	}
}

// statuses is the recorder's status reads: the stream's own, next to the
// accesses, or for a workload without them its rollovers' reads.
func (r *recorder) statuses() *blocks {
	if r.status.full == 0 && len(r.status.cur) == 0 {
		return r.rollStatus
	}
	return r.status
}

// busy is the phase's duration without its rollovers.
func (r *recorder) busy() time.Duration { return r.elapsed - r.rollovers }

func (r *recorder) request(ok bool) {
	r.mu.Lock()
	r.sent++
	if ok {
		r.ok++
	}
	r.mu.Unlock()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runner drives one workload's request stream against the primary.
type runner struct {
	w      *workload
	base   string
	client *http.Client
	st     *stream
	clock  *atomic.Int64
	tracks []*tenantTrack
	fail   *failures

	dayIdx int // current replay day
	pos    int // next op within it

	mu      sync.Mutex // guards the cycle accounting below
	utilSum float64    // Σ MeanOSSPUtility·alerts over the first utilDays days' cycles
	utilN   int        // Σ alerts over the same cycles
	cycles  int        // closed cycles

	// keepSent, set between phases, makes send record each successful
	// access op in sentOps (under the phase recorder's lock): the traced
	// phase's inputs, in send order, for the layer replays.
	keepSent bool
	sentOps  []*op
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}}
}

func newRunner(w *workload, base string, st *stream, clock *atomic.Int64, fail *failures) *runner {
	r := &runner{w: w, base: base, client: newClient(maxConnection), st: st, clock: clock, fail: fail}
	for _, name := range st.names {
		r.tracks = append(r.tracks, &tenantTrack{name: name, floor: budget})
	}
	return r
}

// do sends one request and returns the body when the status is 200.
func (r *runner) do(method, path, tenant string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, r.base+path, rd)
	if err != nil {
		return nil, err
	}
	if tenant != "" {
		req.Header.Set(server.TenantHeader, tenant)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// send issues one op. due is when it was scheduled (zero in a closed
// loop); latency runs from due, or from the send when there is none.
func (r *runner) send(o *op, rec *recorder, due time.Time) {
	tr := r.tracks[o.tenant]
	switch o.kind {
	case opStatus:
		start := time.Now()
		_, err := r.do(http.MethodGet, "/v1/status"+tenantQuery(tr.name), "", nil)
		if !due.IsZero() {
			start = due
		}
		lat := ms(time.Since(start))
		if rec != nil {
			rec.request(err == nil)
			if err == nil {
				rec.mu.Lock()
				rec.status.add(lat)
				rec.mu.Unlock()
			}
		}
		if err != nil {
			r.fail.add(fmt.Errorf("status read: %w", err))
		}
	case opAccess:
		floor := tr.snapshotFloor()
		body := make([]byte, 0, 48)
		body = append(body, `{"employee_id":`...)
		body = strconv.AppendInt(body, int64(o.emp), 10)
		body = append(body, `,"patient_id":`...)
		body = strconv.AppendInt(body, int64(o.pat), 10)
		body = append(body, '}')
		// The cycle clock reads the timestamp of the last event sent.
		r.clock.Store(int64(o.at))
		start := time.Now()
		if rec != nil && !due.IsZero() {
			rec.mu.Lock()
			rec.late.add(ms(start.Sub(due)))
			rec.mu.Unlock()
			start = due
		}
		b, err := r.do(http.MethodPost, "/v1/access", tr.name, body)
		lat := ms(time.Since(start))
		var resp server.AccessResponse
		if err == nil {
			err = json.Unmarshal(b, &resp)
		}
		if rec != nil {
			rec.request(err == nil)
		}
		if err != nil {
			r.fail.add(fmt.Errorf("access: %w", err))
			return
		}
		r.fail.add(checkAccess(o, &resp, floor))
		tr.mu.Lock()
		tr.c.Accesses++
		if resp.Alert {
			tr.c.Alerts++
		}
		if resp.Warn {
			tr.c.Warned++
		}
		tr.floor = math.Min(tr.floor, resp.RemainingBudget)
		tr.mu.Unlock()
		if rec != nil {
			rec.mu.Lock()
			rec.accesses++
			rec.access.add(lat)
			if o.alert {
				rec.alert.add(lat)
			}
			if r.keepSent {
				r.sentOps = append(r.sentOps, o)
			}
			rec.mu.Unlock()
		}
	}
}

// pace sends ops from..n-1 until they run out or the deadline passes, and
// returns the index of the first op not sent.
//
// With interval > 0 it is an open loop: op k is due at start+(k-from)·
// interval and one dispatcher hands it to the first free of workers at its
// due time. When every worker is still busy the op waits, and so does every
// op behind it: send is given the due time, so a stall is charged to all the
// requests queued behind it. With interval 0 it is a closed loop: each
// worker sends its next op as soon as its last one completed.
func pace(from, n, workers int, interval time.Duration, deadline time.Time, send func(k int, due time.Time)) int {
	var mu sync.Mutex
	next := from
	var wg sync.WaitGroup
	if interval == 0 {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					mu.Lock()
					k := next
					if k >= n || !time.Now().Before(deadline) {
						mu.Unlock()
						return
					}
					next++
					mu.Unlock()
					send(k, time.Time{})
				}
			}()
		}
		wg.Wait()
		return next
	}
	type job struct {
		k   int
		due time.Time
	}
	jobs := make(chan job)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				send(j.k, j.due)
			}
		}()
	}
	lockPreciseThread()
	start := time.Now()
	for ; next < n; next++ {
		due := start.Add(time.Duration(next-from) * interval)
		if !due.Before(deadline) || !time.Now().Before(deadline) {
			break
		}
		sleepUntil(due)
		jobs <- job{next, due}
	}
	runtime.UnlockOSThread()
	close(jobs)
	wg.Wait()
	return next
}

// phase replays the stream for dur with the given workers, recording into
// rec (a phase may run as several slices into one recorder); rate > 0
// makes it an open loop at that many requests per second. Day boundaries
// drain the in-flight requests, close every touched tenant's cycle and
// open the next; an open-loop schedule restarts after the rollover, so
// rollover time is not charged to the next day's requests.
func (r *runner) phase(rec *recorder, workers int, rate float64, dur time.Duration) error {
	var interval time.Duration
	if rate > 0 {
		interval = time.Duration(float64(time.Second) / rate)
	}
	start := time.Now()
	deadline := start.Add(dur)
	for time.Now().Before(deadline) {
		d, err := r.st.day(r.dayIdx)
		if err != nil {
			return err
		}
		if r.pos >= len(d.ops) {
			t0 := time.Now()
			r.rollover(d, rec)
			rec.rollovers += time.Since(t0)
			r.dayIdx++
			r.pos = 0
			continue
		}
		rec.mu.Lock()
		before := rec.accesses
		rec.mu.Unlock()
		t0 := time.Now()
		r.pos = pace(r.pos, len(d.ops), workers, interval, deadline, func(k int, due time.Time) {
			r.send(&d.ops[k], rec, due)
		})
		el := time.Since(t0)
		rec.mu.Lock()
		if n := rec.accesses - before; n >= minSegment {
			rec.segments = append(rec.segments, float64(n)/el.Seconds())
		}
		rec.mu.Unlock()
	}
	rec.elapsed += time.Since(start)
	return nil
}

// warmUp sends the first ops of the stream closed-loop and unrecorded, so
// connections are open and lazily built state exists before timing.
func (r *runner) warmUp(n int) error {
	d, err := r.st.day(r.dayIdx)
	if err != nil {
		return err
	}
	if n > len(d.ops) {
		n = len(d.ops)
	}
	r.pos = pace(r.pos, n, maxConnection, 0, time.Now().Add(time.Minute), func(k int, _ time.Time) {
		r.send(&d.ops[k], nil, time.Time{})
	})
	return nil
}

// finishDays replays the stream in a closed loop, unrecorded except for
// request counts, until the first n days' cycles have closed, so
// ossp_utility averages over the same days on every run.
func (r *runner) finishDays(n int, rec *recorder) error {
	for r.dayIdx < n {
		d, err := r.st.day(r.dayIdx)
		if err != nil {
			return err
		}
		r.pos = pace(r.pos, len(d.ops), maxConnection, 0, time.Now().Add(time.Hour), func(k int, _ time.Time) {
			r.send(&d.ops[k], rec, time.Time{})
		})
		r.rollover(d, rec)
		r.dayIdx++
		r.pos = 0
	}
	return nil
}

// rollover ends day d's audit cycle for every tenant it touched: it checks
// the tenant's status and summary against the client's counts, closes the
// cycle and opens the next one. Tenants are split over the connections.
// The cycles of the first utilDays days count towards ossp_utility.
func (r *runner) rollover(d *day, rec *recorder) {
	util := d.index < r.w.utilDays
	var wg sync.WaitGroup
	for w := 0; w < maxConnection; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(d.touched); i += maxConnection {
				r.closeCycle(r.tracks[d.touched[i]], rec, util)
			}
		}(w)
	}
	wg.Wait()
}

func tenantQuery(name string) string {
	if name == "" {
		return ""
	}
	return "?tenant=" + url.QueryEscape(name)
}

func tenantBody(name string) string {
	if name == "" {
		return "{}"
	}
	return `{"tenant":` + strconv.Quote(name) + `}`
}

func (r *runner) closeCycle(tr *tenantTrack, rec *recorder, util bool) {
	tr.mu.Lock()
	c := tr.c
	tr.mu.Unlock()
	fail := func(err error) {
		r.fail.add(fmt.Errorf("tenant %q rollover: %w", tr.name, err))
	}
	t0 := time.Now()
	b, err := r.do(http.MethodGet, "/v1/status"+tenantQuery(tr.name), "", nil)
	lat := ms(time.Since(t0))
	rec.request(err == nil)
	if err != nil {
		fail(err)
		return
	}
	rec.mu.Lock()
	rec.rollStatus.add(lat)
	rec.mu.Unlock()
	var st server.Status
	if err := json.Unmarshal(b, &st); err != nil {
		fail(err)
		return
	}
	r.fail.add(checkStatus(tr.name, c, &st))

	b, err = r.do(http.MethodGet, "/v1/cycle/summary"+tenantQuery(tr.name), "", nil)
	rec.request(err == nil)
	if err != nil {
		fail(err)
		return
	}
	var sum core.CycleSummary
	if err := json.Unmarshal(b, &sum); err != nil {
		fail(err)
		return
	}
	r.fail.add(checkSummary(tr.name, c, &sum))

	_, err = r.do(http.MethodPost, "/v1/cycle/close", "", []byte(tenantBody(tr.name)))
	rec.request(err == nil)
	if err != nil {
		fail(err)
		return
	}
	nb := fmt.Sprintf(`{"budget":%g`, budget)
	if tr.name != "" {
		nb += `,"tenant":` + strconv.Quote(tr.name)
	}
	_, err = r.do(http.MethodPost, "/v1/cycle/new", "", []byte(nb+"}"))
	rec.request(err == nil)
	if err != nil {
		fail(err)
		return
	}
	r.mu.Lock()
	r.cycles++
	if util {
		r.utilSum += sum.MeanOSSPUtility * float64(sum.Alerts)
		r.utilN += sum.Alerts
	}
	r.mu.Unlock()
	tr.mu.Lock()
	tr.c = cycleCounts{}
	tr.floor = budget
	tr.mu.Unlock()
}

// scraper fetches /v1/metrics at the workload's cadence while on, until
// stopped, through the same connections as the load; quiet adds scrapes
// taken back to back with nothing else in flight.
type scraper struct {
	r        *runner
	on       atomic.Bool
	stop     chan struct{}
	done     chan struct{}
	mu       sync.Mutex
	attempts int
	ok       int
	ms       []float64 // scrapes beside the load
	quietMs  []float64 // scrapes with nothing else in flight
	bytes    []float64 // sizes of all scrapes
}

// startScraper starts the scraper, switched off, with room for dur's
// scrapes allocated up front.
func (r *runner) startScraper(dur time.Duration) *scraper {
	n := int(dur/r.w.scrapeEvery) + 16
	q := slices*r.w.quietScrapes + 16
	s := &scraper{r: r, stop: make(chan struct{}), done: make(chan struct{}),
		ms: make([]float64, 0, n), quietMs: make([]float64, 0, q), bytes: make([]float64, 0, n+q)}
	go func() {
		defer close(s.done)
		t := time.NewTicker(r.w.scrapeEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			if s.on.Load() {
				s.scrape(&s.ms)
			}
		}
	}()
	return s
}

// scrape fetches /v1/metrics once and records its time into *into.
func (s *scraper) scrape(into *[]float64) {
	s.mu.Lock()
	s.attempts++
	s.mu.Unlock()
	t0 := time.Now()
	b, err := s.r.do(http.MethodGet, "/v1/metrics", "", nil)
	if err != nil {
		s.r.fail.add(fmt.Errorf("scrape: %w", err))
		return
	}
	el := ms(time.Since(t0))
	s.mu.Lock()
	s.ok++
	*into = append(*into, el)
	s.bytes = append(s.bytes, float64(len(b)))
	s.mu.Unlock()
}

// quiet scrapes n times back to back; the caller makes sure nothing else
// is in flight.
func (s *scraper) quiet(n int) {
	for i := 0; i < n; i++ {
		s.scrape(&s.quietMs)
	}
}

func (s *scraper) finish() {
	close(s.stop)
	<-s.done
}
