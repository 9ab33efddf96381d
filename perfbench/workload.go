package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/auditgames/sag/internal/alerts"
	"github.com/auditgames/sag/internal/emr"
)

// Workload settings.
const (
	walSegmentBytes    = 64 << 10  // small segments: about a hundred rolls a run, so retain has segments to prune
	walDiskBudget      = 256 << 20 // far above the journals' size: 507 never fires
	walCompactInterval = 100 * time.Millisecond

	// Coarse quanta: a tenant's key moves a few times a day, so its share of
	// the cache (7 entries) holds what one cycle needs.
	cacheBudgetQuantum = 10.0
	cacheRateQuantum   = 100.0

	admitRate     = 1e6 // per-tenant req/s, far above the offered load
	admitInflight = 64  // above the benchmark's connection count: nothing queues

	hashDays      = 8 // the printed stream hash covers this many days
	warmupOps     = 200
	maxConnection = 2    // nproc of the reference machine
	serverSeed    = 2017 // cmd/sagserver's default -seed
)

// workload is one traffic mix.
type workload struct {
	name string
	// tenants is the number of named tenants (0: the default tenant only).
	tenants     int
	zipf        bool    // tenants drawn under Zipf's law (else uniformly)
	statusShare float64 // share of all requests that are GET /v1/status reads
	durable     bool
	cache       bool
	admission   bool
	// rate is the frozen open-loop request rate, 0.15–0.45 of the
	// closed-loop saturation rate measured on seed 1.
	rate float64
	// scrapeEvery is the /v1/metrics scrape cadence beside the
	// one-connection loop.
	scrapeEvery time.Duration
	// quietScrapes is how many scrapes are taken back to back, with
	// nothing else in flight, after each slice of an untraced run: many
	// where a scrape is small, so scrape_p50_ms rests on enough samples.
	quietScrapes int
	// utilDays is how many replay days ossp_utility averages over: the
	// same days on every run, whatever its throughput. A run replays them
	// to the end after the timed load when it has not got that far.
	utilDays int
}

var workloads = []*workload{
	// One in-memory tenant, cache off: the uncached decision path (core,
	// history, game/lp, signaling) does most of the work.
	{
		name: "emr-day",
		rate: 2000, scrapeEvery: 100 * time.Millisecond, quietScrapes: 30, utilDays: 40,
	},
	// 8 tenants journaling every access, with snapshots, segment rolls
	// and a live follower. Journals sync on the 100 ms timer: under
	// fsync=always every access waits on the shared host disk, whose
	// speed swings several-fold between runs. Segment rolls still fsync
	// on the request path, and snapshots under the tenant's lock.
	{
		name:    "durable-standby",
		tenants: 8, durable: true, rate: 900, scrapeEvery: 100 * time.Millisecond, quietScrapes: 30, utilDays: 16,
	},
	// 1000 tenants under Zipf's law with the cache on, 10% status reads
	// and metric scrapes: obs cardinality and shard lookup dominate.
	{
		name:    "tenant-fanout",
		tenants: 1000, zipf: true, statusShare: 0.10, cache: true, admission: true, rate: 1500, scrapeEvery: time.Second, quietScrapes: 2,
		utilDays: 16,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// tenantIDs lists the named tenants pre-created at set-up.
func (w *workload) tenantIDs() []string {
	ids := make([]string, w.tenants)
	for i := range ids {
		ids[i] = fmt.Sprintf("t-%04d", i)
	}
	return ids
}

type opKind uint8

const (
	opAccess opKind = iota
	opStatus
)

// op is one generated request.
type op struct {
	kind   opKind
	tenant int32 // index into the run's tenant tracks
	at     time.Duration
	emp    int32
	pat    int32
	// alert and typ are what the benchmark's own alerts engine says the
	// access must answer.
	alert bool
	typ   int32
}

// day is one replayed EMR day: its requests in send order and the tenants
// it touches, whose cycles close when the day ends.
type day struct {
	index   int
	ops     []op
	touched []int32
}

// stream generates the request stream of a workload from the seed. Day d
// of the stream replays generated day historyDays+d, so replay never
// overlaps the days the estimator was fitted on.
type stream struct {
	w     *workload
	seed  int64
	gen   *emr.Generator
	det   *alerts.Engine
	names []string // track index → tenant ID ("" = default tenant)
	zipf  []float64
	// hashed keeps the first hashDays days; of the later ones only the
	// latest is kept, so the stream's memory does not grow with the
	// number of days a run replays.
	hashed []*day
	last   *day
}

func newStream(w *workload, seed int64, gen *emr.Generator, det *alerts.Engine) *stream {
	s := &stream{w: w, seed: seed, gen: gen, det: det}
	if w.tenants == 0 {
		s.names = []string{""}
	} else {
		s.names = w.tenantIDs()
	}
	if w.zipf {
		s.zipf = zipfCDF(len(s.names))
	}
	return s
}

// zipfCDF is the cumulative distribution of Zipf's law in its original
// form over n ranks: rank k (from 0) draws a share proportional to 1/(k+1).
func zipfCDF(n int) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / float64(k+1)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

// day returns replay day d. Days are generated on demand and are the same
// however often they are.
func (s *stream) day(d int) (*day, error) {
	if d < hashDays {
		for len(s.hashed) <= d {
			next, err := s.generate(len(s.hashed))
			if err != nil {
				return nil, err
			}
			s.hashed = append(s.hashed, next)
		}
		return s.hashed[d], nil
	}
	if s.last == nil || s.last.index != d {
		next, err := s.generate(d)
		if err != nil {
			return nil, err
		}
		s.last = next
	}
	return s.last, nil
}

func (s *stream) generate(d int) (*day, error) {
	events := s.gen.Day(historyDays + d)
	rng := rand.New(rand.NewSource(s.seed*1_000_033 + int64(d)))
	pick := func() int32 { return 0 }
	switch {
	case s.w.zipf:
		pick = func() int32 {
			return int32(min(sort.SearchFloat64s(s.zipf, rng.Float64()), len(s.zipf)-1))
		}
	case len(s.names) > 1:
		pick = func() int32 { return int32(rng.Intn(len(s.names))) }
	}
	out := &day{index: d, ops: make([]op, 0, len(events)+len(events)/8)}
	seen := make(map[int32]bool)
	for _, ev := range events {
		if s.w.statusShare > 0 && rng.Float64() < s.w.statusShare/(1-s.w.statusShare) {
			out.ops = append(out.ops, op{kind: opStatus, tenant: pick(), at: ev.Time})
		}
		a, fired, err := s.det.Evaluate(ev)
		if err != nil {
			return nil, fmt.Errorf("day %d: %w", d, err)
		}
		o := op{kind: opAccess, tenant: pick(), at: ev.Time, emp: int32(ev.EmployeeID), pat: int32(ev.PatientID), alert: fired}
		if fired {
			o.typ = int32(a.Type)
		}
		seen[o.tenant] = true
		out.ops = append(out.ops, o)
	}
	for t := range seen {
		out.touched = append(out.touched, t)
	}
	sort.Slice(out.touched, func(i, j int) bool { return out.touched[i] < out.touched[j] })
	return out, nil
}

// hash is the SHA-256 of the first n days' requests in a canonical
// encoding: the same seed yields the same hash.
func (s *stream) hash(n int) (string, error) {
	h := sha256.New()
	var buf [29]byte
	for d := 0; d < n; d++ {
		dd, err := s.day(d)
		if err != nil {
			return "", err
		}
		for _, o := range dd.ops {
			buf[0] = byte(o.kind)
			binary.LittleEndian.PutUint32(buf[1:], uint32(o.tenant))
			binary.LittleEndian.PutUint64(buf[5:], uint64(o.at))
			binary.LittleEndian.PutUint32(buf[13:], uint32(o.emp))
			binary.LittleEndian.PutUint32(buf[17:], uint32(o.pat))
			binary.LittleEndian.PutUint32(buf[21:], uint32(o.typ))
			binary.LittleEndian.PutUint32(buf[25:], uint32(d))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
