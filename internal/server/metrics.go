package server

import (
	"net/http"
	"strconv"
	"time"

	"github.com/auditgames/sag/internal/obs"
)

// Server metric names. The engine's sag_engine_* and sag_simplex family
// land in the same registry (see core.Metric*), so one /v1/metrics scrape
// covers the whole decide/commit pipeline.
const (
	// MetricHTTPRequestsTotal counts requests by route and status code.
	MetricHTTPRequestsTotal = "sag_http_requests_total"
	// MetricHTTPRequestSeconds is a latency histogram by route.
	MetricHTTPRequestSeconds = "sag_http_request_seconds"
	// MetricAccessesTotal / MetricAlertsTotal / MetricWarnedTotal /
	// MetricQuitsTotal are cumulative service counters. Unlike the
	// /v1/status snapshot they do NOT reset on cycle rollover — Prometheus
	// counters are forever-cumulative by convention and rates are taken
	// with range queries.
	MetricAccessesTotal = "sag_server_accesses_total"
	MetricAlertsTotal   = "sag_server_alerts_total"
	MetricWarnedTotal   = "sag_server_warned_total"
	MetricQuitsTotal    = "sag_server_quits_total"
	// MetricFlaggedUsers gauges the number of currently flagged employees.
	MetricFlaggedUsers = "sag_server_flagged_users"
	// MetricHTTPLockWaitSeconds is a histogram of time spent waiting to
	// acquire the server's lifecycle lock, labeled side=read|write. The
	// read side is the decision hot path: sustained waits there mean
	// something is re-serializing the handlers.
	MetricHTTPLockWaitSeconds = "sag_http_lock_wait_seconds"
	// MetricHTTPInflightRequests gauges requests currently inside an
	// instrumented handler.
	MetricHTTPInflightRequests = "sag_http_inflight_requests"
	// MetricHTTPTenantRequestsTotal counts API requests by the tenant they
	// resolved to (after validation, before the handler body).
	MetricHTTPTenantRequestsTotal = "sag_http_tenant_requests_total"
	// MetricJournalFailuresTotal counts tenant instances unloaded after a
	// journal failure. Box-wide; each unload's log line names the tenant.
	MetricJournalFailuresTotal = "sag_server_journal_failures_total"
)

// serverMetrics holds the server-wide pre-resolved instruments — the
// route-level middleware and the lifecycle-lock histograms, which span all
// tenants. All fields are non-nil: the server always owns a registry (its
// own when the caller supplied none) so that GET /v1/metrics is always
// live. Per-tenant series live in tenantMetrics.
type serverMetrics struct {
	reg             *obs.Registry
	lockWaitRead    *obs.Histogram
	lockWaitWrite   *obs.Histogram
	inflight        *obs.Gauge
	journalFailures *obs.Counter
}

func newServerMetrics(reg *obs.Registry) serverMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	const lockHelp = "Time waiting to acquire a tenant lifecycle lock, by side."
	return serverMetrics{
		reg:           reg,
		lockWaitRead:  reg.Histogram(MetricHTTPLockWaitSeconds, lockHelp, obs.DefTimeBuckets, obs.L("side", "read")),
		lockWaitWrite: reg.Histogram(MetricHTTPLockWaitSeconds, lockHelp, obs.DefTimeBuckets, obs.L("side", "write")),
		inflight:      reg.Gauge(MetricHTTPInflightRequests, "Requests currently inside an instrumented handler."),
		journalFailures: reg.Counter(MetricJournalFailuresTotal,
			"Tenant instances unloaded after a journal write or fsync failed; the next request reloads each from disk."),
	}
}

// tenantMetrics holds one tenant's pre-resolved instruments; every series
// carries tenant="<id>", matching the label the tenant's engine stamps on
// its sag_engine_* series.
type tenantMetrics struct {
	requests *obs.Counter
	accesses *obs.Counter
	alerts   *obs.Counter
	warned   *obs.Counter
	quits    *obs.Counter
	flagged  *obs.Gauge
}

func newTenantMetrics(reg *obs.Registry, tenant string) tenantMetrics {
	l := obs.L("tenant", tenant)
	return tenantMetrics{
		requests: reg.Counter(MetricHTTPTenantRequestsTotal, "API requests by resolved tenant.", l),
		accesses: reg.Counter(MetricAccessesTotal, "Access requests evaluated.", l),
		alerts:   reg.Counter(MetricAlertsTotal, "Accesses on which a detection rule fired.", l),
		warned:   reg.Counter(MetricWarnedTotal, "Accesses answered with a warning.", l),
		quits:    reg.Counter(MetricQuitsTotal, "Warned accesses reported abandoned.", l),
		flagged:  reg.Gauge(MetricFlaggedUsers, "Employees currently flagged as quitters.", l),
	}
}

// statusRecorder captures the response code written by a handler (200 when
// the handler never calls WriteHeader explicitly).
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a route handler with request counting and latency
// observation. The route label is the mount pattern's path, so cardinality
// stays bounded by the route table.
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	lat := s.met.reg.Histogram(MetricHTTPRequestSeconds,
		"HTTP request latency in seconds by route.", obs.DefTimeBuckets, obs.L("route", route))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		s.met.inflight.Add(1)
		defer s.met.inflight.Add(-1)
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		lat.ObserveSince(t0)
		s.met.reg.Counter(MetricHTTPRequestsTotal, "HTTP requests by route and status code.",
			obs.L("route", route), obs.L("code", strconv.Itoa(rec.code))).Inc()
	})
}

// Metrics returns the server's registry — the one /v1/metrics serves —
// so embedders (e.g. cmd/sagserver's debug listener) can export or extend
// the same instrument set.
func (s *Server) Metrics() *obs.Registry { return s.met.reg }
