// Package sim is the evaluation harness that reproduces the paper's §5
// protocol: from a multi-week alert dataset it forms rolling groups of 41
// history days plus 1 test day, replays each test day in real time, and
// scores three policies per triggered alert —
//
//   - OSSP (the paper's contribution; optimal objective of LP (3)),
//   - online SSE (no signaling; optimal objective of LP (2)),
//   - offline SSE (the end-of-cycle Stackelberg baseline; one value per
//     day, the flat line in Figures 2–3),
//
// emitting the per-alert utility time series that Figures 2 and 3 plot.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/auditgames/sag/internal/alerts"
	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/emr"
	"github.com/auditgames/sag/internal/game"
	"github.com/auditgames/sag/internal/history"
	"github.com/auditgames/sag/internal/obs"
	"github.com/auditgames/sag/internal/payoff"
)

// Simulation metric names (see Config.Metrics).
const (
	// MetricGroupSeconds is a histogram of wall-clock time per replication
	// (one RunGroup call: both online engines over one test day).
	MetricGroupSeconds = "sag_sim_group_seconds"
	// MetricGroupAlertsPerSecond is a histogram of per-replication
	// throughput in alerts/second.
	MetricGroupAlertsPerSecond = "sag_sim_group_alerts_per_second"
	// MetricAlertsTotal counts alerts replayed across all replications.
	MetricAlertsTotal = "sag_sim_alerts_total"
	// MetricGroupsTotal counts completed replications.
	MetricGroupsTotal = "sag_sim_groups_total"
)

// TimedAlert is one alert of a modeled type within a day, with its type
// already mapped to a contiguous 0-based index.
type TimedAlert struct {
	Type int
	Time time.Duration
}

// Dataset is a multi-day alert stream over a fixed set of modeled types.
type Dataset struct {
	// NumTypes is the number of modeled types (contiguous indices).
	NumTypes int
	// TypeIDs maps each index back to its taxonomy ID (Table 1: 1..7).
	TypeIDs []int
	// Days holds each day's alerts sorted by time.
	Days [][]TimedAlert
}

// NumDays returns the number of days in the dataset.
func (d *Dataset) NumDays() int { return len(d.Days) }

// DayCounts returns the per-type alert counts of one day.
func (d *Dataset) DayCounts(day int) []float64 {
	counts := make([]float64, d.NumTypes)
	for _, a := range d.Days[day] {
		counts[a.Type]++
	}
	return counts
}

// Records flattens a window of days [start, start+n) into history.Records
// with days renumbered from zero, the input NewCurves expects.
func (d *Dataset) Records(start, n int) []history.Record {
	var recs []history.Record
	for day := start; day < start+n && day < len(d.Days); day++ {
		for _, a := range d.Days[day] {
			recs = append(recs, history.Record{Day: day - start, Type: a.Type, Time: a.Time})
		}
	}
	return recs
}

// BuildDataset scans numDays of generated access logs through the detection
// engine and keeps alerts whose taxonomy ID appears in typeIDs, mapping them
// to contiguous indices in typeIDs order.
func BuildDataset(gen *emr.Generator, eng *alerts.Engine, numDays int, typeIDs []int) (*Dataset, error) {
	if gen == nil || eng == nil {
		return nil, fmt.Errorf("sim: nil generator or engine")
	}
	if numDays <= 0 {
		return nil, fmt.Errorf("sim: need at least one day, got %d", numDays)
	}
	if len(typeIDs) == 0 {
		return nil, fmt.Errorf("sim: need at least one type ID")
	}
	index := make(map[int]int, len(typeIDs))
	for i, id := range typeIDs {
		if _, dup := index[id]; dup {
			return nil, fmt.Errorf("sim: duplicate type ID %d", id)
		}
		index[id] = i
	}
	ds := &Dataset{NumTypes: len(typeIDs), TypeIDs: append([]int(nil), typeIDs...)}
	for day := 0; day < numDays; day++ {
		scanned, err := eng.Scan(gen.Day(day))
		if err != nil {
			return nil, fmt.Errorf("sim: scanning day %d: %w", day, err)
		}
		var das []TimedAlert
		for _, a := range scanned {
			if idx, ok := index[a.Type]; ok {
				das = append(das, TimedAlert{Type: idx, Time: a.Time})
			}
		}
		sort.Slice(das, func(i, j int) bool { return das[i].Time < das[j].Time })
		ds.Days = append(ds.Days, das)
	}
	return ds, nil
}

// Group is one evaluation fold: HistoryDays days of history starting at
// Start, followed by the test day Start+HistoryDays.
type Group struct {
	Start       int
	HistoryDays int
}

// TestDay returns the index of the group's test day.
func (g Group) TestDay() int { return g.Start + g.HistoryDays }

// Groups builds the paper's rolling folds: with totalDays=56 and
// historyDays=41 it yields 15 groups (the paper's construction).
func Groups(totalDays, historyDays int) []Group {
	var out []Group
	for s := 0; s+historyDays < totalDays; s++ {
		out = append(out, Group{Start: s, HistoryDays: historyDays})
	}
	return out
}

// Config parameterizes a Runner.
type Config struct {
	// Instance is the audit game over the dataset's modeled types (same
	// order as Dataset.TypeIDs).
	Instance *game.Instance
	// Budget is the per-day audit budget (paper: 20 single-type, 50
	// multi-type).
	Budget float64
	// RollbackThreshold is the knowledge-rollback threshold (paper: 4).
	// Negative disables rollback (raw curves are used).
	RollbackThreshold float64
	// NewEstimator, when non-nil, overrides how each group's estimator is
	// built from its history curves (RollbackThreshold is then ignored).
	// Used by the estimator ablations to swap rollback variants.
	NewEstimator func(*history.Curves) (core.Estimator, error)
	// Seed drives OSSP signal sampling.
	Seed int64
	// UseLPSignaling routes OSSP through LP (3) instead of the closed form.
	UseLPSignaling bool
	// Metrics, when non-nil, receives per-replication throughput
	// instrumentation (see the Metric* constants).
	Metrics *obs.Registry
}

// AlertOutcome is the per-alert score triple of Figures 2–3.
type AlertOutcome struct {
	Time time.Duration
	// Type is the modeled type index of the alert.
	Type int
	// OSSP is the auditor's expected utility with signaling.
	OSSP float64
	// OnlineSSE is the auditor's expected utility without signaling.
	OnlineSSE float64
}

// DayResult is the evaluation of one group's test day.
type DayResult struct {
	Group    Group
	Outcomes []AlertOutcome
	// OfflineSSE is the constant per-alert utility of the offline baseline
	// for this day.
	OfflineSSE float64
	// OSSPSummary and SSESummary aggregate the two online engines.
	OSSPSummary core.CycleSummary
	SSESummary  core.CycleSummary
}

// Runner evaluates groups of a dataset under a fixed game configuration.
type Runner struct {
	ds  *Dataset
	cfg Config

	// Pre-resolved instruments (nil when Config.Metrics is nil; every
	// record call is then a no-op).
	groupSeconds *obs.Histogram
	groupRate    *obs.Histogram
	alertsTotal  *obs.Counter
	groupsTotal  *obs.Counter
}

// NewRunner validates inputs and builds a Runner.
func NewRunner(ds *Dataset, cfg Config) (*Runner, error) {
	if ds == nil {
		return nil, fmt.Errorf("sim: nil dataset")
	}
	if cfg.Instance == nil {
		return nil, fmt.Errorf("sim: Config.Instance is required")
	}
	if cfg.Instance.NumTypes() != ds.NumTypes {
		return nil, fmt.Errorf("sim: instance has %d types, dataset %d", cfg.Instance.NumTypes(), ds.NumTypes)
	}
	if cfg.Budget < 0 {
		return nil, fmt.Errorf("sim: negative budget %g", cfg.Budget)
	}
	reg := cfg.Metrics
	return &Runner{
		ds:  ds,
		cfg: cfg,
		groupSeconds: reg.Histogram(MetricGroupSeconds,
			"Wall-clock seconds per replication (one group's test day).",
			obs.ExponentialBuckets(0.01, 2, 13)),
		groupRate: reg.Histogram(MetricGroupAlertsPerSecond,
			"Per-replication throughput in alerts/second.",
			obs.ExponentialBuckets(8, 2, 13)),
		alertsTotal: reg.Counter(MetricAlertsTotal, "Alerts replayed across all replications."),
		groupsTotal: reg.Counter(MetricGroupsTotal, "Completed replications."),
	}, nil
}

// RunGroup replays one group's test day under OSSP, online SSE, and the
// offline SSE baseline.
func (r *Runner) RunGroup(g Group) (*DayResult, error) {
	if g.Start < 0 || g.HistoryDays <= 0 || g.TestDay() >= r.ds.NumDays() {
		return nil, fmt.Errorf("sim: group %+v out of dataset range (%d days)", g, r.ds.NumDays())
	}
	var t0 time.Time
	if r.groupSeconds.Enabled() {
		t0 = time.Now()
	}
	recs := r.ds.Records(g.Start, g.HistoryDays)
	curves, err := history.NewCurves(recs, r.ds.NumTypes, g.HistoryDays)
	if err != nil {
		return nil, err
	}

	newEstimator := func() (core.Estimator, error) {
		if r.cfg.NewEstimator != nil {
			return r.cfg.NewEstimator(curves)
		}
		if r.cfg.RollbackThreshold < 0 {
			return curves, nil
		}
		return history.NewRollback(curves, r.cfg.RollbackThreshold)
	}
	estOSSP, err := newEstimator()
	if err != nil {
		return nil, err
	}
	estSSE, err := newEstimator()
	if err != nil {
		return nil, err
	}

	osspEng, err := core.NewEngine(core.Config{
		Instance:       r.cfg.Instance,
		Budget:         r.cfg.Budget,
		Estimator:      estOSSP,
		Policy:         core.PolicyOSSP,
		Rand:           rand.New(rand.NewSource(r.cfg.Seed*7919 + int64(g.Start))),
		UseLPSignaling: r.cfg.UseLPSignaling,
	})
	if err != nil {
		return nil, err
	}
	sseEng, err := core.NewEngine(core.Config{
		Instance:  r.cfg.Instance,
		Budget:    r.cfg.Budget,
		Estimator: estSSE,
		Policy:    core.PolicySSE,
	})
	if err != nil {
		return nil, err
	}

	testDay := r.ds.Days[g.TestDay()]
	res := &DayResult{Group: g}
	for _, a := range testDay {
		alert := core.Alert{Type: a.Type, Time: a.Time}
		dOSSP, err := osspEng.Process(alert)
		if err != nil {
			return nil, fmt.Errorf("sim: OSSP engine: %w", err)
		}
		dSSE, err := sseEng.Process(alert)
		if err != nil {
			return nil, fmt.Errorf("sim: SSE engine: %w", err)
		}
		res.Outcomes = append(res.Outcomes, AlertOutcome{
			Time:      a.Time,
			Type:      a.Type,
			OSSP:      dOSSP.OSSPUtility,
			OnlineSSE: dSSE.SSEUtility,
		})
	}

	offline, err := game.SolveOfflineSSE(r.cfg.Instance, r.cfg.Budget, r.ds.DayCounts(g.TestDay()))
	if err != nil {
		return nil, fmt.Errorf("sim: offline SSE: %w", err)
	}
	res.OfflineSSE = offline.DefenderUtility
	res.OSSPSummary = osspEng.Summary()
	res.SSESummary = sseEng.Summary()
	if r.groupSeconds.Enabled() {
		elapsed := time.Since(t0)
		r.groupSeconds.Observe(elapsed.Seconds())
		r.groupsTotal.Inc()
		r.alertsTotal.Add(uint64(len(testDay)))
		if s := elapsed.Seconds(); s > 0 {
			r.groupRate.Observe(float64(len(testDay)) / s)
		}
	}
	return res, nil
}

// RunGroups evaluates a list of groups in order.
func (r *Runner) RunGroups(gs []Group) ([]*DayResult, error) {
	out := make([]*DayResult, 0, len(gs))
	for _, g := range gs {
		res, err := r.RunGroup(g)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// PipelineConfig bundles the full synthetic pipeline: world, generator, and
// detection engine sized for an experiment.
type PipelineConfig struct {
	Seed             int64
	Days             int // default 56 (the paper's window)
	BackgroundPerDay int // default 2000
	PairsPerKind     int // default 300
	WorldEmployees   int // default 400 (kept small; alert volume is what matters)
	WorldPatients    int // default 2000
}

func (c *PipelineConfig) applyDefaults() {
	if c.Days <= 0 {
		c.Days = 56
	}
	if c.WorldEmployees <= 0 {
		c.WorldEmployees = 400
	}
	if c.WorldPatients <= 0 {
		c.WorldPatients = 2000
	}
}

// BuildTable1Pipeline assembles the end-to-end synthetic pipeline of the
// paper's evaluation: a world, a Table 1–calibrated generator, a detection
// engine, and the dataset of typed alerts for the requested taxonomy IDs
// (pass 1..7 for the multi-type experiment, just 1 for single-type).
func BuildTable1Pipeline(cfg PipelineConfig, typeIDs []int) (*Dataset, error) {
	cfg.applyDefaults()
	world, err := emr.NewWorld(emr.WorldConfig{
		Seed:      cfg.Seed,
		Employees: cfg.WorldEmployees,
		Patients:  cfg.WorldPatients,
	})
	if err != nil {
		return nil, err
	}
	gen, err := emr.NewGenerator(world, emr.GeneratorConfig{
		Seed:             cfg.Seed,
		BackgroundPerDay: cfg.BackgroundPerDay,
		PairsPerKind:     cfg.PairsPerKind,
	})
	if err != nil {
		return nil, err
	}
	eng, err := alerts.NewEngine(world, alerts.NewTable1Taxonomy())
	if err != nil {
		return nil, err
	}
	return BuildDataset(gen, eng, cfg.Days, typeIDs)
}

// Table1Instance builds the audit-game instance for a subset of the paper's
// type IDs with uniform audit cost 1 (the paper's evaluation setting).
func Table1Instance(typeIDs []int) (*game.Instance, error) {
	table := payoff.Table2()
	pays := make([]payoff.Payoff, 0, len(typeIDs))
	for _, id := range typeIDs {
		if id < 1 || id > 7 {
			return nil, fmt.Errorf("sim: type ID %d outside Table 2 (1..7)", id)
		}
		pays = append(pays, table[id])
	}
	return game.NewInstance(pays, game.UniformCost(len(typeIDs), 1))
}

// AllTable1TypeIDs returns [1 2 3 4 5 6 7].
func AllTable1TypeIDs() []int { return []int{1, 2, 3, 4, 5, 6, 7} }
