// Package wal is the engine's durability substrate: a per-tenant
// write-ahead journal of every state mutation — decision commits (with the
// sampled signal and budget charge), cycle opens and closes, quits, and
// counter deltas — plus periodic snapshot records capturing full state, so
// a crashed process recovers by restoring the last snapshot and replaying
// only the tail.
//
// # Format
//
// A journal is a directory of segment files named wal-NNNNNN.sagw, reusing
// the logstore segment idiom: a 5-byte header (magic "SAGW" + format
// version) followed by length-prefixed records
//
//	uvarint  payloadLen
//	payload  byte kind · kind-specific encoding (see record.go)
//	uint32   CRC-32 (IEEE) of payload, little endian
//
// A reopened journal always starts a fresh segment, so previously sealed
// files are immutable. Torn tails and CRC-corrupt records are handled at
// recovery by truncating to the last valid record (see Open); segments
// wholly superseded by a later snapshot are pruned.
//
// # Durability
//
// Appends go through a buffered group-commit writer: callers enqueue under
// a short lock and, under FsyncAlways, block on the returned wait until a
// shared fsync covers their record — concurrent committers amortize one
// fsync. FsyncInterval trades the tail of durability for throughput by
// syncing on a timer; FsyncNone leaves persistence to the OS page cache.
// Under every policy the first failed write or fsync poisons the journal
// (see Journal): it must be reopened, recovering what reached disk.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/auditgames/sag/internal/obs"
)

const (
	magic      = "SAGW"
	version    = 1
	headerSize = 5
	// maxRecordBytes guards against corrupt length prefixes on read.
	// Snapshot records carry whole-cycle state, so the cap is generous.
	maxRecordBytes = 64 << 20
)

// DefaultSegmentBytes is the default segment roll size.
const DefaultSegmentBytes = 16 << 20

// Journal metric names.
const (
	// MetricAppendsTotal counts records appended (snapshots included).
	MetricAppendsTotal = "sag_wal_appends_total"
	// MetricFsyncSeconds is a histogram of fsync latencies.
	MetricFsyncSeconds = "sag_wal_fsync_seconds"
	// MetricSnapshotBytes gauges the size of the last snapshot record.
	MetricSnapshotBytes = "sag_snapshot_bytes"
)

// FsyncPolicy selects when appended records are forced to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways group-commits: every Append's wait blocks until an fsync
	// covers the record. A kill -9 loses at most responses, never
	// acknowledged state.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs on a timer (Options.Interval); a crash can lose
	// the records appended since the last tick.
	FsyncInterval
	// FsyncNone never fsyncs explicitly; the OS decides. Fastest, weakest.
	FsyncNone
)

// String returns the flag spelling of the policy.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNone:
		return "none"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

// ParseFsyncPolicy parses the flag spelling ("always", "interval", "none").
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(s) {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "none":
		return FsyncNone, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always|interval|none)", s)
	}
}

// Options configures a Journal.
type Options struct {
	// Fsync selects the durability policy; the zero value is FsyncAlways.
	Fsync FsyncPolicy
	// Interval is the FsyncInterval tick; zero selects 100ms.
	Interval time.Duration
	// SegmentBytes is the roll size; zero selects DefaultSegmentBytes.
	SegmentBytes int64
	// Metrics, when non-nil, receives the sag_wal_* instruments, stamped
	// with Labels (the server passes tenant="<id>").
	Metrics *obs.Registry
	// Labels are extra labels for every instrument.
	Labels []obs.Label
}

func (o *Options) fillDefaults() {
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
}

// ErrClosed is returned by appends to a closed journal.
var ErrClosed = errors.New("wal: journal is closed")

// FaultOp names the segment operation a SetFault hook runs before.
type FaultOp int

const (
	// FaultWrite is a flush of buffered frames into the active segment.
	FaultWrite FaultOp = iota
	// FaultSync is an fsync of the active segment.
	FaultSync
)

// Journal appends records to a journal directory. All methods are safe for
// concurrent use. Lock hierarchy: mu is a leaf — no callback but the
// SetFault test hook runs under it.
//
// The first failed write, flush or fsync poisons the journal: the durable
// cursor stays at the last good sync and every later Append, Snapshot and
// Sync returns the stored error. No retry can prove what a failed fsync
// left on disk; Close and Open again to recover what is really there.
type Journal struct {
	dir  string
	opts Options

	mu      sync.Mutex
	f       *os.File
	bw      *bufio.Writer
	seq     int   // sequence number of the active segment
	written int64 // bytes in the active segment
	closed  bool
	err     error        // the poisoning failure; nil while healthy
	pending []chan error // FsyncAlways waiters for the next sync
	encBuf  []byte

	records        int64  // total valid records (recovered + appended)
	durable        Cursor // position up to which the journal is safely readable
	durableRecords int64  // records within the durable prefix
	subs           map[int]chan struct{}
	nextSubID      int

	// Retention bookkeeping (see retain.go): bytes per sealed segment, the
	// segment holding the newest snapshot (-1 when none), and the live
	// leases (id → pinned segment) that clamp the prune frontier.
	sealedBytes map[int]int64
	snapSeg     int
	leases      map[int]int
	nextLeaseID int
	pruneMu     sync.Mutex // serializes Prune (deletion + accounting)

	fault atomic.Pointer[func(FaultOp) error] // see SetFault

	syncReq chan struct{}
	done    chan struct{}
	wg      sync.WaitGroup

	appends   *obs.Counter
	fsyncSec  *obs.Histogram
	snapBytes *obs.Gauge
}

// Open recovers the journal directory (see Recover) and opens it for
// appending on a fresh segment. The returned Recovery describes what was
// restored — the caller replays Recovery.Snapshot + Recovery.Tail before
// appending new records.
func Open(dir string, opts Options) (*Journal, *Recovery, error) {
	opts.fillDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: creating journal dir: %w", err)
	}
	rec, err := Recover(dir)
	if err != nil {
		return nil, nil, err
	}
	j := &Journal{
		dir:       dir,
		opts:      opts,
		seq:       rec.nextSeq,
		records:   int64(rec.Records),
		subs:      make(map[int]chan struct{}),
		syncReq:   make(chan struct{}, 1),
		done:      make(chan struct{}),
		appends:   opts.Metrics.Counter(MetricAppendsTotal, "Journal records appended.", opts.Labels...),
		fsyncSec:  opts.Metrics.Histogram(MetricFsyncSeconds, "Journal fsync latency in seconds.", obs.DefTimeBuckets, opts.Labels...),
		snapBytes: opts.Metrics.Gauge(MetricSnapshotBytes, "Size of the last snapshot record in bytes.", opts.Labels...),
	}
	// Seed the retention accounting before the fresh active segment exists:
	// everything currently on disk is sealed.
	if err := j.initRetainLocked(); err != nil {
		return nil, nil, err
	}
	// The last recovered frame's segment may hold bytes no fsync confirmed
	// (a crashed or poisoned predecessor's tail): sync it before the durable
	// cursor covers it. Older segments were sealed by a successful fsync.
	if !rec.End.IsZero() {
		t0 := time.Now()
		if err := syncPath(filepath.Join(dir, segmentName(rec.End.Seg))); err != nil {
			return nil, nil, fmt.Errorf("wal: syncing recovered tail: %w", err)
		}
		j.fsyncSec.ObserveSince(t0)
	}
	if err := j.openSegmentLocked(); err != nil {
		return nil, nil, err
	}
	// Everything recovered is now durable, and the fresh segment's header
	// was flushed by openSegmentLocked, so readers (replication streams)
	// may start from the very first retained frame.
	j.durable = Cursor{Seg: j.seq, Off: headerSize}
	j.durableRecords = j.records
	j.wg.Add(1)
	go j.syncer()
	return j, rec, nil
}

// SetFault installs (nil removes) a test hook run before every flush into
// and fsync of the active segment; a non-nil return fails that operation
// as a failing disk would, poisoning the journal.
func (j *Journal) SetFault(fn func(FaultOp) error) { j.fault.Store(&fn) }

// injected runs the fault hook, if any, for op.
func (j *Journal) injected(op FaultOp) error {
	if fn := j.fault.Load(); fn != nil && *fn != nil {
		return (*fn)(op)
	}
	return nil
}

// failLocked poisons the journal with its first failure and returns the
// stored error. The caller holds mu.
func (j *Journal) failLocked(err error) error {
	if j.err == nil {
		j.err = fmt.Errorf("wal: journal failed, reopen to recover: %w", err)
	}
	return j.err
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// segmentName renders the file name of segment n.
func segmentName(n int) string { return fmt.Sprintf("wal-%06d.sagw", n) }

// segments lists the journal's segment files in sequence order.
func segments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: reading journal dir: %w", err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".sagw") {
			out = append(out, filepath.Join(dir, name))
		}
	}
	sort.Strings(out)
	return out, nil
}

// segmentSeq parses the sequence number out of a segment path.
func segmentSeq(path string) (int, error) {
	var n int
	if _, err := fmt.Sscanf(filepath.Base(path), "wal-%06d.sagw", &n); err != nil {
		return 0, fmt.Errorf("wal: unparsable segment name %q", path)
	}
	return n, nil
}

// openSegmentLocked creates the next segment and writes its header. The
// caller holds mu or has exclusive access (Open).
func (j *Journal) openSegmentLocked() error {
	name := filepath.Join(j.dir, segmentName(j.seq))
	f, err := os.OpenFile(name, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	j.f = f
	j.bw = bufio.NewWriterSize(f, 1<<16)
	j.written = headerSize
	// Flush the header so the file is immediately parsable by direct
	// readers (cursor validation, replication streams); the fsync that
	// makes it durable rides on the next group commit. The header fits the
	// fresh buffer, so only the Flush can fail.
	_, _ = j.bw.WriteString(magic)
	_ = j.bw.WriteByte(version)
	if err := j.bw.Flush(); err != nil {
		return err
	}
	return syncPath(j.dir)
}

// syncPath fsyncs the file or directory at path. Syncing the journal
// directory makes segment creation and removal survive a crash.
func syncPath(path string) error {
	f, err := os.Open(path)
	if err == nil {
		err = f.Sync()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	return nil
}

// rollLocked seals the active segment, releasing any group-commit waiters
// (their records are in the sealed file), and opens the next one. The
// caller holds mu.
func (j *Journal) rollLocked() error {
	waiters := j.pending
	j.pending = nil
	err := j.sealLocked()
	for _, ch := range waiters {
		ch <- err
	}
	if err != nil {
		return err
	}
	j.sealedBytes[j.seq] = j.written
	j.seq++
	if err := j.openSegmentLocked(); err != nil {
		return j.failLocked(err)
	}
	return nil
}

// sealLocked fsyncs and closes the active segment, holding mu throughout so
// no frame lands in the buffer of a closing file.
func (j *Journal) sealLocked() error {
	if err := j.syncLocked(true, true); err != nil {
		return err
	}
	if err := j.f.Close(); err != nil {
		return j.failLocked(err)
	}
	return nil
}

// syncLocked flushes, fsyncs when fsync is set (with mu released unless
// hold is, so appends keep flowing), and advances the durable cursor over
// the flushed bytes. Any failure poisons the journal. The caller holds mu.
func (j *Journal) syncLocked(fsync, hold bool) error {
	if j.err != nil {
		return j.err
	}
	if j.closed {
		return ErrClosed
	}
	err := j.injected(FaultWrite)
	if err == nil {
		err = j.bw.Flush()
	}
	if err != nil {
		return j.failLocked(err)
	}
	f := j.f
	end := Cursor{Seg: j.seq, Off: j.written}
	nrecs := j.records
	if fsync {
		if !hold {
			j.mu.Unlock()
		}
		t0 := time.Now()
		err = j.injected(FaultSync)
		if err == nil {
			err = f.Sync()
		}
		j.fsyncSec.ObserveSince(t0)
		if !hold {
			j.mu.Lock()
		}
		// A seal while mu was released closes f under us, after fsyncing
		// everything this flush wrote (or poisoning the journal).
		if err != nil && !errors.Is(err, os.ErrClosed) {
			return j.failLocked(err)
		}
		if j.err != nil {
			return j.err
		}
	}
	j.advanceDurableLocked(end, nrecs)
	return nil
}

// advanceDurableLocked moves the durable cursor forward (never backward —
// a group commit that raced a segment roll may report a stale position) and
// wakes every subscriber. The caller holds mu.
func (j *Journal) advanceDurableLocked(end Cursor, nrecs int64) {
	if !j.durable.Less(end) {
		return
	}
	j.durable = end
	if nrecs > j.durableRecords {
		j.durableRecords = nrecs
	}
	for _, ch := range j.subs {
		select {
		case ch <- struct{}{}:
		default: // subscriber already has a pending wake
		}
	}
}

// DurableCursor returns the position up to which the journal's on-disk
// contents are complete and safely readable: under FsyncAlways/FsyncInterval
// it advances after each fsync, under FsyncNone after each flush.
func (j *Journal) DurableCursor() Cursor {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.durable
}

// DurableRecords returns how many records the durable prefix holds
// (recovered records included).
func (j *Journal) DurableRecords() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.durableRecords
}

// Subscribe returns a channel that receives a (coalesced) signal whenever
// the durable cursor advances, plus a cancel function releasing the
// subscription. Replication streams park on it instead of polling. The
// channel is closed when the journal closes.
func (j *Journal) Subscribe() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	j.mu.Lock()
	id := j.nextSubID
	j.nextSubID++
	if j.closed {
		close(ch)
	} else {
		j.subs[id] = ch
	}
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		delete(j.subs, id)
		j.mu.Unlock()
	}
}

// appendLocked frames and writes one record payload into the active
// segment, rolling first if the segment is full. The caller holds mu.
func (j *Journal) appendLocked(r Record) error {
	if j.err != nil {
		return j.err
	}
	if j.closed {
		return ErrClosed
	}
	if j.written >= j.opts.SegmentBytes {
		if err := j.rollLocked(); err != nil {
			return err
		}
	}
	payload, err := encode(j.encBuf[:0], r)
	if err != nil {
		return err
	}
	j.encBuf = payload[:0]
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(payload)))
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc32.ChecksumIEEE(payload))
	_, err = j.bw.Write(lenBuf[:n])
	if err == nil {
		_, err = j.bw.Write(payload)
	}
	if err == nil {
		_, err = j.bw.Write(crcBuf[:])
	}
	if err != nil {
		return j.failLocked(err)
	}
	j.written += int64(n + len(payload) + 4)
	j.records++
	j.appends.Inc()
	return nil
}

// Append enqueues one record in arrival order. The returned wait is nil
// when the record is already as durable as the policy promises (interval /
// none policies, or an immediate error); otherwise the caller must invoke
// it — outside any lock ordered before Append — and it blocks until a
// group fsync covers the record, returning the sync error if any.
//
// Append itself holds only the journal's short buffer lock, so callers may
// enqueue while holding their own commit lock to preserve commit order,
// then wait after releasing it.
func (j *Journal) Append(r Record) (wait func() error, err error) {
	j.mu.Lock()
	if err := j.appendLocked(r); err != nil {
		j.mu.Unlock()
		return nil, err
	}
	if j.opts.Fsync != FsyncAlways {
		j.mu.Unlock()
		return nil, nil
	}
	ch := make(chan error, 1)
	j.pending = append(j.pending, ch)
	j.mu.Unlock()
	j.kick()
	return func() error { return <-ch }, nil
}

// kick wakes the syncer without blocking (coalescing redundant wakes).
func (j *Journal) kick() {
	select {
	case j.syncReq <- struct{}{}:
	default:
	}
}

// syncer is the group-commit goroutine: it flushes the buffered writer,
// fsyncs once, and releases every waiter that enqueued before the flush.
// Under FsyncInterval it also ticks on the configured period.
func (j *Journal) syncer() {
	defer j.wg.Done()
	var tick *time.Ticker
	var tickC <-chan time.Time
	if j.opts.Fsync == FsyncInterval || j.opts.Fsync == FsyncNone {
		// FsyncNone ticks too: syncOnce then only flushes (no fsync), so
		// buffered records still become readable — and therefore
		// replicable — on a bounded delay.
		tick = time.NewTicker(j.opts.Interval)
		tickC = tick.C
		defer tick.Stop()
	}
	for {
		select {
		case <-j.done:
			return
		case <-j.syncReq:
		case <-tickC:
		}
		j.syncOnce()
	}
}

// syncOnce performs one group commit, when anything was written past the
// durable cursor or anyone waits, and releases the batch's waiters. A
// failed tick nobody waits on still poisons the journal for the next
// Append.
func (j *Journal) syncOnce() {
	j.mu.Lock()
	waiters := j.pending
	j.pending = nil
	var err error
	if len(waiters) > 0 || j.durable.Less(Cursor{Seg: j.seq, Off: j.written}) {
		err = j.syncLocked(j.opts.Fsync != FsyncNone, false)
	}
	j.mu.Unlock()
	for _, ch := range waiters {
		ch <- err
	}
}

// Snapshot appends an owner-encoded full-state snapshot record, forces it
// to stable storage regardless of the fsync policy, and prunes segments
// wholly superseded by it. After Snapshot returns nil, recovery will
// restore from this snapshot (plus any records appended after it).
func (j *Journal) Snapshot(blob []byte) error {
	j.mu.Lock()
	err := j.appendLocked(Record{Kind: KindSnapshot, Snapshot: blob})
	// The segment that holds the snapshot: everything strictly older is
	// re-derivable from it and safe to delete once the snapshot is synced.
	snapSeg := j.seq
	if err == nil {
		err = j.syncLocked(true, false)
	}
	if err == nil && snapSeg > j.snapSeg {
		j.snapSeg = snapSeg
	}
	j.mu.Unlock()
	if err != nil {
		return err
	}
	j.snapBytes.Set(float64(len(blob)))
	// Prune what the snapshot superseded — clamped at the lease floor, so a
	// replication stream still reading old segments is never cut off (see
	// retain.go).
	_, _, err = j.Prune()
	return err
}

// Sync forces buffered records to stable storage (used by tests and by
// explicit flush points under the interval/none policies).
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncLocked(true, false)
}

// Close seals the active segment, stops the syncer, and closes every
// subscription channel. A poisoned journal is closed without a flush and
// returns the stored error. Further appends return ErrClosed. Close is
// idempotent.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	waiters := j.pending
	j.pending = nil
	err := j.sealLocked()
	if j.err != nil {
		_ = j.f.Close()
	}
	j.closed = true
	// The sealed active segment stays on disk: fold it into the sealed-byte
	// accounting so RetainStats keeps describing the directory truthfully.
	j.sealedBytes[j.seq] = j.written
	j.written = 0
	for id, ch := range j.subs {
		close(ch)
		delete(j.subs, id)
	}
	j.mu.Unlock()
	for _, ch := range waiters {
		ch <- err
	}
	close(j.done)
	j.wg.Wait()
	return err
}
