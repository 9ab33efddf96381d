package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/auditgames/sag/internal/wal"
)

// Source is the primary-side view of one tenant's journal that a replication
// stream reads from. *wal.Journal satisfies it.
type Source interface {
	// Dir is the journal directory holding the segment files.
	Dir() string
	// DurableCursor is the position up to which disk contents are complete
	// and safe to ship.
	DurableCursor() wal.Cursor
	// DurableRecords counts records at or before DurableCursor.
	DurableRecords() int64
	// Subscribe returns a channel that receives (coalesced) notifications
	// whenever the durable cursor advances, plus a cancel func. The channel
	// is closed when the source stops for good.
	Subscribe() (<-chan struct{}, func())
}

// Leaser is optionally implemented by Sources whose segments can be pruned
// while a stream is reading them (*wal.Journal implements it). A stream
// over such a source holds a retention lease for its lifetime: acquired at
// the negotiated resume cursor, advanced as frames ship and on every
// heartbeat, released when the stream ends — so compaction prunes only what
// every connected follower is already past, and a live stream never dies
// with ErrCursorGone under a snapshot-then-prune.
type Leaser interface {
	AcquireLease(cur wal.Cursor) *wal.Lease
}

// StreamConfig configures one ServeStream call.
type StreamConfig struct {
	// Source is the tenant journal to ship. Required.
	Source Source
	// Heartbeat is the idle heartbeat period (DefaultHeartbeat when zero).
	Heartbeat time.Duration
	// Logf receives diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// ServeStream handles one GET /v1/replicate?tenant=... request: it validates
// the follower's resume cursor against the journal, then streams record
// frames and heartbeats until the client disconnects. It never returns an
// error to the caller — protocol errors become HTTP statuses, transport
// errors just end the stream. The handler must be mounted outside any
// buffering middleware (http.TimeoutHandler): the response is unbounded.
func ServeStream(w http.ResponseWriter, r *http.Request, cfg StreamConfig) {
	src := cfg.Source
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	hb := cfg.Heartbeat
	if hb <= 0 {
		hb = DefaultHeartbeat
	}

	cur, applyFrom, ok := negotiate(w, r, src, logf)
	if !ok {
		return
	}

	// Pin the journal suffix this follower still needs. The lease lives
	// exactly as long as the stream: a disconnected follower pins nothing
	// (its next connect renegotiates, and a prune in the gap legitimately
	// demands a re-seed), but a connected one is never pruned under.
	var lease *wal.Lease
	if lr, ok := src.(Leaser); ok {
		lease = lr.AcquireLease(cur)
	}
	defer lease.Release()

	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(HeaderApplyFrom, applyFrom.String())
	w.WriteHeader(http.StatusOK)

	// The server's global WriteTimeout would kill a healthy long-lived
	// stream; take over deadline management and re-arm it per write so only
	// a stuck peer is cut off.
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Time{})

	st := &streamer{w: w, rc: rc}
	sub, cancel := src.Subscribe()
	defer cancel()
	ticker := time.NewTicker(hb)
	defer ticker.Stop()

	for {
		durable := src.DurableCursor()
		if cur.Less(durable) {
			next, err := wal.ReadFrames(src.Dir(), cur, durable, st.record)
			if err != nil {
				// Pruned under us, torn read, or the peer went away: either
				// way this stream is done; the client reconnects with its
				// cursor and renegotiates (a prune then answers re-seed).
				logf("replicate: stream ended at %v: %v", next, err)
				return
			}
			cur = next
			lease.Advance(cur) // shipped frames no longer need pinning
			if st.heartbeat(src) != nil {
				return
			}
			continue
		}
		select {
		case <-r.Context().Done():
			return
		case _, open := <-sub:
			if !open {
				// The journal closed (its tenant was unloaded): end the
				// stream so the follower reconnects to the instance that
				// reloads from the same directory.
				return
			}
		case <-ticker.C:
			// Heartbeats double as lease renewal: an idle-but-alive stream
			// keeps its pin current at the position it would resume from.
			lease.Advance(cur)
			if st.heartbeat(src) != nil {
				return
			}
		}
	}
}

// negotiate parses and validates the client's resume cursor. It writes the
// error response itself when the handshake fails (ok=false). For a valid
// resume, applyFrom is the resume cursor itself; for a fresh seed it is the
// newest snapshot position (or the journal's oldest frame when no snapshot
// exists yet).
func negotiate(w http.ResponseWriter, r *http.Request, src Source, logf func(string, ...any)) (cur, applyFrom wal.Cursor, ok bool) {
	q := r.URL.Query()
	if q.Has("seg") {
		cur, err := parseResume(q.Get("seg"), q.Get("off"), q.Get("crc"), src)
		if err != nil {
			if errors.Is(err, wal.ErrCursorGone) || errors.Is(err, wal.ErrCursorInvalid) {
				logf("replicate: cursor rejected, demanding re-seed: %v", err)
				w.Header().Set(HeaderReseed, "1")
				http.Error(w, err.Error(), http.StatusConflict)
			} else {
				http.Error(w, err.Error(), http.StatusBadRequest)
			}
			return wal.Cursor{}, wal.Cursor{}, false
		}
		return cur, cur, true
	}
	start, has, err := wal.OldestCursor(src.Dir())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return wal.Cursor{}, wal.Cursor{}, false
	}
	if !has {
		// Empty journal: start at the durable cursor (the active segment's
		// header) and apply everything that arrives.
		start = src.DurableCursor()
		return start, start, true
	}
	applyFrom = start
	if snap, found, serr := wal.LatestSnapshotCursor(src.Dir()); serr == nil && found {
		applyFrom = snap
	}
	return start, applyFrom, true
}

// parseResume decodes and validates a resume cursor's query parameters.
func parseResume(seg, off, crc string, src Source) (wal.Cursor, error) {
	cur, err := wal.ParseCursor(seg + "/" + off)
	if err != nil {
		return wal.Cursor{}, err
	}
	last, err := parseUint32(crc)
	if err != nil {
		return wal.Cursor{}, fmt.Errorf("wal: malformed cursor crc %q", crc)
	}
	durable := src.DurableCursor()
	if durable.Less(cur) {
		return wal.Cursor{}, fmt.Errorf("%w: cursor %v ahead of durable %v", wal.ErrCursorInvalid, cur, durable)
	}
	if err := wal.ValidateCursor(src.Dir(), cur, last); err != nil {
		return wal.Cursor{}, err
	}
	return cur, nil
}

func parseUint32(s string) (uint32, error) {
	var v uint64
	if _, err := fmt.Sscanf(s, "%d", &v); err != nil || v > 1<<32-1 {
		return 0, fmt.Errorf("not a uint32: %q", s)
	}
	return uint32(v), nil
}

// streamer writes wire frames with a per-write deadline and explicit flushes.
type streamer struct {
	w   http.ResponseWriter
	rc  *http.ResponseController
	buf []byte
}

// record emits one 'r' frame. It satisfies wal.ReadFrames' callback; the raw
// bytes are copied into the response before the call returns.
func (st *streamer) record(fr wal.Frame) error {
	st.buf = st.buf[:0]
	st.buf = append(st.buf, frameRecord)
	st.buf = binary.AppendUvarint(st.buf, uint64(fr.Seg))
	st.buf = binary.AppendUvarint(st.buf, uint64(fr.Off))
	st.buf = binary.AppendUvarint(st.buf, uint64(len(fr.Raw)))
	st.buf = append(st.buf, fr.Raw...)
	return st.write(st.buf, false)
}

// heartbeat emits one 'h' frame carrying the source's durable position and
// record count, then flushes so the follower sees it promptly.
func (st *streamer) heartbeat(src Source) error {
	durable := src.DurableCursor()
	st.buf = st.buf[:0]
	st.buf = append(st.buf, frameHeartbeat)
	st.buf = binary.AppendUvarint(st.buf, uint64(durable.Seg))
	st.buf = binary.AppendUvarint(st.buf, uint64(durable.Off))
	st.buf = binary.AppendUvarint(st.buf, uint64(src.DurableRecords()))
	return st.write(st.buf, true)
}

func (st *streamer) write(b []byte, flush bool) error {
	_ = st.rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
	if _, err := st.w.Write(b); err != nil {
		return err
	}
	if flush {
		return st.rc.Flush()
	}
	return nil
}
