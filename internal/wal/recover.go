package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// ErrCorrupt wraps corruption detected while scanning a journal. Recover
// never returns it — corruption truncates — but sub-scanners use it to
// signal where the valid prefix ends.
var ErrCorrupt = errors.New("wal: corrupt record")

// Recovery is the result of scanning a journal directory: the newest
// snapshot (nil if none survived) and every record appended after it, in
// order. Tail records never include KindSnapshot.
type Recovery struct {
	// Snapshot is the owner-encoded blob of the newest snapshot record,
	// nil when the journal holds none.
	Snapshot []byte
	// Tail holds the records after the snapshot, oldest first.
	Tail []Record
	// Records counts every valid record scanned (snapshots included),
	// not just the post-snapshot tail.
	Records int
	// Segments counts the segment files scanned.
	Segments int
	// Truncated reports that a torn or corrupt tail was cut off.
	Truncated bool
	// TruncatedSegment/TruncatedOffset locate the cut: the named segment
	// was truncated to the offset, and any later segments were deleted.
	TruncatedSegment string
	TruncatedOffset  int64
	// End is the cursor just past the last valid record — the position a
	// replication client resumes from. Zero when the journal is empty.
	End Cursor
	// LastCRC is the stored checksum of the record ending at End (zero when
	// the journal is empty); the resume handshake presents it so the source
	// can prove the histories match before streaming.
	LastCRC uint32
	nextSeq int
}

// Recover scans dir's segments in order and reconstructs the journal's
// logical state. Corruption — a torn final write, a CRC mismatch, a bad
// header — does not fail recovery: the affected segment is truncated to
// its last valid record, every later segment is deleted (records after a
// tear are not trustworthy even if individually well-formed), and the scan
// result reflects only the valid prefix. Open calls this before appending.
func Recover(dir string) (*Recovery, error) {
	segs, err := segments(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return &Recovery{}, nil
		}
		return nil, err
	}
	rec := &Recovery{Segments: len(segs)}
	for i, seg := range segs {
		n, err := segmentSeq(seg)
		if err != nil {
			return nil, err
		}
		if n >= rec.nextSeq {
			rec.nextSeq = n + 1
		}
		validEnd, scanErr := scanSegment(seg, rec)
		if validEnd > headerSize {
			rec.End = Cursor{Seg: n, Off: validEnd}
		}
		if scanErr == nil {
			continue
		}
		if !errors.Is(scanErr, ErrCorrupt) {
			return nil, scanErr
		}
		// Corruption: cut this segment back to its valid prefix and drop
		// everything after it.
		rec.Truncated = true
		rec.TruncatedSegment = seg
		rec.TruncatedOffset = validEnd
		if validEnd <= headerSize {
			// Nothing valid in the file (even the header may be bad);
			// remove it entirely.
			if err := os.Remove(seg); err != nil {
				return nil, fmt.Errorf("wal: removing corrupt segment: %w", err)
			}
		} else if err := os.Truncate(seg, validEnd); err != nil {
			return nil, fmt.Errorf("wal: truncating corrupt segment: %w", err)
		}
		for _, later := range segs[i+1:] {
			if err := os.Remove(later); err != nil {
				return nil, fmt.Errorf("wal: removing post-corruption segment: %w", err)
			}
		}
		if err := syncPath(dir); err != nil {
			return nil, err
		}
		break
	}
	return rec, nil
}

// scanSegment reads one segment, folding each valid record into rec, and
// returns the byte offset just past the last valid record. A corrupt or
// torn record yields an error wrapping ErrCorrupt; the offset then marks
// where the caller should truncate.
func scanSegment(path string, rec *Recovery) (validEnd int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("wal: opening segment: %w", err)
	}
	defer f.Close()

	data, err := io.ReadAll(f)
	if err != nil {
		return 0, fmt.Errorf("wal: reading segment: %w", err)
	}
	if len(data) < headerSize || string(data[:4]) != magic || data[4] != version {
		return 0, fmt.Errorf("%w: bad header in %s", ErrCorrupt, path)
	}
	off := int64(headerSize)
	buf := data[headerSize:]
	for len(buf) > 0 {
		plen, n := binary.Uvarint(buf)
		if n <= 0 || plen > maxRecordBytes {
			return off, fmt.Errorf("%w: bad length prefix in %s@%d", ErrCorrupt, path, off)
		}
		total := int64(n) + int64(plen) + 4
		if int64(len(buf)) < total {
			return off, fmt.Errorf("%w: torn record in %s@%d", ErrCorrupt, path, off)
		}
		payload := buf[n : int64(n)+int64(plen)]
		want := binary.LittleEndian.Uint32(buf[int64(n)+int64(plen) : total])
		if crc32.ChecksumIEEE(payload) != want {
			return off, fmt.Errorf("%w: crc mismatch in %s@%d", ErrCorrupt, path, off)
		}
		r, derr := DecodeRecord(payload)
		if derr != nil {
			return off, fmt.Errorf("%w: %v in %s@%d", ErrCorrupt, derr, path, off)
		}
		rec.fold(r)
		rec.LastCRC = want
		off += total
		buf = buf[total:]
	}
	return off, nil
}

// fold applies one valid record to the recovery state: a snapshot resets
// the tail (everything before it is superseded), anything else extends it.
func (rec *Recovery) fold(r Record) {
	rec.Records++
	if r.Kind == KindSnapshot {
		rec.Snapshot = r.Snapshot
		rec.Tail = rec.Tail[:0]
		return
	}
	rec.Tail = append(rec.Tail, r)
}
