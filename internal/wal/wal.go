// Package wal implements an append-only, CRC-framed, versioned,
// segmented write-ahead log — the durability layer under the cluster
// coordinator's job/fleet state (internal/cluster.Store).
//
// Layout: a directory of numbered segment files
//
//	wal-00000001.log, wal-00000002.log, ...
//
// each beginning with an 10-byte header
//
//	magic "BUMPWAL\x00" (8B) | format version (u16, little-endian)
//
// followed by a sequence of framed records
//
//	payload length (u32) | CRC32-IEEE of payload (u32) | payload
//
// Payloads are opaque to this package; the owner layers its own record
// typing (and its checkpoint/reset convention) on top.
//
// The format follows the internal/snapshot codec's canons: little-
// endian, explicit version in the header (readers reject any other
// version — logs are regenerable, there is no migration path), CRC
// verified before a payload is handed out, and every length validated
// against the bytes actually present so corrupt input yields an error,
// never a panic or an unbounded allocation.
//
// Crash tolerance: a torn or truncated tail — the expected artifact of
// dying mid-write — is healed on Open by truncating the final segment
// back to its last complete, CRC-valid record. Corruption anywhere
// *before* the tail is real data loss and surfaces as an error.
// Compact starts a fresh segment with a caller-supplied checkpoint
// record and deletes the older segments, bounding replay work.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

const (
	// FormatVersion identifies the WAL byte layout. Bump it on any
	// change to the segment header or record framing.
	FormatVersion = 1

	magic     = "BUMPWAL\x00"
	headerLen = len(magic) + 2
	frameLen  = 8 // u32 length + u32 CRC
)

// Options tunes a Log. Zero values pick production defaults.
type Options struct {
	// SegmentBytes is the rotation threshold: an append that lands on a
	// segment already this large opens the next segment first
	// (default 4MB).
	SegmentBytes int64
	// NoSync skips the per-append fsync. Crash durability then depends
	// on the OS page cache; the format stays torn-tail-safe either way.
	NoSync bool
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// Stats snapshots a log's shape for observability (a coordinator
// publishes it as the bump_wal_* series on /metrics).
type Stats struct {
	// Segments is the live segment-file count; SizeBytes their total
	// size.
	Segments  int
	SizeBytes int64
	// Replayed counts records delivered by Open's replay; Appended
	// counts records written since Open.
	Replayed uint64
	Appended uint64
	// TornTail reports that Open healed a torn or truncated final
	// record by truncating the last segment.
	TornTail bool
	// Compactions counts Compact calls since Open; LastCompaction is
	// the wall-clock time of the latest (zero when none).
	Compactions    uint64
	LastCompaction time.Time
}

// Log is an open write-ahead log. Methods are safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex
	f       *os.File
	seg     uint64 // index of the open (last) segment
	segSize int64
	segs    []uint64 // live segment indices, ascending
	stats   Stats
	closed  bool
}

func segName(idx uint64) string { return fmt.Sprintf("wal-%08d.log", idx) }

// Open opens (creating if necessary) the log in dir, replaying every
// surviving record to replay in write order before returning. A torn or
// truncated tail in the final segment is truncated away (replay sees
// records up to the last complete one); corruption in any earlier
// segment is an error. replay may be nil to skip delivery (records are
// still validated).
func Open(dir string, opts Options, replay func(rec []byte) error) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []uint64
	for _, e := range entries {
		var idx uint64
		if n, err := fmt.Sscanf(e.Name(), "wal-%d.log", &idx); n == 1 && err == nil && e.Name() == segName(idx) {
			segs = append(segs, idx)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })

	l := &Log{dir: dir, opts: opts, segs: segs}
	for i, idx := range segs {
		last := i == len(segs)-1
		size, err := l.replaySegment(idx, last, replay)
		if err != nil {
			return nil, err
		}
		if last {
			l.seg, l.segSize = idx, size
		}
		l.stats.SizeBytes += size
	}
	l.stats.Segments = len(segs)

	if len(segs) == 0 {
		if err := l.openSegmentLocked(1); err != nil {
			return nil, err
		}
	} else {
		f, err := os.OpenFile(filepath.Join(dir, segName(l.seg)), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.f = f
	}
	return l, nil
}

// replaySegment validates one segment and delivers its records. For the
// final segment a torn tail is healed by truncating the file to the
// last complete record; for earlier segments any damage is fatal.
// Returns the segment's (post-truncation) size.
func (l *Log) replaySegment(idx uint64, last bool, replay func([]byte) error) (int64, error) {
	path := filepath.Join(l.dir, segName(idx))
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	torn := func(off int, why string) (int64, error) {
		if !last {
			return 0, fmt.Errorf("wal: segment %s: %s at offset %d (not the final segment — records lost)", segName(idx), why, off)
		}
		l.stats.TornTail = true
		if err := os.Truncate(path, int64(off)); err != nil {
			return 0, fmt.Errorf("wal: heal torn tail of %s: %w", segName(idx), err)
		}
		return int64(off), nil
	}
	if len(data) < headerLen {
		return torn(0, "short header")
	}
	if string(data[:len(magic)]) != magic {
		return 0, fmt.Errorf("wal: segment %s: bad magic", segName(idx))
	}
	if v := binary.LittleEndian.Uint16(data[len(magic):]); v != FormatVersion {
		return 0, fmt.Errorf("wal: segment %s: format version %d, this build reads %d", segName(idx), v, FormatVersion)
	}
	off := headerLen
	for off < len(data) {
		if len(data)-off < frameLen {
			return torn(off, "torn record frame")
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		wantCRC := binary.LittleEndian.Uint32(data[off+4:])
		if len(data)-off-frameLen < n {
			return torn(off, "truncated record body")
		}
		payload := data[off+frameLen : off+frameLen+n]
		if crc32.ChecksumIEEE(payload) != wantCRC {
			return torn(off, "record CRC mismatch")
		}
		if replay != nil {
			if err := replay(payload); err != nil {
				return 0, fmt.Errorf("wal: replay record at %s+%d: %w", segName(idx), off, err)
			}
		}
		l.stats.Replayed++
		off += frameLen + n
	}
	return int64(off), nil
}

// openSegmentLocked creates segment idx, writes its header, and makes
// it the append target.
func (l *Log) openSegmentLocked(idx uint64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segName(idx)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var hdr [headerLen]byte
	copy(hdr[:], magic)
	binary.LittleEndian.PutUint16(hdr[len(magic):], FormatVersion)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if l.f != nil {
		l.f.Close()
	}
	l.f = f
	l.seg = idx
	l.segSize = int64(headerLen)
	l.segs = append(l.segs, idx)
	l.stats.Segments = len(l.segs)
	l.stats.SizeBytes += int64(headerLen)
	return nil
}

// Append durably writes one record. The record is framed, written, and
// (unless NoSync) fsynced before Append returns; rotation to a new
// segment happens first when the current one is past SegmentBytes.
func (l *Log) Append(rec []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	if l.segSize >= l.opts.SegmentBytes {
		if err := l.openSegmentLocked(l.seg + 1); err != nil {
			return err
		}
	}
	return l.appendLocked(rec)
}

func (l *Log) appendLocked(rec []byte) error {
	buf := make([]byte, frameLen+len(rec))
	binary.LittleEndian.PutUint32(buf, uint32(len(rec)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(rec))
	copy(buf[frameLen:], rec)
	if _, err := l.f.Write(buf); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	if !l.opts.NoSync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: sync: %w", err)
		}
	}
	l.segSize += int64(len(buf))
	l.stats.SizeBytes += int64(len(buf))
	l.stats.Appended++
	return nil
}

// Compact bounds replay work: it starts a fresh segment whose first
// record is checkpoint (the owner's full-state record; replay treats it
// as a reset) and deletes every older segment. A crash between the
// checkpoint write and the deletions is safe — replay simply walks the
// stale prefix before hitting the checkpoint record that resets it.
func (l *Log) Compact(checkpoint []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	if err := l.openSegmentLocked(l.seg + 1); err != nil {
		return err
	}
	if err := l.appendLocked(checkpoint); err != nil {
		return err
	}
	// Drop every segment but the one just opened.
	keep := l.segs[len(l.segs)-1]
	for _, idx := range l.segs[:len(l.segs)-1] {
		path := filepath.Join(l.dir, segName(idx))
		if fi, err := os.Stat(path); err == nil {
			l.stats.SizeBytes -= fi.Size()
		}
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("wal: compact: %w", err)
		}
	}
	l.segs = []uint64{keep}
	l.stats.Segments = 1
	l.stats.Compactions++
	l.stats.LastCompaction = time.Now()
	return nil
}

// Stats snapshots the log's shape.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Close syncs and closes the active segment. Further appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if !l.opts.NoSync {
		l.f.Sync()
	}
	return l.f.Close()
}
