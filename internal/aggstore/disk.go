package aggstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// Disk is the persistent store backend: a single-map store whose every
// mutation is first appended to an on-disk write-ahead log, with periodic
// snapshot compaction. Reopening the same directory replays the newest
// loadable snapshot plus the log's valid prefix, reconstructing the
// resident state — per-worker folds, salt-group indexes, last-push stamps
// — exactly as it was at the last durable record, so an aggregator
// restart resumes delta ingestion where the acknowledged pushes left off.
//
// Layout (one Disk instance owns a directory at a time):
//
//	wal-<seq>.log    append-only mutation log: length-prefixed,
//	                 CRC32-sealed records; a torn tail (crash mid-append)
//	                 is detected and truncated on recovery
//	snap-<seq>.bin   full-state snapshot of everything logged before
//	                 wal-<seq>; written to a temp file, synced, renamed —
//	                 a crash mid-compaction leaves the previous snapshot
//	                 and every WAL segment since it intact
//
// Compaction is split so pushes never wait on the snapshot image. Under
// the mutation lock it only rotates: the active segment wal-<n> is flushed
// and synced, wal-<n+1> takes over, and the resident state is captured by
// pointer (a stored State is immutable). A background writer then streams
// snap-<n+1> to disk and only afterwards retires snap-<n> and wal-<n>, so
// every segment but the newest is complete and only the newest can end in
// a torn record. Recovery replays every segment at or after the newest
// valid snapshot; a crash mid-compaction recovers from snap-<n> + wal-<n>
// + wal-<n+1>.
//
// State records carry the same wire full-frame encoding worker exports
// use, so anything resident (which the read path already requires to be a
// valid Snapshot) round-trips bit-identically.
//
// Durability is governed by DiskConfig.Fsync: FsyncAlways syncs every
// record before the mutation returns (a state acknowledged to a worker
// survives kill -9), FsyncInterval batches syncs on a timer, FsyncNone
// syncs only at compaction and Close. Mutations are serialized by one
// mutex (the WAL is inherently serial), snapshot writers by another;
// reads go straight to the resident in-memory map and run in parallel as
// usual. A write error does not take the store down — it keeps serving
// from memory — but is sticky and surfaced by Err and Close so the
// operator layer can report lost durability.
type Disk struct {
	mem          *Map
	dir          string
	mode         string
	compactBytes int64

	mu       sync.Mutex
	seq      uint64 // active WAL sequence
	snapSeq  uint64 // newest durable snapshot (0 = none)
	wal      *os.File
	bw       *bufio.Writer // nil in FsyncAlways mode
	walBytes int64
	scratch  []byte
	werr     error
	closed   bool
	stop     chan struct{} // interval flusher lifecycle (nil otherwise)
	done     chan struct{}

	// snapMu is held by the one snapshot writer in flight, from rotation
	// until its superseded files are retired. Lock order is snapMu before
	// mu; mutators holding mu only TryLock it.
	snapMu sync.Mutex
	// Compaction counters (see CompactionStats).
	compactions, compactNanos, compactMaxNanos, snapBytes atomic.Int64
	// compactHook, when set, is called by the snapshot writer after each
	// named step ("rotated", "tmp-synced"); tests park the writer in it.
	compactHook func(step string)
}

// Fsync modes for DiskConfig.Fsync.
const (
	FsyncAlways   = "always"
	FsyncInterval = "interval"
	FsyncNone     = "none"
)

const (
	defaultFsyncInterval = 100 * time.Millisecond
	defaultCompactBytes  = 8 << 20
	// maxWalRecord bounds a record's claimed length during recovery (a
	// frame payload is capped at 1 GiB by the wire format; the record adds
	// only the op byte and the worker name).
	maxWalRecord = 1<<30 + 1<<20
)

// WAL record ops.
const (
	recPut byte = iota + 1
	recReplaceGroup
	recBootstrapSub
	recDrop
	recTouch
	recDropWorker
)

var (
	snapMagic = []byte("QAGS")
	snapEnd   = []byte("QAGE")
)

// DiskConfig parameterizes OpenDisk.
type DiskConfig struct {
	// Dir is the storage directory, created if needed. One Disk instance
	// must own it at a time.
	Dir string
	// Fsync selects the WAL durability discipline: FsyncAlways (the
	// default — every record synced before the mutation returns),
	// FsyncInterval (buffered appends synced every FsyncInterval), or
	// FsyncNone (buffered, synced only at compaction and Close).
	Fsync string
	// FsyncInterval is the sync cadence for FsyncInterval mode
	// (<= 0 picks the 100ms default).
	FsyncInterval time.Duration
	// CompactBytes triggers snapshot compaction once the active WAL
	// exceeds this many bytes (0 picks the 8 MiB default; negative
	// disables compaction).
	CompactBytes int64
}

// OpenDisk opens (creating or recovering) a persistent store in cfg.Dir.
func OpenDisk(cfg DiskConfig) (*Disk, error) {
	if cfg.Dir == "" {
		return nil, errors.New("aggstore: disk store needs a directory")
	}
	mode := cfg.Fsync
	if mode == "" {
		mode = FsyncAlways
	}
	switch mode {
	case FsyncAlways, FsyncInterval, FsyncNone:
	default:
		return nil, fmt.Errorf("aggstore: unknown fsync mode %q (always | interval | none)", cfg.Fsync)
	}
	interval := cfg.FsyncInterval
	if interval <= 0 {
		interval = defaultFsyncInterval
	}
	compact := cfg.CompactBytes
	if compact == 0 {
		compact = defaultCompactBytes
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("aggstore: disk store: %w", err)
	}
	d := &Disk{mem: NewMap(), dir: cfg.Dir, mode: mode, compactBytes: compact}
	if err := d.recover(); err != nil {
		return nil, fmt.Errorf("aggstore: disk store %s: %w", cfg.Dir, err)
	}
	if mode == FsyncInterval {
		d.stop, d.done = make(chan struct{}), make(chan struct{})
		go d.flushLoop(interval)
	}
	return d, nil
}

func (d *Disk) Kind() string { return "disk" }

// Err returns the sticky write error, if any: after a failed WAL append,
// snapshot write or sync the store keeps serving from memory, but
// durability of subsequent mutations is gone until the store is reopened.
func (d *Disk) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.werr
}

// Close waits for an in-flight compaction, then flushes and closes the
// WAL. The store must not be used after Close; reopening the directory
// recovers everything durable.
func (d *Disk) Close() error {
	if d.stop != nil {
		close(d.stop)
		<-d.done
		d.stop = nil
	}
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return d.werr
	}
	d.closed = true
	if err := d.flushSync(); err != nil && d.werr == nil {
		d.werr = err
	}
	if err := d.wal.Close(); err != nil && d.werr == nil {
		d.werr = err
	}
	return d.werr
}

// Compact forces a snapshot compaction (tests and operational tooling;
// the store compacts itself in the background when the WAL outgrows
// CompactBytes). It is synchronous: it waits for any in-flight compaction,
// then compacts and returns once the new snapshot is durable.
func (d *Disk) Compact() error {
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return errors.New("aggstore: disk store is closed")
	}
	if d.werr != nil {
		err := d.werr
		d.mu.Unlock()
		return err
	}
	c, err := d.rotateLocked()
	if err != nil {
		d.werr = err
	}
	d.mu.Unlock()
	if err != nil {
		return err
	}
	return d.writeCompaction(c)
}

// CompactionStats reports the completed compactions' counters.
func (d *Disk) CompactionStats() CompactionStats {
	return CompactionStats{
		Count:             d.compactions.Load(),
		TotalNanos:        d.compactNanos.Load(),
		MaxNanos:          d.compactMaxNanos.Load(),
		LastSnapshotBytes: d.snapBytes.Load(),
	}
}

// --- reads: straight to the resident map ---

func (d *Disk) Get(worker, name string) (*State, bool) { return d.mem.Get(worker, name) }
func (d *Disk) Group(worker, base string) []NamedState { return d.mem.Group(worker, base) }
func (d *Disk) WorkerNames(worker string) []string     { return d.mem.WorkerNames(worker) }
func (d *Disk) NamesMatching(worker string, match func(base string) bool) []NamedState {
	return d.mem.NamesMatching(worker, match)
}
func (d *Disk) Workers(stale func(time.Time) bool) []string {
	return d.mem.Workers(stale)
}
func (d *Disk) WorkerCount() int            { return d.mem.WorkerCount() }
func (d *Disk) KeyCount() int               { return d.mem.KeyCount() }
func (d *Disk) KeyGen(base string) uint64   { return d.mem.KeyGen(base) }
func (d *Disk) LockWaitNanos() (r, w int64) { return d.mem.LockWaitNanos() }

// --- mutations: WAL first, then the resident map, one lock ---

func (d *Disk) Put(worker, name string, st *State) {
	d.mu.Lock()
	d.logState(recPut, worker, name, st)
	d.mem.Put(worker, name, st)
	d.maybeCompact()
	d.mu.Unlock()
}

func (d *Disk) ReplaceGroup(worker, name string, st *State) {
	d.mu.Lock()
	d.logState(recReplaceGroup, worker, name, st)
	d.mem.ReplaceGroup(worker, name, st)
	d.maybeCompact()
	d.mu.Unlock()
}

func (d *Disk) BootstrapSub(worker, name string, st *State) {
	d.mu.Lock()
	d.logState(recBootstrapSub, worker, name, st)
	d.mem.BootstrapSub(worker, name, st)
	d.maybeCompact()
	d.mu.Unlock()
}

func (d *Disk) Drop(worker, name string) bool {
	d.mu.Lock()
	body := append(d.scratch[:0], recDrop)
	body = appendLenPrefixed(body, worker)
	body = appendLenPrefixed(body, name)
	d.appendRecord(body)
	dropped := d.mem.Drop(worker, name)
	d.maybeCompact()
	d.mu.Unlock()
	return dropped
}

func (d *Disk) Touch(worker string, t time.Time) {
	d.mu.Lock()
	body := append(d.scratch[:0], recTouch)
	body = appendLenPrefixed(body, worker)
	var ts [8]byte
	binary.LittleEndian.PutUint64(ts[:], uint64(t.UnixNano()))
	body = append(body, ts[:]...)
	d.appendRecord(body)
	d.mem.Touch(worker, t)
	d.mu.Unlock()
}

func (d *Disk) DropWorker(worker string) bool {
	d.mu.Lock()
	body := append(d.scratch[:0], recDropWorker)
	body = appendLenPrefixed(body, worker)
	d.appendRecord(body)
	dropped := d.mem.DropWorker(worker)
	d.mu.Unlock()
	return dropped
}

func (d *Disk) SweepWorkers(stale func(time.Time) bool) int {
	if stale == nil {
		return 0
	}
	d.mu.Lock()
	// Log the individual drops, not the predicate: replay must reproduce
	// exactly the workers THIS sweep retired, whatever clock it runs under.
	live := make(map[string]struct{})
	for _, id := range d.mem.Workers(stale) {
		live[id] = struct{}{}
	}
	dropped := 0
	for _, id := range d.mem.Workers(nil) {
		if _, ok := live[id]; ok {
			continue
		}
		body := append(d.scratch[:0], recDropWorker)
		body = appendLenPrefixed(body, id)
		d.appendRecord(body)
		d.mem.DropWorker(id)
		dropped++
	}
	d.mu.Unlock()
	return dropped
}

// logState appends one state-bearing record: op, worker, then the state
// as a wire full frame keyed by the internal name (so salted sub-stream
// names replay into the same salt-group slots). Caller holds d.mu.
func (d *Disk) logState(op byte, worker, name string, st *State) {
	sn, err := core.NewSnapshot(st.Parts)
	if err != nil {
		// Everything the aggregator stores must be a valid snapshot (the
		// read path folds through core.NewSnapshot); refusing to encode a
		// contract-violating state beats persisting garbage.
		if d.werr == nil {
			d.werr = fmt.Errorf("aggstore: disk: state %q/%q not encodable: %w", worker, name, err)
		}
		return
	}
	body := append(d.scratch[:0], op)
	body = appendLenPrefixed(body, worker)
	body = wire.AppendFrame(body, name, sn)
	d.appendRecord(body)
}

// appendRecord seals body with a length prefix and CRC32 and appends it to
// the WAL (syncing in FsyncAlways mode). Caller holds d.mu. body may
// alias d.scratch; the grown buffer is kept for reuse.
func (d *Disk) appendRecord(body []byte) {
	defer func() { d.scratch = body[:0] }()
	if d.werr != nil || d.closed {
		return
	}
	var hdr, crc [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(body)))
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(body))
	w := io.Writer(d.wal)
	if d.bw != nil {
		w = d.bw
	}
	if _, err := w.Write(hdr[:]); err != nil {
		d.werr = err
		return
	}
	if _, err := w.Write(body); err != nil {
		d.werr = err
		return
	}
	if _, err := w.Write(crc[:]); err != nil {
		d.werr = err
		return
	}
	d.walBytes += int64(8 + len(body))
	if d.mode == FsyncAlways {
		if err := d.wal.Sync(); err != nil {
			d.werr = err
		}
	}
}

// maybeCompact starts a background compaction once the active WAL has
// outgrown CompactBytes, unless one is already in flight. Caller holds
// d.mu.
func (d *Disk) maybeCompact() {
	if d.compactBytes <= 0 || d.walBytes < d.compactBytes || d.werr != nil || d.closed {
		return
	}
	if !d.snapMu.TryLock() {
		return
	}
	c, err := d.rotateLocked()
	if err != nil {
		d.werr = err
		d.snapMu.Unlock()
		return
	}
	go func() {
		defer d.snapMu.Unlock()
		d.writeCompaction(c) // a failure latches into werr
	}()
}

// compaction is one snapshot in the making: its sequence, when it started
// and the resident state captured at rotation.
type compaction struct {
	seq     uint64
	start   time.Time
	workers []diskWorkerDump
}

// rotateLocked is the lock-held half of compaction. It makes the active
// segment durable, starts wal-(seq+1) for every later mutation, and
// captures the resident state those mutations apply on top of. Caller
// holds d.mu and d.snapMu.
func (d *Disk) rotateLocked() (*compaction, error) {
	start := time.Now()
	// Only the newest segment may end torn: wal-seq must be whole before
	// wal-(seq+1) exists, since recovery replays both until the new
	// snapshot lands.
	if err := d.flushSync(); err != nil {
		return nil, err
	}
	newSeq := d.seq + 1
	f, err := os.OpenFile(d.walPath(newSeq), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if err := d.syncDir(); err != nil {
		f.Close()
		return nil, err
	}
	d.wal.Close() // synced above: a close error loses nothing
	d.wal, d.walBytes, d.seq = f, 0, newSeq
	if d.bw != nil {
		d.bw.Reset(f)
	}
	return &compaction{seq: newSeq, start: start, workers: d.mem.dump()}, nil
}

// writeCompaction is the half that runs without d.mu: it writes
// snap-<seq> from the capture, then advances snapSeq and retires the
// files the snapshot supersedes. A failure latches like any write error.
// Caller holds d.snapMu.
func (d *Disk) writeCompaction(c *compaction) error {
	d.hook("rotated")
	n, err := d.writeSnapshot(c.seq, c.workers)
	d.mu.Lock()
	if err == nil {
		d.snapSeq = c.seq
	} else if d.werr == nil {
		d.werr = err
	}
	d.mu.Unlock()
	if err != nil {
		return err
	}
	d.removeObsolete(c.seq)
	took := int64(time.Since(c.start))
	d.compactions.Add(1)
	d.compactNanos.Add(took)
	d.compactMaxNanos.Store(max(d.compactMaxNanos.Load(), took))
	d.snapBytes.Store(n)
	return nil
}

// hook runs the test hook, if any, for one snapshot-writer step.
func (d *Disk) hook(step string) {
	if d.compactHook != nil {
		d.compactHook(step)
	}
}

// writeSnapshot persists a capture as snap-<seq> (temp file, sync,
// rename, directory sync) and returns its size.
func (d *Disk) writeSnapshot(seq uint64, workers []diskWorkerDump) (int64, error) {
	tmp := d.snapPath(seq) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	n, err := encodeSnapshot(f, workers)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	d.hook("tmp-synced")
	if err := os.Rename(tmp, d.snapPath(seq)); err != nil {
		return 0, err
	}
	return n, d.syncDir()
}

// encodeSnapshot streams a capture's image to w: magic, per-worker
// (sorted) id + last-push stamp + its states as wire full frames (sorted
// by internal name), CRC32 footer + end magic. Frames go out one at a
// time through a buffered writer and the CRC is computed on the way, so
// the image is never held in memory whole. Returns the bytes written.
func encodeSnapshot(w io.Writer, workers []diskWorkerDump) (int64, error) {
	sortDump(workers)
	bw := bufio.NewWriterSize(w, 1<<16)
	crc := crc32.NewIEEE()
	out := io.MultiWriter(bw, crc)
	var n int64
	emit := func(b []byte) error {
		n += int64(len(b))
		_, err := out.Write(b)
		return err
	}
	buf := appendUvarint(append([]byte(nil), snapMagic...), uint64(len(workers)))
	for _, dw := range workers {
		buf = appendLenPrefixed(buf, dw.id)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(dw.nanos))
		buf = appendUvarint(buf, uint64(len(dw.states)))
		for _, ns := range dw.states {
			sn, err := core.NewSnapshot(ns.State.Parts)
			if err != nil {
				return n, fmt.Errorf("snapshot state %q/%q: %w", dw.id, ns.Name, err)
			}
			buf = wire.AppendFrame(buf, ns.Name, sn)
			if err := emit(buf); err != nil {
				return n, err
			}
			buf = buf[:0]
		}
	}
	if err := emit(buf); err != nil { // headers of trailing stateless workers
		return n, err
	}
	buf = binary.LittleEndian.AppendUint32(buf[:0], crc.Sum32())
	buf = append(buf, snapEnd...)
	n += int64(len(buf))
	if _, err := bw.Write(buf); err != nil {
		return n, err
	}
	return n, bw.Flush()
}

// --- recovery ---

// recover rebuilds the resident map from the newest loadable snapshot
// plus every WAL segment at or after it (ascending), truncates any torn
// tail off the newest segment, and leaves it open for appending.
func (d *Disk) recover() error {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return err
	}
	var snaps, wals []uint64
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), "snap-", ".bin"); ok {
			snaps = append(snaps, seq)
		} else if seq, ok := parseSeq(e.Name(), "wal-", ".log"); ok {
			wals = append(wals, seq)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	sort.Slice(wals, func(i, j int) bool { return wals[i] < wals[j] })

	// Newest snapshot that validates wins; an unreadable one (torn
	// mid-compaction crash) falls back to its predecessor, whose WAL
	// segment is still on disk and replays the difference.
	for i := len(snaps) - 1; i >= 0; i-- {
		if err := d.loadSnapshot(snaps[i]); err == nil {
			d.snapSeq = snaps[i]
			break
		}
	}
	active := d.snapSeq
	for _, seq := range wals {
		if seq > active {
			active = seq
		}
	}
	if active == 0 {
		active = 1
	}
	activeOff := int64(-1)
	for _, seq := range wals {
		if seq < d.snapSeq {
			continue
		}
		off, size, err := d.replayWAL(seq)
		if err != nil {
			return err
		}
		if seq == active {
			activeOff = off
		} else if off < size {
			// Only the newest segment may be torn (compaction syncs a
			// segment before starting the next); folding later records over
			// the hole would resurrect a state that never existed.
			return fmt.Errorf("%s: torn or corrupt record at offset %d of %d with later segments present; refusing to replay over the gap",
				filepath.Base(d.walPath(seq)), off, size)
		}
	}
	f, err := os.OpenFile(d.walPath(active), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if activeOff >= 0 {
		// Drop the torn tail so new appends start at a record boundary.
		if err := f.Truncate(activeOff); err != nil {
			f.Close()
			return err
		}
	}
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return err
	}
	d.wal, d.seq, d.walBytes = f, active, end
	if d.mode != FsyncAlways {
		d.bw = bufio.NewWriterSize(f, 1<<16)
	}
	d.removeObsolete(d.snapSeq)
	return nil
}

// replayWAL applies one segment's valid record prefix to the resident
// map, returning the offset where the valid prefix ends and the segment's
// size (a torn or corrupt tail stops the replay without error — in the
// newest segment it is exactly the in-flight mutation a crash cut off).
func (d *Disk) replayWAL(seq uint64) (int64, int64, error) {
	data, err := os.ReadFile(d.walPath(seq))
	if err != nil {
		return 0, 0, err
	}
	off := 0
	for {
		if len(data)-off < 8 {
			break
		}
		n := binary.LittleEndian.Uint32(data[off:])
		if n == 0 || n > maxWalRecord || len(data)-off < int(n)+8 {
			break
		}
		body := data[off+4 : off+4+int(n)]
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[off+4+int(n):]) {
			break
		}
		if err := applyRecord(d.mem, body); err != nil {
			break
		}
		off += 8 + int(n)
	}
	return int64(off), int64(len(data)), nil
}

// applyRecord replays one WAL record onto mem.
func applyRecord(mem *Map, body []byte) error {
	if len(body) == 0 {
		return errors.New("empty record")
	}
	op, rest := body[0], body[1:]
	worker, rest, err := takeLenPrefixed(rest)
	if err != nil {
		return err
	}
	switch op {
	case recPut, recReplaceGroup, recBootstrapSub:
		f, err := wire.NewDecoder(bytes.NewReader(rest)).DecodeFrame()
		if err != nil {
			return err
		}
		if f.Kind != wire.KindFull {
			return fmt.Errorf("state record carries a %v frame", f.Kind)
		}
		st := &State{Parts: f.Snap.Parts()}
		switch op {
		case recPut:
			mem.Put(worker, f.Key, st)
		case recReplaceGroup:
			mem.ReplaceGroup(worker, f.Key, st)
		case recBootstrapSub:
			mem.BootstrapSub(worker, f.Key, st)
		}
	case recDrop:
		name, _, err := takeLenPrefixed(rest)
		if err != nil {
			return err
		}
		mem.Drop(worker, name)
	case recTouch:
		if len(rest) != 8 {
			return errors.New("bad touch record")
		}
		mem.Touch(worker, metaTime(int64(binary.LittleEndian.Uint64(rest))))
	case recDropWorker:
		mem.DropWorker(worker)
	default:
		return fmt.Errorf("unknown wal op %d", op)
	}
	return nil
}

// loadSnapshot parses snap-<seq> into a fresh map, replacing the resident
// one only on full success (a partial parse must not leak state into a
// fallback to an older snapshot).
func (d *Disk) loadSnapshot(seq uint64) error {
	data, err := os.ReadFile(d.snapPath(seq))
	if err != nil {
		return err
	}
	if len(data) < len(snapMagic)+8 || !bytes.HasPrefix(data, snapMagic) || !bytes.HasSuffix(data, snapEnd) {
		return errors.New("snapshot framing invalid")
	}
	body := data[:len(data)-8]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(data)-8:]) {
		return errors.New("snapshot crc mismatch")
	}
	mem := NewMap()
	br := bytes.NewReader(body[len(snapMagic):])
	dec := wire.NewDecoder(br)
	nw, err := binary.ReadUvarint(br)
	if err != nil {
		return err
	}
	for i := uint64(0); i < nw; i++ {
		id, err := readLenPrefixed(br)
		if err != nil {
			return err
		}
		var ts [8]byte
		if _, err := io.ReadFull(br, ts[:]); err != nil {
			return err
		}
		mem.Touch(id, metaTime(int64(binary.LittleEndian.Uint64(ts[:]))))
		ns, err := binary.ReadUvarint(br)
		if err != nil {
			return err
		}
		for j := uint64(0); j < ns; j++ {
			f, err := dec.DecodeFrame()
			if err != nil {
				return err
			}
			if f.Kind != wire.KindFull {
				return fmt.Errorf("snapshot carries a %v frame", f.Kind)
			}
			mem.Put(id, f.Key, &State{Parts: f.Snap.Parts()})
		}
	}
	if br.Len() != 0 {
		return fmt.Errorf("snapshot has %d trailing bytes", br.Len())
	}
	d.mem = mem
	return nil
}

// removeObsolete retires snapshots older than keepSnap and WAL segments
// older than keepSnap's (they are fully folded into it), plus any
// abandoned temp files. Removal failures are ignored — stale files only
// cost space and are retried at the next compaction.
func (d *Disk) removeObsolete(keepSnap uint64) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(d.dir, name))
			continue
		}
		if seq, ok := parseSeq(name, "snap-", ".bin"); ok && seq < keepSnap {
			os.Remove(filepath.Join(d.dir, name))
		} else if seq, ok := parseSeq(name, "wal-", ".log"); ok && seq < keepSnap {
			os.Remove(filepath.Join(d.dir, name))
		}
	}
}

// --- fsync plumbing ---

func (d *Disk) flushLoop(interval time.Duration) {
	defer close(d.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			d.mu.Lock()
			if !d.closed && d.werr == nil {
				if err := d.flushSync(); err != nil {
					d.werr = err
				}
			}
			d.mu.Unlock()
		}
	}
}

// flushSync drains the append buffer (when one exists) and syncs the WAL.
// Caller holds d.mu.
func (d *Disk) flushSync() error {
	if d.bw != nil {
		if err := d.bw.Flush(); err != nil {
			return err
		}
	}
	return d.wal.Sync()
}

func (d *Disk) syncDir() error {
	f, err := os.Open(d.dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	f.Close()
	return err
}

// --- encoding helpers and paths ---

func (d *Disk) walPath(seq uint64) string {
	return filepath.Join(d.dir, fmt.Sprintf("wal-%016d.log", seq))
}

func (d *Disk) snapPath(seq uint64) string {
	return filepath.Join(d.dir, fmt.Sprintf("snap-%016d.bin", seq))
}

func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	seq, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	return seq, err == nil
}

func appendUvarint(dst []byte, v uint64) []byte {
	var b [binary.MaxVarintLen64]byte
	return append(dst, b[:binary.PutUvarint(b[:], v)]...)
}

func appendLenPrefixed(dst []byte, s string) []byte {
	return append(appendUvarint(dst, uint64(len(s))), s...)
}

func takeLenPrefixed(b []byte) (string, []byte, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || uint64(len(b)-k) < n {
		return "", nil, errors.New("bad length-prefixed field")
	}
	return string(b[k : k+int(n)]), b[k+int(n):], nil
}

func readLenPrefixed(br *bytes.Reader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", err
	}
	if n > uint64(br.Len()) {
		return "", errors.New("bad length-prefixed field")
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// --- full-state dump (compaction source) ---

type diskWorkerDump struct {
	id     string
	nanos  int64
	states []NamedState
}

// dump captures the whole resident state: per worker its id, last-push
// stamp and every state. It copies pointers only, sized exactly, and
// leaves the ordering to sortDump so the lock covers nothing but the walk.
func (m *Map) dump() []diskWorkerDump {
	m.rlock()
	defer m.runlock()
	out := make([]diskWorkerDump, 0, len(m.workers))
	for id, w := range m.workers {
		n := 0
		for _, g := range w.groups {
			n += len(g.subs)
			if g.base != nil {
				n++
			}
		}
		dw := diskWorkerDump{id: id, nanos: w.lastPush.UnixNano(), states: make([]NamedState, 0, n)}
		for b, g := range w.groups {
			dw.states = g.fold(b, dw.states)
		}
		out = append(out, dw)
	}
	return out
}

// sortDump puts a capture in deterministic order: workers by id, each
// worker's states by internal name. Name order is fold order within a
// group (base, then sub-streams by salt index) and groups by base, because
// the salt separator NUL sorts below every user byte.
func sortDump(workers []diskWorkerDump) {
	slices.SortFunc(workers, func(a, b diskWorkerDump) int { return strings.Compare(a.id, b.id) })
	for _, dw := range workers {
		slices.SortFunc(dw.states, func(a, b NamedState) int { return strings.Compare(a.Name, b.Name) })
	}
}
