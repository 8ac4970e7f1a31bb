package aggstore

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/window"
)

// requireSameState asserts the disk store's whole observable surface
// matches the reference store's.
func requireSameState(t *testing.T, got, want Store, when string) {
	t.Helper()
	if g, w := got.WorkerCount(), want.WorkerCount(); g != w {
		t.Fatalf("%s: WorkerCount %d != %d", when, g, w)
	}
	if g, w := got.KeyCount(), want.KeyCount(); g != w {
		t.Fatalf("%s: KeyCount %d != %d", when, g, w)
	}
	workers := want.Workers(nil)
	if g := got.Workers(nil); !reflect.DeepEqual(g, workers) {
		t.Fatalf("%s: Workers %v != %v", when, g, workers)
	}
	for _, id := range workers {
		names := want.WorkerNames(id)
		if g := got.WorkerNames(id); !reflect.DeepEqual(g, names) {
			t.Fatalf("%s: WorkerNames(%s) %v != %v", when, id, g, names)
		}
		seen := map[string]struct{}{}
		for _, n := range names {
			base := logicalKey(n)
			if _, dup := seen[base]; dup {
				continue
			}
			seen[base] = struct{}{}
			g, w := got.Group(id, base), want.Group(id, base)
			if len(g) != len(w) {
				t.Fatalf("%s: Group(%s,%s): %d members != %d", when, id, base, len(g), len(w))
			}
			for i := range g {
				if g[i].Name != w[i].Name {
					t.Fatalf("%s: Group(%s,%s)[%d] name %q != %q", when, id, base, i, g[i].Name, w[i].Name)
				}
				if !reflect.DeepEqual(g[i].State.Parts, w[i].State.Parts) {
					t.Fatalf("%s: Group(%s,%s)[%d] %q parts diverge after recovery", when, id, base, i, g[i].Name)
				}
			}
		}
	}
}

// driveOps applies a deterministic randomized op sequence to every given
// store (the same ops to each).
func driveOps(t testing.TB, rng *rand.Rand, steps int, tag *uint64, ss ...Store) {
	t.Helper()
	workers := []string{"wa", "wb", "wc"}
	bases := []string{"k0", "k1", "k2"}
	for step := 0; step < steps; step++ {
		w := workers[rng.Intn(len(workers))]
		base := bases[rng.Intn(len(bases))]
		salt := rng.Intn(4) - 1
		name := base
		if salt >= 0 {
			name = saltedName(base, salt)
		}
		*tag++
		st := mkState(*tag)
		op := rng.Intn(10)
		subSalt := rng.Intn(3)
		ts := time.Unix(int64(1000+step), 0)
		for _, s := range ss {
			switch op {
			case 0, 1, 2:
				s.Touch(w, ts)
				s.Put(w, name, st)
			case 3:
				s.Drop(w, name)
			case 4, 5:
				s.Touch(w, ts)
				s.ReplaceGroup(w, name, st)
			case 6, 7:
				s.Touch(w, ts)
				s.BootstrapSub(w, saltedName(base, subSalt), st)
			case 8:
				s.DropWorker(w)
			case 9:
				cutoff := time.Unix(int64(1000+step-25), 0)
				s.SweepWorkers(func(last time.Time) bool { return last.Before(cutoff) })
			}
		}
	}
}

// TestDiskRecovery drives the same randomized ops through a Map and a
// Disk, then reopens the directory three ways — after a clean Close,
// after an abandon-without-Close (the kill -9 shape; FsyncAlways makes
// every applied record durable), and after further ops atop the recovered
// state — requiring the recovered store to match the reference exactly,
// parts and all.
func TestDiskRecovery(t *testing.T) {
	dir := t.TempDir()
	ref := NewMap()
	rng := rand.New(rand.NewSource(11))
	var tag uint64

	d, err := OpenDisk(DiskConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	driveOps(t, rng, 300, &tag, ref, d)
	requireSameState(t, d, ref, "before close")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d, err = OpenDisk(DiskConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	requireSameState(t, d, ref, "after clean reopen")

	// Keep mutating, then abandon WITHOUT Close: FsyncAlways means every
	// completed mutation is already on disk, exactly the kill -9 contract.
	driveOps(t, rng, 200, &tag, ref, d)
	d2, err := OpenDisk(DiskConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	requireSameState(t, d2, ref, "after crash reopen")

	// The recovered store keeps accepting and persisting new mutations.
	driveOps(t, rng, 100, &tag, ref, d2)
	requireSameState(t, d2, ref, "after post-recovery ops")
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d2.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestDiskTornTail pins crash-mid-append semantics: a torn record at the
// WAL tail is detected (CRC/length), truncated, and everything before it
// recovers; subsequent appends land cleanly on the truncated log.
func TestDiskTornTail(t *testing.T) {
	dir := t.TempDir()
	ref := NewMap()
	d, err := OpenDisk(DiskConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range []string{"a", "b", "c"} {
		d.Touch("w", time.Unix(int64(i), 0))
		d.Put("w", k, mkState(uint64(i+1)))
		ref.Touch("w", time.Unix(int64(i), 0))
		ref.Put("w", k, mkState(uint64(i+1)))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: a record header claiming more bytes than follow.
	wals, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(wals) != 1 {
		t.Fatalf("wal files: %v (%v)", wals, err)
	}
	f, err := os.OpenFile(wals[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	d, err = OpenDisk(DiskConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	requireSameState(t, d, ref, "after torn tail")
	d.Put("w", "d", mkState(9))
	ref.Put("w", "d", mkState(9))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = OpenDisk(DiskConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	requireSameState(t, d, ref, "after append past torn tail")
	d.Close()
}

// TestDiskCompaction forces compaction after nearly every mutation
// (CompactBytes=1) and requires the rotate-then-snapshot cycle to preserve
// state across a reopen, retire superseded files, and tolerate an
// abandoned temp snapshot (the crash-mid-compaction shape).
func TestDiskCompaction(t *testing.T) {
	dir := t.TempDir()
	ref := NewMap()
	rng := rand.New(rand.NewSource(23))
	var tag uint64
	d, err := OpenDisk(DiskConfig{Dir: dir, CompactBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	driveOps(t, rng, 200, &tag, ref, d)
	requireSameState(t, d, ref, "compacting store")
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	// Compactions run in the background; Compact waits for the one in
	// flight and compacts once more, so the directory is quiescent.
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}

	if files := dirFiles(t, dir); len(files) > 3 {
		t.Fatalf("compaction left %d files behind: %v", len(files), files)
	}

	// A leftover temp snapshot (crash between write and rename) is inert.
	if err := os.WriteFile(filepath.Join(dir, "snap-9999999999999999.bin.tmp"), []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}
	d.Close()
	d, err = OpenDisk(DiskConfig{Dir: dir, CompactBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	requireSameState(t, d, ref, "after compacted reopen")
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("temp snapshot survived recovery: %v", tmps)
	}
	d.Close()
}

// TestDiskExplicitCompactAndCorruptSnapshotFallback: a corrupted newest
// snapshot falls back to the previous snapshot+WAL pair when one exists.
func TestDiskExplicitCompactAndCorruptSnapshotFallback(t *testing.T) {
	dir := t.TempDir()
	ref := NewMap()
	d, err := OpenDisk(DiskConfig{Dir: dir, CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		d.Touch("w", time.Unix(int64(i), 0))
		d.Put("w", "k", mkState(uint64(i)))
		ref.Touch("w", time.Unix(int64(i), 0))
		ref.Put("w", "k", mkState(uint64(i)))
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	d.Put("w", "post", mkState(7))
	ref.Put("w", "post", mkState(7))
	d.Close()

	// Reopen: snapshot + the post-compaction WAL record.
	d, err = OpenDisk(DiskConfig{Dir: dir, CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	requireSameState(t, d, ref, "snapshot+wal reopen")
	d.Close()

	// Corrupt the snapshot: with no older snapshot the directory still
	// opens (empty state is the honest answer for a destroyed single copy)
	// — but the WAL tail must not crash recovery.
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.bin"))
	if len(snaps) != 1 {
		t.Fatalf("snapshots: %v", snaps)
	}
	data, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(snaps[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err = OpenDisk(DiskConfig{Dir: dir, CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if n := d.WorkerCount(); n != 0 {
		// Only the post-compaction WAL survived; it re-creates the worker
		// via its Put record, so 1 worker with just the "post" key is also
		// acceptable — what is NOT acceptable is a phantom full recovery.
		if names := d.WorkerNames("w"); len(names) != 1 || names[0] != "post" {
			t.Fatalf("corrupt snapshot recovered to workers=%d names=%v", n, names)
		}
	}
	d.Close()
}

// TestDiskFsyncModes exercises the interval and none disciplines: both
// recover everything after a clean Close, and the interval flusher makes
// records durable without one.
func TestDiskFsyncModes(t *testing.T) {
	for _, mode := range []string{FsyncInterval, FsyncNone} {
		dir := t.TempDir()
		ref := NewMap()
		cfg := DiskConfig{Dir: dir, Fsync: mode, FsyncInterval: 5 * time.Millisecond}
		d, err := OpenDisk(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		var tag uint64
		driveOps(t, rng, 120, &tag, ref, d)
		if mode == FsyncInterval {
			// The flusher must land the buffered records on its own.
			deadline := time.Now().Add(2 * time.Second)
			for {
				d2, err := OpenDisk(DiskConfig{Dir: dir, Fsync: FsyncNone})
				if err != nil {
					t.Fatal(err)
				}
				ok := d2.WorkerCount() == ref.WorkerCount() && d2.KeyCount() == ref.KeyCount()
				d2.Close()
				if ok {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%s: interval flusher never persisted the tail", mode)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		d, err = OpenDisk(cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireSameState(t, d, ref, mode+" after clean close")
		d.Close()
	}
}

// TestDiskConfigValidation pins the constructor's error surface.
func TestDiskConfigValidation(t *testing.T) {
	if _, err := OpenDisk(DiskConfig{}); err == nil {
		t.Fatal("empty dir accepted")
	}
	if _, err := OpenDisk(DiskConfig{Dir: t.TempDir(), Fsync: "sometimes"}); err == nil ||
		!strings.Contains(err.Error(), "fsync") {
		t.Fatalf("bad fsync mode: %v", err)
	}
}

// parkCompaction makes d's first compaction stop at the given writer
// step ("rotated" or "tmp-synced") and returns a channel closed once it is
// parked plus the function that lets it go on.
func parkCompaction(d *Disk, step string) (parked <-chan struct{}, release func()) {
	p, r := make(chan struct{}), make(chan struct{})
	var once sync.Once
	d.compactHook = func(s string) {
		if s == step {
			once.Do(func() { close(p); <-r })
		}
	}
	return p, sync.OnceFunc(func() { close(r) })
}

// driveUntilParked applies ops one at a time until the parked compaction
// has stopped at its hook.
func driveUntilParked(t testing.TB, parked <-chan struct{}, rng *rand.Rand, tag *uint64, ss ...Store) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		select {
		case <-parked:
			return
		default:
		}
		driveOps(t, rng, 1, tag, ss...)
	}
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("compaction never reached its hook")
	}
}

// copyDir copies every file in src to a fresh directory: what a kill -9
// at this instant leaves on disk (FsyncAlways has synced every record the
// copy reads).
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func dirFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestDiskCrashMidCompaction parks the background snapshot writer after
// the WAL rotation — before the snapshot exists, and again with it only
// as a synced temp file — keeps mutating into the new segment, and
// "crashes" by copying the directory. The copy must recover from the old
// snapshot (none here) plus both segments, equal to the reference; the
// original must finish its compaction and recover the same state too.
func TestDiskCrashMidCompaction(t *testing.T) {
	for _, step := range []string{"rotated", "tmp-synced"} {
		t.Run(step, func(t *testing.T) {
			dir := t.TempDir()
			ref := NewMap()
			rng := rand.New(rand.NewSource(31))
			var tag uint64
			d, err := OpenDisk(DiskConfig{Dir: dir, CompactBytes: 4 << 10})
			if err != nil {
				t.Fatal(err)
			}
			parked, release := parkCompaction(d, step)
			defer release()
			driveUntilParked(t, parked, rng, &tag, ref, d)
			driveOps(t, rng, 150, &tag, ref, d)

			crashed := copyDir(t, dir)
			files := dirFiles(t, crashed)
			for _, name := range files {
				if strings.HasSuffix(name, ".bin") {
					t.Fatalf("snapshot published before the writer was released: %v", files)
				}
			}
			if tmps, _ := filepath.Glob(filepath.Join(crashed, "*.tmp")); (step == "tmp-synced") != (len(tmps) == 1) {
				t.Fatalf("step %s left temp files %v", step, tmps)
			}
			if wals, _ := filepath.Glob(filepath.Join(crashed, "wal-*.log")); len(wals) != 2 {
				t.Fatalf("want the rotated-out and the active segment, have %v", files)
			}
			re, err := OpenDisk(DiskConfig{Dir: crashed, CompactBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			requireSameState(t, re, ref, "crash mid-compaction at "+step)
			re.Close()

			release()
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			d, err = OpenDisk(DiskConfig{Dir: dir, CompactBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			requireSameState(t, d, ref, "after the released compaction")
			d.Close()
		})
	}
}

// TestDiskCloseDuringCompaction: Close waits for an in-flight compaction,
// which completes and retires what it supersedes.
func TestDiskCloseDuringCompaction(t *testing.T) {
	dir := t.TempDir()
	ref := NewMap()
	rng := rand.New(rand.NewSource(37))
	var tag uint64
	d, err := OpenDisk(DiskConfig{Dir: dir, CompactBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	parked, release := parkCompaction(d, "rotated")
	defer release()
	driveUntilParked(t, parked, rng, &tag, ref, d)
	driveOps(t, rng, 50, &tag, ref, d)

	closed := make(chan error, 1)
	go func() { closed <- d.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) with a compaction in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	files := dirFiles(t, dir)
	if len(files) > 3 {
		t.Fatalf("compaction left %d files behind: %v", len(files), files)
	}
	if snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.bin")); len(snaps) != 1 {
		t.Fatalf("Close did not complete the compaction: %v", files)
	}
	d, err = OpenDisk(DiskConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	requireSameState(t, d, ref, "after close mid-compaction")
	d.Close()
}

// TestDiskConcurrentCompaction mutates from several goroutines (one
// worker each, so the final state is order-independent) while background
// compactions run after nearly every mutation; the reopened directory must
// equal the reference.
func TestDiskConcurrentCompaction(t *testing.T) {
	dir := t.TempDir()
	ref := NewMap()
	d, err := OpenDisk(DiskConfig{Dir: dir, Fsync: FsyncInterval, FsyncInterval: time.Millisecond, CompactBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker := fmt.Sprintf("g%d", g)
			for i := 0; i < 150; i++ {
				name := fmt.Sprintf("k%d", i%7)
				for _, s := range []Store{ref, d} {
					s.Touch(worker, time.Unix(int64(i), 0))
					if i%5 == 4 {
						s.Drop(worker, name)
					} else {
						s.Put(worker, name, mkState(uint64(g*1000+i)))
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if c := d.CompactionStats(); c.Count == 0 || c.LastSnapshotBytes == 0 {
		t.Fatalf("no compaction completed: %+v", c)
	}
	d, err = OpenDisk(DiskConfig{Dir: dir, CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	requireSameState(t, d, ref, "after concurrent compactions")
	d.Close()
}

// TestDiskRefusesReplayOverGap: only the newest WAL segment may be torn.
// A torn record in an older segment while a later one exists is a hole in
// the history, and recovery must name the segment rather than fold the
// later records over it.
func TestDiskRefusesReplayOverGap(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(41))
	var tag uint64
	d, err := OpenDisk(DiskConfig{Dir: dir, CompactBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	parked, release := parkCompaction(d, "rotated")
	defer func() {
		release()
		d.Close()
	}()
	driveUntilParked(t, parked, rng, &tag, d)
	driveOps(t, rng, 20, &tag, d)

	crashed := copyDir(t, dir)
	wals, _ := filepath.Glob(filepath.Join(crashed, "wal-*.log"))
	if len(wals) != 2 {
		t.Fatalf("want two segments, have %v", dirFiles(t, crashed))
	}
	fi, err := os.Stat(wals[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wals[0], fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	_, err = OpenDisk(DiskConfig{Dir: crashed})
	if err == nil || !strings.Contains(err.Error(), filepath.Base(wals[0])) {
		t.Fatalf("recovery over a torn older segment: err = %v, want one naming %s", err, filepath.Base(wals[0]))
	}
}

// realisticParts is an operator capture shaped like production folds:
// a full 8-sub-window window of NetMon-like values, four quantiles, few-k.
func realisticParts(t *testing.T) core.SnapshotParts {
	t.Helper()
	p, err := core.New(core.Config{Spec: window.Spec{Size: 8192, Period: 1024}, Phis: []float64{0.5, 0.9, 0.99, 0.999}, FewK: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	vs := make([]float64, 1024)
	for period := 0; period < 8; period++ {
		for i := range vs {
			vs[i] = float64(int(rng.ExpFloat64() * 1000))
		}
		p.ObserveBatch(vs)
		p.EndPeriod()
	}
	return p.Snapshot().Parts()
}

// TestDiskCompactAllocs is the streaming gate: one Compact of a multi-MB
// resident state allocates under a tenth of the snapshot it writes (the
// capture is pointers, frames go out one at a time).
func TestDiskCompactAllocs(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(DiskConfig{Dir: dir, Fsync: FsyncNone, CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	parts := realisticParts(t)
	for w := 0; w < 4; w++ {
		worker := fmt.Sprintf("w%d", w)
		d.Touch(worker, time.Unix(int64(w), 0))
		for k := 0; k < 1000; k++ {
			st := &State{Parts: parts}
			st.Parts.SealGen += uint64(k)
			d.Put(worker, fmt.Sprintf("key-%04d", k), st)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	size := d.CompactionStats().LastSnapshotBytes
	if size < 2<<20 {
		t.Fatalf("snapshot is %d bytes; the gate needs a multi-MB state", size)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	if alloc*10 >= uint64(size) {
		t.Fatalf("Compact allocated %d bytes for a %d-byte snapshot (limit: a tenth)", alloc, size)
	}
	t.Logf("Compact allocated %d bytes for a %d-byte snapshot", alloc, size)
}

// FuzzDiskRecover feeds arbitrary bytes as the WAL segment, alone or on
// top of a valid snapshot: OpenDisk must never panic, and reopening what
// the first open left behind must recover the same state.
func FuzzDiskRecover(f *testing.F) {
	seedDir := f.TempDir()
	d, err := OpenDisk(DiskConfig{Dir: seedDir, Fsync: FsyncNone, CompactBytes: -1})
	if err != nil {
		f.Fatal(err)
	}
	var tag uint64
	driveOps(f, rand.New(rand.NewSource(43)), 6, &tag, d)
	if err := d.Compact(); err != nil {
		f.Fatal(err)
	}
	snaps, _ := filepath.Glob(filepath.Join(seedDir, "snap-*.bin"))
	if len(snaps) != 1 {
		f.Fatalf("seed snapshots: %v", snaps)
	}
	snap, err := os.ReadFile(snaps[0])
	if err != nil {
		f.Fatal(err)
	}
	driveOps(f, rand.New(rand.NewSource(47)), 6, &tag, d)
	d.Close()
	wals, _ := filepath.Glob(filepath.Join(seedDir, "wal-*.log"))
	if len(wals) != 1 {
		f.Fatalf("seed segments: %v", wals)
	}
	wal, err := os.ReadFile(wals[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wal, false)
	f.Add(wal, true)
	f.Add(wal[:len(wal)/2], true)
	f.Add(append(append([]byte(nil), wal...), 0xff, 0, 0, 0, 1), false)
	f.Add([]byte{}, true)

	f.Fuzz(func(t *testing.T, data []byte, withSnap bool) {
		dir := t.TempDir()
		if withSnap {
			if err := os.WriteFile(filepath.Join(dir, "snap-0000000000000001.bin"), snap, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := DiskConfig{Dir: dir, Fsync: FsyncNone, CompactBytes: -1}
		first, err := OpenDisk(cfg)
		if err != nil {
			t.Fatalf("a single segment must always recover a valid prefix: %v", err)
		}
		if err := first.Close(); err != nil {
			t.Fatal(err)
		}
		second, err := OpenDisk(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer second.Close()
		requireSameState(t, second, first, "second reopen")
	})
}
