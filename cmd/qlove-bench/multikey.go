package main

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/workload"
)

// The multikey scenario measures the keyed Engine: the same keyed NetMon
// workload (Zipf-skewed keys, per-key reports) is ingested at each shard
// count, recording aggregate throughput, then the hottest key's snapshot
// is verified bit-for-bit against a single Monitor fed that key's
// sub-stream with identical report boundaries.

// multiKeyOptions parameterizes one scenario run.
type multiKeyOptions struct {
	Spec     qlove.Window
	Phis     []float64
	Keys     int
	Skew     float64
	Report   int   // values per keyed report
	Elements int   // total values ingested per shard configuration
	Shards   []int // shard counts to sweep
	Seed     int64
}

// defaultMultiKeyOptions scales the scenario: 100k keys and 20M elements
// at scale 1.
func defaultMultiKeyOptions(scale float64, seed int64, keys int, skew float64) multiKeyOptions {
	if keys <= 0 {
		keys = int(100_000 * scale)
		if keys < 500 {
			keys = 500
		}
	}
	elements := int(20_000_000 * scale)
	if min := 50 * keys; elements < min {
		// Enough traffic that hot keys evaluate many times and the key
		// universe is fully populated.
		elements = min
	}
	maxShards := runtime.GOMAXPROCS(0)
	if maxShards < 8 {
		maxShards = 8
	}
	shards := []int{1}
	for s := 2; s < maxShards; s *= 2 {
		shards = append(shards, s)
	}
	shards = append(shards, maxShards)
	return multiKeyOptions{
		Spec:     qlove.Window{Size: 512, Period: 128},
		Phis:     []float64{0.5, 0.9, 0.99},
		Keys:     keys,
		Skew:     skew,
		Report:   128,
		Elements: elements,
		Shards:   shards,
		Seed:     seed,
	}
}

// engineRun is one shard-count measurement, also emitted into the -json
// perf record.
type engineRun struct {
	Shards             int     `json:"shards"`
	Pushers            int     `json:"pushers"`
	Keys               int     `json:"keys"`
	KeysObserved       int     `json:"keys_observed"`
	Elements           int     `json:"elements"`
	ReportSize         int     `json:"report_size"`
	Skew               float64 `json:"skew"`
	ThroughputMevS     float64 `json:"throughput_mev_s"`
	Evaluations        uint64  `json:"evaluations"`
	DroppedResults     uint64  `json:"dropped_results"`
	ShardSkew          float64 `json:"shard_skew"`
	SnapshotConsistent bool    `json:"snapshot_consistent"`
}

// reportSeq is the scenario's deterministic report sequence, materialized
// BEFORE the clock starts so the throughput measurement times engine
// ingest, not serial workload generation (which would otherwise be the
// Amdahl bottleneck the shard sweep reports instead of scaling). The
// sequence is an enumeration pass where every key reports once (the
// heartbeat all series send — this is what makes "≥ keys concurrently
// monitored" literal, not probabilistic), followed by skew-distributed
// traffic reports. Ingest and verification both walk this exact sequence,
// so per-key sub-streams and their report boundaries match element for
// element.
type reportSeq struct {
	keys   []string  // one per report
	vals   []float64 // len(keys) × report values, report i at [i*report, (i+1)*report)
	report int
	hot    string // the Zipf head (key 0), the key verification replays
}

// materializeReports draws the whole sequence.
func materializeReports(o multiKeyOptions) (reportSeq, error) {
	gen, err := workload.NewKeyed(o.Seed, o.Keys, o.Skew, workload.NewNetMon(o.Seed))
	if err != nil {
		return reportSeq{}, err
	}
	reports := o.Elements / o.Report
	if reports < o.Keys {
		reports = o.Keys
	}
	seq := reportSeq{
		keys:   make([]string, reports),
		vals:   make([]float64, reports*o.Report),
		report: o.Report,
		hot:    gen.Key(0),
	}
	for i := 0; i < reports; i++ {
		// Three-index slice: Values/NextReport fill to cap(dst), which
		// must stop at this report's end, not the array's.
		vs := seq.vals[i*o.Report : i*o.Report : (i+1)*o.Report]
		if i < o.Keys {
			seq.keys[i] = gen.Key(i)
			gen.Values(vs)
		} else {
			key, _ := gen.NextReport(vs)
			seq.keys[i] = key
		}
	}
	return seq, nil
}

// each replays the sequence.
func (r reportSeq) each(fn func(key string, vs []float64) error) error {
	for i, key := range r.keys {
		if err := fn(key, r.vals[i*r.report:(i+1)*r.report]); err != nil {
			return err
		}
	}
	return nil
}

// elements is the total element count the sequence delivers.
func (r reportSeq) elements() int { return len(r.vals) }

// runEngineScenario ingests the workload at one shard count and verifies
// the hottest key's snapshot against a single-Monitor reference. The
// sequence is materialized once by the caller and shared read-only across
// shard counts (Push copies every batch; the replay never mutates it).
func runEngineScenario(o multiKeyOptions, seq reportSeq, shards int) (engineRun, error) {
	return runEngineScenarioPushers(o, seq, shards, 1)
}

// runEngineScenarioPushers is runEngineScenario with a concurrent source
// tier: the sequence is partitioned BY KEY across pushers (a key's reports
// stay with one pusher, in sequence order), so per-key sub-streams keep
// their boundaries and ordering and the bit-equivalence check remains
// exact while ingest runs from many goroutines.
func runEngineScenarioPushers(o multiKeyOptions, seq reportSeq, shards, pushers int) (engineRun, error) {
	cfg := qlove.Config{Spec: o.Spec, Phis: o.Phis}
	eng, err := qlove.NewEngine(qlove.EngineConfig{
		Config:       cfg,
		Shards:       shards,
		QueueDepth:   256,
		ResultBuffer: 1 << 14,
	})
	if err != nil {
		return engineRun{}, err
	}
	if pushers < 1 {
		pushers = 1
	}
	var evals atomic.Uint64
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range eng.Results() {
			evals.Add(1)
		}
	}()

	start := time.Now()
	if pushers == 1 {
		if err := seq.each(eng.Push); err != nil {
			return engineRun{}, err
		}
	} else if err := pushByKey(eng, seq, pushers); err != nil {
		return engineRun{}, err
	}
	keysObserved := eng.Keys()
	eng.Close() // waits for every shard to drain
	elapsed := time.Since(start)
	<-drained

	run := engineRun{
		Shards:         shards,
		Pushers:        pushers,
		Keys:           o.Keys,
		KeysObserved:   keysObserved,
		Elements:       seq.elements(),
		ReportSize:     o.Report,
		Skew:           o.Skew,
		ThroughputMevS: float64(seq.elements()) / elapsed.Seconds() / 1e6,
		Evaluations:    evals.Load(),
		DroppedResults: eng.Dropped(),
		ShardSkew:      eng.Stats().Skew(),
	}
	consistent, err := verifyHotKey(eng, seq, o)
	if err != nil {
		return engineRun{}, err
	}
	run.SnapshotConsistent = consistent
	return run, nil
}

// pushByKey replays the sequence through pushers goroutines, each
// owning a fixed set of keys (assigned round-robin in first-appearance
// order) and pushing its reports in sequence order.
func pushByKey(eng *qlove.Engine, seq reportSeq, pushers int) error {
	parts := make([][]int, pushers)
	owner := make(map[string]int, 1024)
	for i, key := range seq.keys {
		p, ok := owner[key]
		if !ok {
			p = len(owner) % pushers
			owner[key] = p
		}
		parts[p] = append(parts[p], i)
	}
	errs := make(chan error, pushers)
	var wg sync.WaitGroup
	for _, part := range parts {
		wg.Add(1)
		go func(idxs []int) {
			defer wg.Done()
			for _, i := range idxs {
				if err := eng.Push(seq.keys[i], seq.vals[i*seq.report:(i+1)*seq.report]); err != nil {
					errs <- err
					return
				}
			}
		}(part)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// verifyHotKey replays the hottest key's sub-stream (same report
// boundaries) through a single Monitor and compares the engine's snapshot
// estimates bit-for-bit.
func verifyHotKey(eng *qlove.Engine, seq reportSeq, o multiKeyOptions) (bool, error) {
	snap, ok := eng.Query(seq.hot)
	if !ok {
		return false, fmt.Errorf("hot key %q not monitored", seq.hot)
	}
	ref, err := newRefMonitor(qlove.Config{Spec: o.Spec, Phis: o.Phis}, o.Spec)
	if err != nil {
		return false, err
	}
	err = seq.each(func(key string, vs []float64) error {
		if key == seq.hot {
			ref.mon.PushBatch(vs, nil)
		}
		return nil
	})
	if err != nil {
		return false, err
	}
	return bitsEqual(snap.Estimates(), ref.policy.Snapshot().Estimates()), nil
}

// multiKeyExperiment prints the shard sweep as a table.
func multiKeyExperiment(w io.Writer, o multiKeyOptions) error {
	fmt.Fprintf(w, "engine scaling: %d keys (zipf %.2f), %s windows, %d-value reports, %d elements/run, GOMAXPROCS=%d\n",
		o.Keys, o.Skew, o.Spec, o.Report, o.Elements, runtime.GOMAXPROCS(0))
	seq, err := materializeReports(o)
	if err != nil {
		return err
	}
	var base float64
	for _, shards := range o.Shards {
		run, err := runEngineScenario(o, seq, shards)
		if err != nil {
			return err
		}
		if shards == o.Shards[0] {
			base = run.ThroughputMevS
		}
		speedup := 0.0
		if base > 0 {
			speedup = run.ThroughputMevS / base
		}
		verdict := "bit-identical"
		if !run.SnapshotConsistent {
			verdict = "MISMATCH"
		}
		fmt.Fprintf(w, "  shards=%-3d keys=%-7d throughput=%8.2f Mev/s  speedup=%.2fx  evals=%-8d dropped=%-6d hot-key snapshot: %s\n",
			run.Shards, run.KeysObserved, run.ThroughputMevS, speedup,
			run.Evaluations, run.DroppedResults, verdict)
		if !run.SnapshotConsistent {
			return fmt.Errorf("shards=%d: hot-key snapshot diverged from single-monitor reference", shards)
		}
	}
	return nil
}
