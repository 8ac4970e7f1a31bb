package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/wire"
)

// The pipeline workload is the write path end to end: 8 worker Engines
// ingest fixed pre-generated report slices, export deltas and push them to
// the fan-in, closed-loop on nproc connections, each worker's delta chain
// serial. Every push pays the fan-in's RawScanner routing, then decode,
// fold and WAL append on both replicas, while reads do almost
// nothing, so write-path changes (zero-alloc decode, WAL group commit)
// show here. Its traced run also measures the read path: see query.go.

// pipelinePhase is what one measured phase observed. A pass is one cycle
// of every worker through its pre-generated reports; passes start
// together, and throughput is the median over passes, so one slow burst
// moves one pass, not the result.
type pipelinePhase struct {
	mevs     []float64 // per pass
	p50s     []float64 // freshness median per pass, ms
	fresh    []float64 // ms
	pushes   int
	frames   int
	bytes    int
	blobs    [][]byte
	elapsed  time.Duration
	events   int64
	tier     tierDelta
	genGC    float64
	spans    []span
	childSps []span
}

func runPipeline(r *run) error {
	p := defaultTierParams()
	r.params = p
	ws, t, client, err := tierSetup(r, p)
	if err != nil {
		return err
	}
	defer closeWorkers(ws)
	defer func() {
		if t != nil {
			t.stop()
		}
	}()
	tr := newTracer()
	// The first pass bootstraps every key at the fan-in; the state the
	// measured passes start from is the same on every run of a seed.
	if _, err := pipelinePass(p, ws, t, client, tr); err != nil {
		return err
	}
	// The tier's memory is read at that fixed point.
	st, err := t.stats()
	if err != nil {
		return err
	}
	r.set("heap_live_mb", float64(st.HeapLiveBytes)/(1<<20), 1)
	u, err := pipelineMeasure(p, ws, t, client, tr, false, r.phaseLen())
	if err != nil {
		return err
	}
	if err := quiesced(r, ws, t, client, nil); err != nil {
		return err
	}
	if err := r.measureError(); err != nil {
		return err
	}
	_, p99v, err := r.p99("freshness ms", u.fresh)
	if err != nil {
		return err
	}
	p50 := median(u.p50s)
	r.timing("throughput_per_s per pass", append([]float64(nil), u.mevs...))
	mevs := median(u.mevs)
	r.set("throughput_per_s", mevs, len(u.mevs))
	r.set("latency_p50_ms", p50, len(u.fresh))
	r.set("latency_p99_ms", p99v, len(u.fresh))
	r.note("throughput_per_s: events ingested by the workers and quorum-acked at the fan-in, median over %d passes (%d pushes in %.2fs)",
		len(u.mevs), u.pushes, u.elapsed.Seconds())
	if !r.trace {
		return nil
	}

	// The traced half runs on a tier started with every layer wrapped and
	// the stores instrumented; the untraced half ran on the tier the
	// end-to-end run measures. The workers bootstrap onto the new tier,
	// and the traced half gives half its time to pushes and half to the
	// read-path probe.
	err = t.stop()
	t = nil
	if err != nil {
		return err
	}
	if t, err = startTier(filepath.Join(r.dir, "state"), true); err != nil {
		return err
	}
	for _, w := range ws {
		w.retarget()
	}
	if _, err := pipelinePass(p, ws, t, client, tr); err != nil {
		return err
	}
	tp, err := pipelineMeasure(p, ws, t, client, tr, true, r.phaseLen()/2)
	if err != nil {
		return err
	}
	probe := func(keys []string) error { return queryProbe(r, t, client, p.Conns, tr, keys, r.phaseLen()/2) }
	if err := quiesced(r, ws, t, client, probe); err != nil {
		return err
	}
	tmevs := median(tp.mevs)
	tp50 := median(tp.p50s)
	r.overhead["throughput_per_s"] = [2]float64{mevs, tmevs}
	r.overhead["latency_p50_ms"] = [2]float64{p50, tp50}
	r.layer["trace.overhead_throughput"] = tmevs / mevs
	r.layer["trace.overhead_latency_p50"] = tp50 / p50
	r.layer["wire.frames_per_push"] = float64(tp.frames) / float64(tp.pushes)
	r.layer["wire.bytes_per_frame"] = float64(tp.bytes) / float64(max(tp.frames, 1))
	if r.layer["wire.decode_us_per_frame"], err = decodeCost(tp.blobs); err != nil {
		return err
	}
	d := tp.tier
	applies := float64(tp.pushes * p.Replicas)
	r.layer["aggstore.write_ops"] = float64(d.writeOps) / applies
	r.layer["aggstore.write_us_per_op"] = float64(d.writeNanos) / float64(max(d.writeOps, 1)) / 1e3
	r.layer["aggstore.lock_wait_us"] = float64(d.lockWaitNanos) / applies / 1e3
	r.layer["aggstore.wal_bytes_per_frame"] = float64(d.writeBytes) / float64(max(d.frames, 1))
	r.layer["gc.tier_cpu_fraction"] = d.gcFraction
	r.layer["gc.generator_cpu_fraction"] = tp.genGC
	spans := append(tp.spans, tp.childSps...)
	r.spans = append(r.spans, spans...)
	return pushLayers(r, spans)
}

// quiesced checks a tier every worker has stopped pushing to: every push
// was acked, and its snapshot and sampled answers match one Aggregator
// that applied the same blobs. probe, when set, first runs on the
// quiesced tier with the keys it holds. The pushes are then forgotten,
// so a later tier is checked against its own.
func quiesced(r *run, ws []*worker, t *tier, client *http.Client, probe func(keys []string) error) error {
	ref, err := reference(ws)
	if err != nil {
		return err
	}
	keys := knownKeys(ref)
	if probe != nil {
		if err := probe(keys); err != nil {
			return err
		}
	}
	gatePushes(r, ws)
	if err := gateSnapshot(r, t, ref); err != nil {
		return err
	}
	gateAnswers(r, client, t.fanin, ref, keys)
	for _, w := range ws {
		w.pushed = nil
	}
	return nil
}

// passOut is one pass: every worker's pushes, in order.
type passOut struct {
	elapsed time.Duration
	pushes  [][]pushOut
}

// pipelinePass runs one pass: every worker, concurrently, ingests and
// pushes its whole report sequence, one round per push.
func pipelinePass(p tierParams, ws []*worker, t *tier, client *http.Client, tr *tracer) (passOut, error) {
	out := passOut{pushes: make([][]pushOut, len(ws))}
	start := time.Now()
	err := eachWorker(ws, func(w *worker) error {
		i := slices.Index(ws, w)
		for j := 0; j < p.SeqReports/p.RoundReports; j++ {
			po, err := w.round(p, client, t.fanin, tr)
			if err != nil {
				return err
			}
			out.pushes[i] = append(out.pushes[i], po)
		}
		return nil
	})
	out.elapsed = time.Since(start)
	return out, err
}

// pipelineMeasure runs passes for one phase.
func pipelineMeasure(p tierParams, ws []*worker, t *tier, client *http.Client, tr *tracer, tracing bool, dur time.Duration) (*pipelinePhase, error) {
	ph := &pipelinePhase{}
	if err := setTracing(t, tr, tracing); err != nil {
		return nil, err
	}
	st0, err := t.stats()
	if err != nil {
		return nil, err
	}
	cpu := startCPU()
	deadline := time.Now().Add(dur)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		out, err := pipelinePass(p, ws, t, client, tr)
		if err != nil {
			return nil, err
		}
		var events int64
		var fresh []float64
		for i, w := range ws {
			recs := w.pushed[len(w.pushed)-len(out.pushes[i]):]
			for j, po := range out.pushes[i] {
				ph.pushes++
				if po.ok {
					events += int64(p.RoundReports * p.Report)
					fresh = append(fresh, float64(po.fresh)/1e6)
				}
				ph.frames += recs[j].frames
				ph.bytes += len(recs[j].blob)
				ph.blobs = append(ph.blobs, recs[j].blob)
			}
		}
		ph.fresh = append(ph.fresh, fresh...)
		ph.p50s = append(ph.p50s, median(fresh))
		ph.events += events
		ph.elapsed += out.elapsed
		ph.mevs = append(ph.mevs, float64(events)/out.elapsed.Seconds())
	}
	ph.genGC = cpu.gcFraction()
	if err := setTracing(t, tr, false); err != nil {
		return nil, err
	}
	st1, err := t.stats()
	if err != nil {
		return nil, err
	}
	ph.tier = tierDiff(st0, st1)
	if tracing {
		ph.spans = tr.take()
		if ph.childSps, err = t.spans(); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// decodeCost times a wire.Decoder pass over the blobs, per frame.
func decodeCost(blobs [][]byte) (float64, error) {
	frames := 0
	start := time.Now()
	for _, b := range blobs {
		dec := wire.NewDecoder(bytes.NewReader(b))
		for {
			_, err := dec.DecodeFrame()
			if err == io.EOF {
				break
			}
			if err != nil {
				return 0, fmt.Errorf("decode pushed blob: %w", err)
			}
			frames++
		}
	}
	if frames == 0 {
		return 0, nil
	}
	return float64(time.Since(start).Microseconds()) / float64(frames), nil
}
