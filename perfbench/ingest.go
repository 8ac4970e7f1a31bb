package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/wire"
	"repro/internal/workload"
)

// The ingest workload drives one in-process Engine closed-loop from a
// single producer. The quantizer, the red-black tree, seal and evaluate,
// few-k and engine dispatch do nearly all the work; the wire codec and the
// aggregation tier do none, so an operator or dispatch change shows here
// and the prediction for the pipeline's read-path layers is no change.

type ingestParams struct {
	Keys       int       `json:"keys"`
	Skew       float64   `json:"zipf_skew"`
	Report     int       `json:"report_values"`
	Window     string    `json:"window"`
	Phis       []float64 `json:"phis"`
	FewK       bool      `json:"fewk"`
	Shards     int       `json:"shards"`
	PassEvents int       `json:"events_per_pass"`
}

func defaultIngestParams() ingestParams {
	return ingestParams{
		Keys: 1000, Skew: 1.2, Report: 128, Window: "8192/1024", Phis: phis, FewK: true,
		Shards: runtime.NumCPU(), PassEvents: 1 << 21,
	}
}

// The operator configuration every workload uses.
var (
	spec = qlove.Window{Size: 8192, Period: 1024}
	phis = []float64{0.5, 0.9, 0.99, 0.999}
)

const p999 = 3 // index of ϕ=0.999 in phis

func operatorConfig() qlove.Config { return qlove.Config{Spec: spec, Phis: phis, FewK: true} }

// reportSeq is a pre-generated keyed report sequence: report i is
// keys[i] with vals[i*report:(i+1)*report].
type reportSeq struct {
	keys   []string
	vals   []float64
	report int
}

func (s *reportSeq) len() int               { return len(s.keys) }
func (s *reportSeq) values(i int) []float64 { return s.vals[i*s.report : (i+1)*s.report] }

// genReports draws n reports of Zipf-skewed traffic over NetMon values;
// with enumerate, the first keys reports are one per key (every series
// reports once).
func genReports(seed int64, keys int, skew float64, report, n int, enumerate bool) (*reportSeq, error) {
	gen, err := workload.NewKeyed(seed, keys, skew, workload.NewNetMon(seed))
	if err != nil {
		return nil, err
	}
	s := &reportSeq{keys: make([]string, n), vals: make([]float64, n*report), report: report}
	for i := 0; i < n; i++ {
		vs := s.vals[i*report : i*report : (i+1)*report]
		if enumerate && i < keys {
			s.keys[i] = gen.Key(i)
			gen.Values(vs)
		} else {
			s.keys[i], _ = gen.NextReport(vs)
		}
	}
	return s, nil
}

// ingestData is everything generated before an ingest pass runs.
type ingestData struct {
	seq *reportSeq
	hot string
	// closing[key][e] is the report whose push completes the key's e-th
	// evaluation: evaluation latency is timed from that push.
	closing map[string][]int32
	evals   int // evaluations one pass emits
}

func genIngest(p ingestParams, seed int64) (*ingestData, error) {
	seq, err := genReports(seed, p.Keys, p.Skew, p.Report, p.PassEvents/p.Report, true)
	if err != nil {
		return nil, err
	}
	d := &ingestData{seq: seq, hot: seq.keys[0], closing: map[string][]int32{}}
	seen := map[string]int{}
	for i, k := range seq.keys {
		seen[k]++
		n := seen[k] * p.Report
		if n >= spec.Size && (n-spec.Size)%spec.Period == 0 {
			d.closing[k] = append(d.closing[k], int32(i))
			d.evals++
		}
	}
	return d, nil
}

// ingestPass is one pass's measurements.
type ingestPass struct {
	mevs     float64
	lats     []float64 // evaluation latencies, ms
	pushUs   []float64 // Engine.Push call times, traced passes only
	stats    qlove.EngineStats
	snapshot []byte // the hot key's snapshot, wire-encoded
	eng      *qlove.Engine
	failed   int64
	pushes   int64
}

// runIngestPass feeds the whole sequence through a fresh Engine and waits
// until every shard has drained. A traced pass times every Push, and
// records a span for each when tr is not nil.
func runIngestPass(p ingestParams, d *ingestData, pushedAt []int64, tr *tracer, traced bool) (*ingestPass, error) {
	eng, err := qlove.NewEngine(qlove.EngineConfig{
		Config: operatorConfig(), Shards: p.Shards, Backpressure: qlove.BackpressureBlock, ResultBuffer: 1 << 14,
	})
	if err != nil {
		return nil, err
	}
	res := &ingestPass{lats: make([]float64, 0, d.evals)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for kr := range eng.Results() {
			now := nowNanos()
			if c := d.closing[kr.Key]; kr.Evaluation < len(c) {
				res.lats = append(res.lats, float64(now-pushedAt[c[kr.Evaluation]])/1e6)
			}
		}
	}()
	seq := d.seq
	if traced {
		res.pushUs = make([]float64, 0, seq.len())
	}
	start := time.Now()
	for i, key := range seq.keys {
		t0 := nowNanos()
		pushedAt[i] = t0
		err := eng.Push(key, seq.values(i))
		res.pushes++
		if err != nil {
			res.failed++
			continue
		}
		if traced {
			t1 := nowNanos()
			res.pushUs = append(res.pushUs, float64(t1-t0)/1e3)
			if tr != nil {
				tr.add(span{Layer: "engine.push", ID: fmt.Sprintf("r:%d", i), Start: t0, End: t1})
			}
		}
	}
	eng.Close()
	elapsed := time.Since(start)
	<-done
	res.mevs = float64(len(seq.vals)) / elapsed.Seconds() / 1e6
	res.stats = eng.Stats()
	sn, ok := eng.Query(d.hot)
	if !ok {
		return nil, fmt.Errorf("hot key %q not monitored", d.hot)
	}
	res.snapshot = wire.AppendFrame(nil, d.hot, sn)
	res.eng = eng
	return res, nil
}

func runIngest(r *run) error {
	p := defaultIngestParams()
	r.params = p
	var (
		d      *ingestData
		setups []float64
	)
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		var err error
		if d, err = genIngest(p, r.seed); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(setups), len(setups))
	r.timing("setup_s", setups)

	pushedAt := make([]int64, d.seq.len())
	ref, err := referenceSnapshot(p, d)
	if err != nil {
		return err
	}
	tr := newTracer()
	tr.on.Store(true)
	heapMB := -1.0
	// Per pass: throughput and the evaluation latency's median and p99.
	// Each figure is the median over passes; every pass builds a fresh
	// engine whose random hash seed places the hot keys anew.
	type phaseOut struct {
		mevs, p50s, p99s, lats []float64
		genGC                  float64
	}
	outs := map[bool]*phaseOut{}
	var traced []*ingestPass
	for _, tracing := range r.phases() {
		out := &phaseOut{}
		outs[tracing] = out
		runtime.GC()
		var base runtime.MemStats
		runtime.ReadMemStats(&base)
		cpu := startCPU()
		deadline := time.Now().Add(r.phaseLen())
		for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
			// Spans are kept for the first traced pass only: the span file
			// stays small, and push times come from every traced pass.
			var spanTr *tracer
			if tracing && len(traced) == 0 {
				spanTr = tr
			}
			res, err := runIngestPass(p, d, pushedAt, spanTr, tracing)
			if err != nil {
				return err
			}
			if heapMB < 0 {
				// Live heap with every key resident: the engine the first
				// pass built, over the inputs already resident at base.
				runtime.GC()
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				heapMB = (float64(ms.HeapAlloc) - float64(base.HeapAlloc)) / (1 << 20)
			}
			res.eng = nil
			r.attempted += res.pushes
			r.failed += res.failed
			r.gate(fmt.Sprintf("hot key snapshot, pass %d", pass+1), bytes.Equal(res.snapshot, ref),
				"engine snapshot of %s vs a single Monitor fed the same reports (%d bytes)", d.hot, len(ref))
			out.mevs = append(out.mevs, res.mevs)
			out.lats = append(out.lats, res.lats...)
			dist := summarize(res.lats)
			p99v, err := percentile(res.lats, 0.99)
			if err != nil {
				return fmt.Errorf("evaluation latency of pass %d: %w", pass+1, err)
			}
			out.p50s = append(out.p50s, dist.Median)
			out.p99s = append(out.p99s, p99v)
			if tracing {
				traced = append(traced, res)
			}
		}
		out.genGC = cpu.gcFraction()
	}
	untraced := outs[false]
	r.timing("ingest_mev_s per pass", append([]float64(nil), untraced.mevs...))
	r.timing("evaluation latency ms", untraced.lats)
	r.timing("evaluation latency p99 ms per pass", append([]float64(nil), untraced.p99s...))
	p50, p99v := median(untraced.p50s), median(untraced.p99s)
	r.set("throughput_per_s", median(untraced.mevs)*1e6, len(untraced.mevs))
	r.set("latency_p50_ms", p50, len(untraced.lats))
	r.set("latency_p99_ms", p99v, len(untraced.lats))
	r.set("heap_live_mb", heapMB, 1)
	if err := r.measureError(); err != nil {
		return err
	}

	if r.trace {
		tracedOut := outs[true]
		r.overhead["throughput_per_s"] = [2]float64{median(untraced.mevs) * 1e6, median(tracedOut.mevs) * 1e6}
		tp50 := median(tracedOut.p50s)
		r.overhead["latency_p50_ms"] = [2]float64{p50, tp50}
		r.layer["trace.overhead_throughput"] = r.overhead["throughput_per_s"][1] / r.overhead["throughput_per_s"][0]
		r.layer["trace.overhead_latency_p50"] = tp50 / p50
		r.layer["gc.generator_cpu_fraction"] = tracedOut.genGC
		if err := ingestLayers(r, p, d, traced); err != nil {
			return err
		}
		r.spans = tr.take()
	}
	return nil
}

// referenceSnapshot feeds the hot key's reports, with the same report
// boundaries, through one Monitor and encodes its snapshot.
func referenceSnapshot(p ingestParams, d *ingestData) ([]byte, error) {
	pol, err := qlove.New(operatorConfig())
	if err != nil {
		return nil, err
	}
	mon, err := qlove.NewMonitor(pol, spec)
	if err != nil {
		return nil, err
	}
	for i, k := range d.seq.keys {
		if k == d.hot {
			mon.PushBatch(d.seq.values(i), nil)
		}
	}
	return wire.AppendFrame(nil, d.hot, pol.Snapshot()), nil
}

// ingestLayers fills the engine and core per-layer metrics from the
// traced passes and a single-thread replay.
func ingestLayers(r *run, p ingestParams, d *ingestData, traced []*ingestPass) error {
	var push, blocked, skew, evals []float64
	hw := 0
	for _, res := range traced {
		push = append(push, res.pushUs...)
		tot := res.stats.Total()
		blocked = append(blocked, tot.Blocked.Seconds())
		skew = append(skew, res.stats.Skew())
		evals = append(evals, float64(tot.EvalsDelivered))
		hw = max(hw, tot.QueueHighWater)
	}
	p50, p99v, err := r.p99("engine.push_us", push)
	if err != nil {
		return err
	}
	r.layer["engine.push_us_p50"] = p50
	r.layer["engine.push_us_p99"] = p99v
	r.layer["engine.blocked_s"] = median(blocked)
	r.layer["engine.queue_high_water"] = float64(hw)
	r.layer["engine.shard_skew"] = median(skew)
	r.layer["engine.evals"] = median(evals)
	r.layers["engine.push_us"] = layerSummary{Count: len(push), SelfMeanUs: mean(push), Self: r.timings["engine.push_us"]}
	return coreReplay(r, p, d)
}

// coreReplay is the single-thread baseline: the same reports through one
// Monitor.PushBatch per key, each call timed and classified by whether it
// emitted an evaluation (seal, Level-1 quantiles, Level-2 average, few-k
// merge and burst test) or only observed (quantize and insert).
func coreReplay(r *run, p ingestParams, d *ingestData) error {
	seq := d.seq
	mons := make(map[string]*qlove.Monitor, p.Keys)
	for _, k := range seq.keys {
		if mons[k] != nil {
			continue
		}
		pol, err := qlove.New(operatorConfig())
		if err != nil {
			return err
		}
		if mons[k], err = qlove.NewMonitor(pol, spec); err != nil {
			return err
		}
	}
	observe := make([]float64, 0, seq.len())
	seal := make([]float64, 0, d.evals)
	emitted := false
	emit := func(qlove.Result) { emitted = true }
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i, k := range seq.keys {
		emitted = false
		t0 := nowNanos()
		mons[k].PushBatch(seq.values(i), emit)
		dt := float64(nowNanos() - t0)
		if emitted {
			seal = append(seal, dt)
		} else {
			observe = append(observe, dt)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	events := float64(len(seq.vals))
	obsMean := mean(observe)
	r.layer["core.mev_s"] = events / elapsed.Seconds() / 1e6
	r.layer["core.observe_ns_per_event"] = obsMean / float64(p.Report)
	r.layer["core.seal_us"] = (mean(seal) - obsMean) / 1e3
	r.layer["core.allocs_per_event"] = float64(after.Mallocs-before.Mallocs) / events
	r.layer["core.bytes_per_event"] = float64(after.TotalAlloc-before.TotalAlloc) / events
	r.timing("core.observe_call_ns", observe)
	r.timing("core.seal_call_ns", seal)
	return nil
}
