package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/aggsrv"
	"repro/internal/wire"
)

// tierParams shapes the load both tier workloads put on the aggregation
// tier: worker Engines in the generator process export delta blobs and
// push them to the fan-in.
type tierParams struct {
	Workers      int       `json:"workers"`
	Keys         int       `json:"keys_per_worker"`
	Skew         float64   `json:"zipf_skew"`
	Report       int       `json:"report_values"`
	RoundReports int       `json:"reports_per_push"`
	SeqReports   int       `json:"pregenerated_reports_per_worker"` // one pass
	Window       string    `json:"window"`
	Phis         []float64 `json:"phis"`
	FewK         bool      `json:"fewk"`
	Shards       int       `json:"shards_per_engine"`
	Conns        int       `json:"connections"`
	Replicas     int       `json:"replicas"`
	Replication  int       `json:"replication"`
	Store        string    `json:"store"`
	QueryRate    int       `json:"traced_query_rate_per_s"`
}

func defaultTierParams() tierParams {
	n := runtime.NumCPU()
	return tierParams{
		Workers: 8, Keys: 2000, Skew: 1.1, Report: 128, RoundReports: 32, SeqReports: 1024,
		Window: "8192/1024", Phis: phis, FewK: true, Shards: n, Conns: n,
		Replicas: tierReplicas, Replication: tierReplicas, Store: "disk, fsync interval (100ms)", QueryRate: queryRate,
	}
}

// worker is one worker Engine with its pre-generated reports and its
// delta chain to the fan-in.
type worker struct {
	id     string
	seq    *reportSeq
	eng    *qlove.Engine
	drain  chan struct{}
	cur    qlove.ExportCursor
	next   int // reports ingested so far (the sequence wraps around)
	pushes int // pushes sent: the n in the span ID p:<id>#<n>
	buf    bytes.Buffer
	pushed []pushRecord
}

// pushRecord keeps what one push sent and what came back, for the
// correctness gates after the run.
type pushRecord struct {
	blob   []byte
	status int
	frames int // frames the fan-in acknowledged
}

func newWorkers(p tierParams, seed int64) ([]*worker, error) {
	ws := make([]*worker, p.Workers)
	for i := range ws {
		seq, err := genReports(seed*1000+int64(i), p.Keys, p.Skew, p.Report, p.SeqReports, false)
		if err != nil {
			return nil, err
		}
		eng, err := qlove.NewEngine(qlove.EngineConfig{Config: operatorConfig(), Shards: p.Shards})
		if err != nil {
			return nil, err
		}
		w := &worker{id: fmt.Sprintf("worker-%d", i), seq: seq, eng: eng, drain: make(chan struct{})}
		go func() {
			defer close(w.drain)
			for range eng.Results() {
			}
		}()
		ws[i] = w
	}
	return ws, nil
}

func closeWorkers(ws []*worker) {
	for _, w := range ws {
		w.eng.Close()
		<-w.drain
	}
}

// ingest pushes the worker's next n reports into its engine.
func (w *worker) ingest(n int) error {
	for i := 0; i < n; i++ {
		j := w.next % w.seq.len()
		if err := w.eng.Push(w.seq.keys[j], w.seq.values(j)); err != nil {
			return err
		}
		w.next++
	}
	return nil
}

// pushOut is one push's outcome.
type pushOut struct {
	fresh time.Duration
	ok    bool
}

// push waits until the engine has drained its ingest queues (Keys rides
// the shard queues behind every batch), exports the delta since the last
// push and posts it. Freshness runs from the drained seal point, at the
// start of ExportDelta, to the fan-in's ack; a push waits for every
// replica, so the ack means the data is queryable.
func (w *worker) push(client *http.Client, fanin string, tr *tracer) (pushOut, error) {
	w.eng.Keys()
	id := pushID(w.id, w.pushes)
	w.pushes++
	w.buf.Reset()
	t0 := nowNanos()
	if _, err := w.eng.ExportDelta(&w.buf, &w.cur); err != nil {
		return pushOut{}, err
	}
	t1 := nowNanos()
	blob := bytes.Clone(w.buf.Bytes())
	rec := pushRecord{blob: blob}
	req, err := http.NewRequest(http.MethodPost, fanin+"/push?worker="+url.QueryEscape(w.id), bytes.NewReader(blob))
	if err != nil {
		return pushOut{}, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if tr.on.Load() {
		req = req.WithContext(serverWait(req.Context(), tr, "client.push.wait", id, ""))
	}
	resp, err := client.Do(req)
	if err == nil {
		var ack aggsrv.PushResult
		rec.status = resp.StatusCode
		if resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&ack) == nil {
			rec.frames = ack.Frames
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	t2 := nowNanos()
	w.pushed = append(w.pushed, rec)
	tr.add(span{Layer: "push", ID: id, Start: t0, End: t2})
	tr.add(span{Layer: "engine.export", ID: id, Start: t0, End: t1})
	tr.add(span{Layer: "client.push", ID: id, Start: t1, End: t2})
	out := pushOut{fresh: time.Duration(t2 - t0), ok: rec.status == http.StatusOK}
	if !out.ok {
		// The cursor advanced when the blob was encoded; after a lost push
		// the next export must re-bootstrap.
		w.cur.Reset()
	}
	return out, nil
}

// retarget readies the worker for a fresh tier: its next export
// bootstraps, and the new tier numbers its pushes from 0.
func (w *worker) retarget() {
	w.cur.Reset()
	w.pushes = 0
}

// round ingests one round of reports and pushes it.
func (w *worker) round(p tierParams, client *http.Client, fanin string, tr *tracer) (pushOut, error) {
	if err := w.ingest(p.RoundReports); err != nil {
		return pushOut{}, err
	}
	return w.push(client, fanin, tr)
}

// loadClient is the generator's HTTP client: at most conns connections to
// the fan-in, so requests beyond them queue in the generator and the wait
// counts toward their latency.
func loadClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
		},
	}
}

// eachWorker runs fn for every worker concurrently and returns the first
// error.
func eachWorker(ws []*worker, fn func(*worker) error) error {
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(w)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// tierSetup is the pipeline's set-up: generate the workers' inputs and
// start the tier until /healthz is ok.
func tierSetup(r *run, p tierParams) ([]*worker, *tier, *http.Client, error) {
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		ws, err := newWorkers(p, r.seed)
		if err != nil {
			return nil, nil, nil, err
		}
		t, err := startTier(filepath.Join(r.dir, "state"), false)
		if err != nil {
			closeWorkers(ws)
			return nil, nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		client := loadClient(p.Conns)
		if i == setupRuns-1 {
			r.set("setup_s", median(setups), len(setups))
			r.timing("setup_s", setups)
			return ws, t, client, nil
		}
		client.CloseIdleConnections()
		closeWorkers(ws)
		if err := t.stop(); err != nil {
			return nil, nil, nil, err
		}
	}
	panic("unreachable")
}

// reference applies every blob the workers pushed to one in-process
// Aggregator, the view the tier must match once quiesced.
func reference(ws []*worker) (*qlove.Aggregator, error) {
	ref := qlove.NewAggregator()
	for _, w := range ws {
		for i, rec := range w.pushed {
			if rec.status != http.StatusOK {
				continue
			}
			if _, err := ref.Apply(w.id, bytes.NewReader(rec.blob)); err != nil {
				return nil, fmt.Errorf("reference apply %s push %d: %w", w.id, i, err)
			}
		}
	}
	return ref, nil
}

// gatePushes checks every push was acked 200 with the frame count sent.
func gatePushes(r *run, ws []*worker) {
	total, bad := 0, 0
	var detail string
	for _, w := range ws {
		for i, rec := range w.pushed {
			total++
			n := countFrames(rec.blob)
			if rec.status != http.StatusOK || rec.frames != n {
				if bad == 0 {
					detail = fmt.Sprintf("; first: %s push %d status %d, %d of %d frames acked", w.id, i, rec.status, rec.frames, n)
				}
				bad++
			}
		}
	}
	r.attempted += int64(total)
	r.failed += int64(bad)
	r.gate("pushes acked", bad == 0, "%d of %d pushes acked 200 with every frame sent%s", total-bad, total, detail)
}

func countFrames(blob []byte) int {
	sc := wire.NewRawScanner(bytes.NewReader(blob))
	n := 0
	for {
		if _, _, _, err := sc.Next(); err != nil {
			return n
		}
		n++
	}
}

// gateSnapshot compares the fan-in's quiesced /snapshot with the
// reference's, byte for byte.
func gateSnapshot(r *run, t *tier, ref *qlove.Aggregator) error {
	resp, err := t.client.Get(t.fanin + "/snapshot")
	if err != nil {
		return err
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	rec := httptest.NewRecorder()
	aggsrv.New(ref).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/snapshot", nil))
	want := rec.Body.Bytes()
	r.gate("fan-in snapshot", resp.StatusCode == http.StatusOK && bytes.Equal(got, want),
		"fan-in /snapshot (%d bytes, status %d) vs one Aggregator that applied the same blobs (%d bytes, %d keys)",
		len(got), resp.StatusCode, len(want), ref.Keys())
	return nil
}

// queryKey asks the fan-in for key's estimates.
func queryKey(client *http.Client, fanin, key string) (aggsrv.KeyReport, error) {
	var rep aggsrv.KeyReport
	resp, err := client.Get(fanin + "/query?key=" + url.QueryEscape(key))
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return rep, fmt.Errorf("query %s: %s: %s", key, resp.Status, b)
	}
	err = json.NewDecoder(resp.Body).Decode(&rep)
	return rep, err
}

// tierDelta is what changed in the tier between two /stats readings.
type tierDelta struct {
	hits, misses         int64
	writeOps, writeNanos int64
	lockWaitNanos        int64
	writeBytes, frames   int64
	gcFraction           float64
}

var writeOps = map[string]bool{
	"put": true, "drop": true, "replace_group": true, "bootstrap_sub": true,
	"touch": true, "drop_worker": true, "sweep_workers": true,
}

func (st tierStats) sums() (d tierDelta) {
	for _, m := range st.Replicas {
		if m.FoldCache != nil {
			d.hits += m.FoldCache.Hits
			d.misses += m.FoldCache.Misses
		}
		d.lockWaitNanos += m.Store.LockWaitReadNanos + m.Store.LockWaitWriteNanos
		for _, op := range m.Store.Ops {
			if writeOps[op.Op] {
				d.writeOps += op.Count
				d.writeNanos += op.Nanos
			}
		}
	}
	d.writeBytes, d.frames = st.WriteBytes, st.Frames
	return d
}

func tierDiff(a, b tierStats) tierDelta {
	x, y := a.sums(), b.sums()
	d := tierDelta{
		hits: y.hits - x.hits, misses: y.misses - x.misses,
		writeOps: y.writeOps - x.writeOps, writeNanos: y.writeNanos - x.writeNanos,
		lockWaitNanos: y.lockWaitNanos - x.lockWaitNanos,
		writeBytes:    y.writeBytes - x.writeBytes, frames: y.frames - x.frames,
	}
	if cpu := b.CPUSeconds - a.CPUSeconds; cpu > 0 {
		d.gcFraction = (b.GCCPUSeconds - a.GCCPUSeconds) / cpu
	}
	return d
}

// cpuMeter measures this process's garbage-collector share of CPU.
type cpuMeter struct{ gc, total float64 }

func startCPU() cpuMeter { g, t := gcCPU(); return cpuMeter{g, t} }

func (m cpuMeter) gcFraction() float64 {
	g, t := gcCPU()
	if t <= m.total {
		return 0
	}
	return (g - m.gc) / (t - m.total)
}

// setTracing switches span recording in both processes.
func setTracing(t *tier, tr *tracer, on bool) error {
	tr.on.Store(on)
	return t.setTrace(on)
}
