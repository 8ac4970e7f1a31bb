package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/loadgen"
)

// The read path (read routing, the fold cache, merge, Estimate and JSON)
// is measured per layer in the pipeline workload's traced run: once the
// traced passes are done, independent dashboard users send open-loop
// Poisson /query traffic at queryRate over every key the tier holds, Zipf
// distributed, so the head hits the replicas' fold cache and the tail
// misses.

const (
	queryRate = 500 // queries per second
	querySkew = 1.1 // Zipf parameter of the query keys, hottest key first
	gateKeys  = 64  // keys whose answers the quiesced tier must get right
	// maxLagGaps is how many mean arrival gaps late the generator may
	// dispatch a query before the probe is marked invalid.
	maxLagGaps = 10
)

// queryLoad drives /query traffic at the fan-in.
type queryLoad struct {
	client *http.Client
	fanin  string
	tr     *tracer
	keys   []string // the query key sequence, drawn from the seed
	n      atomic.Int64
}

// do sends one query and records its span. loadgen times the query from
// its scheduled arrival, including any wait for one of the generator's
// connections; the span starts when the query is sent.
func (q *queryLoad) do(loadgen.Op) error {
	key := q.keys[int(q.n.Add(1)-1)%len(q.keys)]
	id := "q:" + key
	req, err := http.NewRequest(http.MethodGet, q.fanin+"/query?key="+url.QueryEscape(key), nil)
	if err != nil {
		return err
	}
	req = req.WithContext(serverWait(req.Context(), q.tr, "client.query.wait", id, ""))
	start := nowNanos()
	resp, err := q.client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	q.tr.add(span{Layer: "client.query", ID: id, Start: start, End: nowNanos()})
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("query %s: %s", key, resp.Status)
	}
	return nil
}

// queryProbe sends traced open-loop queries for dur over keys (hottest
// first) and fills the read-path layer metrics from their spans and the
// replicas' fold-cache counters.
func queryProbe(r *run, t *tier, client *http.Client, conns int, tr *tracer, keys []string, dur time.Duration) error {
	zipf := rand.NewZipf(rand.New(rand.NewSource(r.seed)), querySkew, 1, uint64(len(keys)-1))
	q := &queryLoad{client: client, fanin: t.fanin, tr: tr, keys: make([]string, 1<<16)}
	for i := range q.keys {
		q.keys[i] = keys[zipf.Uint64()]
	}
	st0, err := t.stats()
	if err != nil {
		return err
	}
	if err := setTracing(t, tr, true); err != nil {
		return err
	}
	res, err := loadgen.Run(context.Background(), loadgen.Config{
		Rate: queryRate, Duration: dur, Seed: r.seed, MaxInFlight: conns,
	}, loadgen.TargetFunc(q.do))
	if err != nil {
		return err
	}
	if err := setTracing(t, tr, false); err != nil {
		return err
	}
	st1, err := t.stats()
	if err != nil {
		return err
	}
	r.attempted += int64(res.Offered)
	r.failed += int64(res.Errors + res.Abandoned)
	d := tierDiff(st0, st1)
	r.layer["aggregator.fold_cache_hits"] = float64(d.hits)
	r.layer["aggregator.fold_cache_misses"] = float64(d.misses)
	r.layer["aggregator.fold_cache_hit_ratio"] = float64(d.hits) / math.Max(float64(d.hits+d.misses), 1)
	r.layer["loadgen.sched_lag_max_ms"] = float64(res.SchedLagMax) / 1e6
	// A generator that ran later than maxLagGaps mean arrival gaps bunched
	// its arrivals: the probe then measured the generator, not the tier.
	if limit := maxLagGaps * time.Second / queryRate; res.SchedLagMax > limit {
		r.invalid = append(r.invalid, fmt.Sprintf("query probe: the generator dispatched up to %v late (limit %v)", res.SchedLagMax, limit))
	}
	r.note("query probe (loadgen, %d/s for %v): %d offered, %d errors, %d abandoned, p50 %v, p99 %v, max sched lag %v",
		queryRate, dur, res.Offered, res.Errors, res.Abandoned, res.P50, res.P99, res.SchedLagMax)
	child, err := t.spans()
	if err != nil {
		return err
	}
	spans := append(tr.take(), child...)
	r.spans = append(r.spans, spans...)
	return queryLayers(r, spans)
}

// knownKeys lists the keys ref holds, hottest first (key-%06d sorts in
// index order, which is hotness order).
func knownKeys(ref *qlove.Aggregator) []string {
	keys := ref.KeyList()
	sort.Strings(keys)
	return keys
}

// gateAnswers compares the quiesced fan-in's answers for a sample of keys
// (the hottest half, then an even spread over the tail) with the
// reference aggregator's estimates, bit for bit.
func gateAnswers(r *run, client *http.Client, fanin string, ref *qlove.Aggregator, keys []string) {
	half := min(gateKeys, len(keys)) / 2
	sample := append([]string(nil), keys[:half]...)
	rest := keys[half:]
	for i := 0; i < half; i++ {
		sample = append(sample, rest[i*len(rest)/half])
	}
	bad, detail := 0, ""
	for _, k := range sample {
		rep, err := queryKey(client, fanin, k)
		sn, ok, rerr := ref.Query(k)
		if err == nil && rerr == nil && ok && bitsEqual(rep.Estimates, sn.Estimates()) {
			continue
		}
		if bad == 0 {
			detail = fmt.Sprintf("; first mismatch %s: fan-in %v (%v), reference %v (%v)", k, rep.Estimates, err, sn.Estimates(), rerr)
		}
		bad++
	}
	r.gate("query answers", bad == 0, "%d of %d sampled keys answered bit-identically to one Aggregator that applied the same blobs%s",
		len(sample)-bad, len(sample), detail)
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
