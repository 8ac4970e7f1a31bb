package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

// A span is one call into a layer, recorded from this benchmark's own
// wrappers around the layer's public functions. Spans of one request share
// an ID: a push is "p:<worker>#<n>", the worker's n-th push (a worker's
// pushes are serial, and the fan-in forwards ?worker= to the replicas); a
// query is "q:<key>", joined further by time containment.
type span struct {
	Layer string `json:"layer"`
	ID    string `json:"id"`
	Peer  string `json:"peer,omitempty"` // replica address, where one is involved
	Start int64  `json:"start"`          // Unix nanoseconds
	End   int64  `json:"end"`
}

func (s span) iv() interval { return interval{s.Start, s.End} }

// tracer keeps spans in memory until the run writes them out. Recording is
// switched on and off at run time, so one process can measure an untraced
// and a traced phase.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
	seqMu sync.Mutex
	seqs  map[string]int
}

func newTracer() *tracer { return &tracer{seqs: make(map[string]int)} }

func (t *tracer) add(s span) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the recorded spans and forgets them.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// next counts calls per stream whether or not recording is on, so every
// layer numbers a worker's pushes the same way.
func (t *tracer) next(stream string) int {
	t.seqMu.Lock()
	defer t.seqMu.Unlock()
	n := t.seqs[stream]
	t.seqs[stream] = n + 1
	return n
}

// requestID names the request a span of layer belongs to; each layer and
// peer numbers a worker's pushes on its own.
func (t *tracer) requestID(layer string, u *url.URL, peer string) string {
	q := u.Query()
	switch u.Path {
	case "/push":
		w := q.Get("worker")
		return pushID(w, t.next(layer+"|"+w+"@"+peer))
	case "/query":
		return "q:" + q.Get("key")
	}
	return u.Path
}

func pushID(worker string, n int) string { return fmt.Sprintf("p:%s#%d", worker, n) }

func nowNanos() int64 { return time.Now().UnixNano() }

// traceHandler is HTTP middleware recording one span per request served
// by h (the fan-in's or a replica's root handler).
func traceHandler(t *tracer, layer, peer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := t.requestID(layer, r.URL, peer)
		start := nowNanos()
		h.ServeHTTP(w, r)
		t.add(span{Layer: layer, ID: id, Peer: peer, Start: start, End: nowNanos()})
	})
}

// traceTransport records the fan-in's round trips to its replicas, from
// sending the request until the response body is closed.
type traceTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (tt *traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := tt.t.requestID("replica_rtt", req.URL, req.URL.Host)
	req = req.WithContext(serverWait(req.Context(), tt.t, "replica_rtt.wait", id, req.URL.Host))
	start := nowNanos()
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		tt.t.add(span{Layer: "replica_rtt", ID: id, Peer: req.URL.Host, Start: start, End: nowNanos()})
	}}
	return resp, nil
}

// serverWait records, as a span of layer, the part of one client round
// trip that waits on the server: from the request fully written to the
// first response byte. The rest of the round trip (waiting for a pooled
// connection, writing the request, reading the response) is the client's
// own transport work, measured directly rather than as what the server's
// spans leave over; of the wait, only what the server's handler span
// covers is attributed to a layer, so the network, request parsing and
// response writing stay unaccounted.
func serverWait(ctx context.Context, t *tracer, layer, id, peer string) context.Context {
	var wrote atomic.Int64
	return httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		WroteRequest: func(httptrace.WroteRequestInfo) { wrote.Store(nowNanos()) },
		GotFirstResponseByte: func() {
			if w := wrote.Load(); w != 0 {
				t.add(span{Layer: layer, ID: id, Peer: peer, Start: w, End: nowNanos()})
			}
		},
	})
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// tracedReplicaClient is the fan-in's replica client with traceTransport
// inside, configured like the fan-in's built-in client: the same overall
// timeout, a dial deadline of at most 2s and 16 idle connections per
// replica.
func tracedReplicaClient(t *tracer, timeout time.Duration) *http.Client {
	dial := min(timeout, 2*time.Second)
	return &http.Client{
		Timeout: timeout,
		Transport: &traceTransport{t: t, base: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: dial}).DialContext,
			MaxIdleConnsPerHost: 16,
		}},
	}
}

// tracedBackend times a replica's Apply and Query. Embedding keeps the
// aggregator's Metrics, DurabilityErr and slot porter, which the server
// finds by type assertion.
type tracedBackend struct {
	*qlove.Aggregator
	t      *tracer
	peer   string
	frames atomic.Int64 // frames applied, for storage bytes per frame
}

func (b *tracedBackend) Apply(worker string, r io.Reader) (int, error) {
	id := pushID(worker, b.t.next("aggregator.apply|"+worker+"@"+b.peer))
	start := nowNanos()
	n, err := b.Aggregator.Apply(worker, r)
	b.t.add(span{Layer: "aggregator.apply", ID: id, Peer: b.peer, Start: start, End: nowNanos()})
	b.frames.Add(int64(n))
	return n, err
}

func (b *tracedBackend) Query(key string) (qlove.Snapshot, bool, error) {
	start := nowNanos()
	sn, ok, err := b.Aggregator.Query(key)
	b.t.add(span{Layer: "aggregator.query", ID: "q:" + key, Peer: b.peer, Start: start, End: nowNanos()})
	return sn, ok, err
}
