package main

import (
	"bufio"

	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/aggsrv"
)

// The aggregation tier under test runs in a child process re-exec'd from
// the benchmark binary, so the load generator's garbage collector and
// goroutines stay out of the tier's numbers. The child hosts the fan-in
// and two replicas (R=2, default quorum, disk store syncing its WAL every
// 100 ms: with a sync per record every figure followed the disk's fsync
// latency, which on a shared 2-vCPU virtual machine drifted 2x within
// minutes),
// each on its own loopback listener, plus a control listener the parent
// uses to read process statistics, switch tracing and collect spans.

const (
	tierCmd      = "__tier"
	tierReplicas = 2
	// replicaTimeout is the fan-in's per-request deadline, the built-in
	// client's default.
	replicaTimeout = 10 * time.Second
)

// tierStats is the child's /stats document.
type tierStats struct {
	HeapLiveBytes uint64                    `json:"heap_live_bytes"`
	GCCPUSeconds  float64                   `json:"gc_cpu_seconds"`
	CPUSeconds    float64                   `json:"cpu_seconds"`
	WriteBytes    int64                     `json:"write_bytes"` // storage bytes written, from /proc/self/io
	Frames        int64                     `json:"frames"`      // frames applied on all replicas (traced tiers)
	Replicas      []qlove.AggregatorMetrics `json:"replicas"`
}

// tierChild is the child process's main.
func tierChild(args []string) (err error) {
	fs := flag.NewFlagSet(tierCmd, flag.ContinueOnError)
	dir := fs.String("dir", "", "state directory")
	traced := fs.Bool("trace", false, "wrap every layer for tracing and instrument the stores")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tr := newTracer()
	var (
		aggs    []*qlove.Aggregator
		traces  []*tracedBackend
		servers []*http.Server
		fan     *aggsrv.Fanin
	)
	// Stop serving before closing the fan-in and the stores, so nothing
	// writes to a closed store; a store that fails to close (flush and
	// sync) fails the child.
	defer func() {
		for _, s := range servers {
			s.Close()
		}
		if fan != nil {
			fan.Close()
		}
		for _, a := range aggs {
			if cerr := a.Close(); err == nil {
				err = cerr
			}
		}
	}()
	serve := func(handler func(addr string) http.Handler) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		addr := ln.Addr().String()
		srv := &http.Server{Handler: handler(addr)}
		servers = append(servers, srv)
		go srv.Serve(ln)
		return addr, nil
	}

	var urls []string
	for i := 0; i < tierReplicas; i++ {
		agg, err := qlove.NewAggregatorConfig(qlove.AggregatorConfig{
			Store: "disk", Dir: filepath.Join(*dir, fmt.Sprintf("replica-%d", i)), Fsync: "interval", Instrument: *traced,
		})
		if err != nil {
			return err
		}
		aggs = append(aggs, agg)
		addr, err := serve(func(addr string) http.Handler {
			if !*traced {
				return aggsrv.New(agg).Handler()
			}
			b := &tracedBackend{Aggregator: agg, t: tr, peer: addr}
			traces = append(traces, b)
			return traceHandler(tr, "aggsrv", addr, aggsrv.New(b).Handler())
		})
		if err != nil {
			return err
		}
		urls = append(urls, "http://"+addr)
	}
	cfg := aggsrv.FaninConfig{Replicas: urls, Replication: tierReplicas, Timeout: replicaTimeout}
	if *traced {
		cfg.Client = tracedReplicaClient(tr, replicaTimeout)
	}
	if fan, err = aggsrv.NewFaninConfig(cfg); err != nil {
		return err
	}
	fanAddr, err := serve(func(string) http.Handler {
		if !*traced {
			return fan.Handler()
		}
		return traceHandler(tr, "fanin", "", fan.Handler())
	})
	if err != nil {
		return err
	}

	var quitOnce sync.Once
	quit := make(chan struct{})
	ctl := http.NewServeMux()
	ctl.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		st := tierStats{HeapLiveBytes: ms.HeapAlloc, WriteBytes: procWriteBytes()}
		st.GCCPUSeconds, st.CPUSeconds = gcCPU()
		for _, a := range aggs {
			st.Replicas = append(st.Replicas, a.Metrics())
		}
		for _, b := range traces {
			st.Frames += b.frames.Load()
		}
		json.NewEncoder(w).Encode(st)
	})
	ctl.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		tr.on.Store(r.URL.Query().Get("on") == "1")
	})
	ctl.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(tr.take())
	})
	ctl.HandleFunc("/quit", func(w http.ResponseWriter, r *http.Request) {
		quitOnce.Do(func() { close(quit) })
	})
	ctlAddr, err := serve(func(string) http.Handler { return ctl })
	if err != nil {
		return err
	}
	fmt.Printf("TIER http://%s http://%s\n", fanAddr, ctlAddr)
	// The parent holds our stdin open; EOF means it is gone, so never
	// outlive it.
	orphaned := make(chan struct{})
	go func() {
		io.Copy(io.Discard, os.Stdin)
		close(orphaned)
	}()
	select {
	case <-quit:
	case <-orphaned:
	}
	return nil
}

// procWriteBytes reads the bytes this process caused to be sent to
// storage; -1 where /proc/self/io is unavailable.
func procWriteBytes() int64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(b), "\n") {
		var n int64
		if _, err := fmt.Sscanf(line, "write_bytes: %d", &n); err == nil {
			return n
		}
	}
	return -1
}

// tier is the parent's handle on a running tier child.
type tier struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	fanin  string
	ctl    string
	dir    string
	client *http.Client
}

// startTier starts a tier child on a fresh state directory and waits until
// the fan-in's /healthz reports ok.
func startTier(dir string, traced bool) (*tier, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	args := []string{tierCmd, "-dir", dir}
	if traced {
		args = append(args, "-trace")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	t := &tier{cmd: cmd, stdin: stdin, dir: dir, client: &http.Client{Timeout: 30 * time.Second}}
	// The announcement is the child's only output.
	sc := bufio.NewScanner(out)
	if !sc.Scan() {
		t.kill()
		return nil, fmt.Errorf("tier child exited before announcing its address")
	}
	if _, err := fmt.Sscanf(sc.Text(), "TIER %s %s", &t.fanin, &t.ctl); err != nil {
		t.kill()
		return nil, fmt.Errorf("tier child announced %q: %w", sc.Text(), err)
	}
	if err := t.waitHealthy(10 * time.Second); err != nil {
		t.kill()
		return nil, err
	}
	return t, nil
}

func (t *tier) waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		var h aggsrv.FaninHealth
		err := t.getJSON(t.fanin+"/healthz", &h)
		if err == nil && h.Status == "ok" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("tier not healthy after %v: %v (status %q)", timeout, err, h.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (t *tier) getJSON(u string, v any) error {
	resp, err := t.client.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("GET %s: %s: %s", u, resp.Status, b)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (t *tier) stats() (tierStats, error) {
	var st tierStats
	err := t.getJSON(t.ctl+"/stats", &st)
	return st, err
}

func (t *tier) spans() ([]span, error) {
	var ss []span
	err := t.getJSON(t.ctl+"/spans", &ss)
	return ss, err
}

func (t *tier) setTrace(on bool) error {
	v := "0"
	if on {
		v = "1"
	}
	resp, err := t.client.Post(t.ctl+"/trace?on="+v, "text/plain", nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// stop asks the child to shut down cleanly (closing its stores) and waits
// for it; a child that does not exit in time is killed. The state
// directory is removed either way.
func (t *tier) stop() error {
	defer os.RemoveAll(t.dir)
	if resp, err := t.client.Post(t.ctl+"/quit", "text/plain", nil); err == nil {
		resp.Body.Close()
	}
	done := make(chan error, 1)
	go func() { done <- t.cmd.Wait() }()
	select {
	case err := <-done:
		t.stdin.Close()
		return err
	case <-time.After(10 * time.Second):
		t.cmd.Process.Kill()
		<-done
		t.stdin.Close()
		return fmt.Errorf("tier child did not exit; killed")
	}
}

func (t *tier) kill() {
	t.cmd.Process.Kill()
	t.cmd.Wait()
	t.stdin.Close()
	os.RemoveAll(t.dir)
}

// gcCPU reads this process's cumulative garbage-collector and total CPU
// time estimates from the runtime.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}
