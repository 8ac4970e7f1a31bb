// Command perfbench is the repository's benchmark: one command that runs a
// named workload from a seed, checks every output against a reference
// computation, and prints every end-to-end metric by name with its unit.
// With --trace 1 it runs the workload again with spans recorded around
// each layer's public calls and prints the per-layer metrics instead.
//
// Run it from the root of a checkout through perfbench/run.sh, which
// builds it from that checkout's sources:
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 15 --trace 0
//
// The metric names and units come from BENCHMARK.json at the root, so the
// program and that file cannot drift apart. Result records (with the host
// record), span files and tier state go under .bench_build/perfbench.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// outDir holds everything a run writes, relative to the checkout root.
const outDir = ".bench_build/perfbench"

// benchSpec is the part of BENCHMARK.json the program reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// gate is one correctness check against a reference computation.
type gate struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// run accumulates one invocation's measurements.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	dir      string // outDir, absolute

	params   any
	e2e      map[string]float64
	layer    map[string]float64
	timings  map[string]Dist // every timing behind a metric, with its sample count
	samples  map[string]int  // end-to-end metric -> the sample count behind it
	gates    []gate
	notes    []string
	invalid  []string              // steps whose figures measured the generator, not the system
	overhead map[string][2]float64 // metric -> {untraced, traced}
	layers   map[string]layerSummary
	spans    []span

	attempted, failed int64
}

// layerSummary is a layer's self time and call count in the traced run.
type layerSummary struct {
	Count      int     `json:"count"`
	SelfMeanUs float64 `json:"self_mean_us"`
	Self       Dist    `json:"self_us"`
}

func (r *run) gate(name string, ok bool, format string, args ...any) {
	r.gates = append(r.gates, gate{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	r.attempted++
	if !ok {
		r.failed++
	}
}

// set records an end-to-end metric and the number of samples behind it.
func (r *run) set(name string, v float64, n int) {
	r.e2e[name] = v
	r.samples[name] = n
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// timing records a sample behind a metric and returns its summary.
func (r *run) timing(name string, xs []float64) Dist {
	d := summarize(xs)
	r.timings[name] = d
	return d
}

// p99 records the sample and returns its median and 99th percentile, or
// an error when the sample is too small to support a p99.
func (r *run) p99(name string, xs []float64) (float64, float64, error) {
	d := r.timing(name, xs)
	v, err := percentile(xs, 0.99)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %w", name, err)
	}
	return d.Median, v, nil
}

// phases splits the measuring time between an untraced and a traced half
// when tracing; the end-to-end run measures untraced for the whole time.
func (r *run) phases() []bool {
	if r.trace {
		return []bool{false, true}
	}
	return []bool{false}
}

func (r *run) phaseLen() time.Duration {
	return r.seconds / time.Duration(len(r.phases()))
}

// setupRuns is how many times a run sets up afresh; setup_s is the
// median, so one slow start does not move it.
const setupRuns = 5

func main() {
	if len(os.Args) > 1 && os.Args[1] == tierCmd {
		if err := tierChild(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "tier:", err)
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "", "workload to run: ingest | pipeline")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Int("seconds", 30, "measuring time in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *traceFlag); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, seconds, traceFlag int) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds %d must be at least 1", seconds)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace %d must be 0 or 1", traceFlag)
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the checkout root: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	runners := map[string]func(*run) error{"ingest": runIngest, "pipeline": runPipeline}
	fn, ok := runners[workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q (ingest | pipeline)", workload)
	}
	known := false
	for _, w := range spec.Workloads {
		known = known || w.Name == workload
	}
	if !known {
		return fmt.Errorf("workload %q is not in BENCHMARK.json", workload)
	}
	dir, err := filepath.Abs(outDir)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(dir, "results"), 0o755); err != nil {
		return err
	}
	r := &run{
		workload: workload, seed: seed, seconds: time.Duration(seconds) * time.Second, trace: traceFlag == 1, dir: dir,
		e2e: map[string]float64{}, layer: map[string]float64{}, timings: map[string]Dist{}, samples: map[string]int{},
		overhead: map[string][2]float64{}, layers: map[string]layerSummary{},
	}
	if err := fn(r); err != nil {
		return err
	}
	return r.finish(spec)
}

// finish writes the result record and the span file, prints the human
// summary and, as the last line, the result object.
func (r *run) finish(spec benchSpec) error {
	metrics := map[string]metric{}
	list, values := spec.EndToEnd, r.e2e
	if r.trace {
		list, values = spec.PerLayer, r.layer
	}
	for _, m := range list {
		v, ok := values[m.Name]
		if !ok {
			if !r.trace {
				return fmt.Errorf("end-to-end metric %s was not measured", m.Name)
			}
			// A layer this workload does not pass through reads 0.
			r.note("%s: layer not exercised by %s", m.Name, r.workload)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, v)
		}
		metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	correct := r.failed == 0
	for _, g := range r.gates {
		correct = correct && g.OK
	}
	if len(r.gates) == 0 {
		return fmt.Errorf("no correctness gate ran")
	}

	base := fmt.Sprintf("%s-seed%d-trace%d", r.workload, r.seed, btoi(r.trace))
	if len(r.spans) > 0 {
		if err := writeSpans(filepath.Join(r.dir, "results", base+".spans.jsonl"), r.spans); err != nil {
			return err
		}
	}
	overhead := map[string]map[string]float64{}
	for k, v := range r.overhead {
		overhead[k] = map[string]float64{"untraced": v[0], "traced": v[1], "ratio": v[1] / math.Max(v[0], 1e-300)}
	}
	record := map[string]any{
		"workload": r.workload, "seed": r.seed, "seconds": r.seconds.Seconds(), "trace": r.trace,
		"host": hostRecord(r.dir), "params": r.params, "correct": correct,
		"attempted": r.attempted, "failed": r.failed, "metrics": metrics,
		"samples": r.samples, "timings": r.timings, "gates": r.gates, "notes": r.notes,
	}
	if r.trace {
		record["layers"] = r.layers
		record["tracing_overhead"] = overhead
		record["invalid_steps"] = r.invalid
	}
	b, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(r.dir, "results", base+".json"), b, 0o644); err != nil {
		return err
	}

	fmt.Printf("# %s seed=%d seconds=%v trace=%v host=%s\n", r.workload, r.seed, r.seconds.Seconds(), r.trace, hostLine(r.dir))
	for _, g := range r.gates {
		verdict := "ok"
		if !g.OK {
			verdict = "FAILED"
		}
		fmt.Printf("# gate %-28s %-6s %s\n", g.Name, verdict, g.Detail)
	}
	names := make([]string, 0, len(r.timings))
	for k := range r.timings {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		d := r.timings[k]
		fmt.Printf("# timing %-32s median=%-12.6g p%-6g=%-12.6g n=%d\n", k, d.Median, 100*d.TailPhi, d.Tail, d.N)
	}
	for _, m := range list {
		n := ""
		if c, ok := r.samples[m.Name]; ok {
			n = fmt.Sprintf("n=%d", c)
		}
		fmt.Printf("# metric %-32s %-14.6g %-8s %s\n", m.Name, metrics[m.Name].Value, m.Unit, n)
	}
	for k, v := range overhead {
		fmt.Printf("# tracing overhead %-22s untraced=%.6g traced=%.6g ratio=%.4f\n", k, v["untraced"], v["traced"], v["ratio"])
	}
	for _, s := range r.invalid {
		fmt.Printf("# INVALID %s\n", s)
	}
	for _, n := range r.notes {
		fmt.Printf("# note %s\n", n)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// hostRecord describes the machine next to every result.
func hostRecord(dir string) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"state_fs":   fsType(dir),
		"os":         runtime.GOOS + "/" + runtime.GOARCH,
	}
}

func hostLine(dir string) string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d %s cpu=%q state_fs=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), fsType(dir))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x01021997: "9p", 0x6969: "nfs", 0x2FC12FC1: "zfs",
		0x65735546: "fuse", 0xF2F52010: "f2fs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
