// Command qbench is the repository benchmark. It loads the benchmark
// corpus, runs one named workload for a fixed time with inputs derived
// from a seed, checks every answer against an oracle, and prints one
// JSON result line: the end-to-end metrics, or with -trace 1 the
// per-layer metrics of a separate traced run. See README.md.
//
//	go run . -workload clinic-bulk -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"qbism/internal/qbism"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the untraced run's metrics with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"throughput_qps", "ops/s"},
	{"max_rate_qps", "ops/s"},
	{"lfm_pages_per_query", "pages"},
	{"sim_s_per_query", "s"},
	{"stored_bytes_per_voxel", "bytes"},
	{"mem_peak_mb", "MiB"},
}

// perLayer lists the traced run's metrics with their units. Timings are
// medians over the traced operations; counts are per operation unless
// the unit says otherwise.
var perLayer = []struct{ name, unit string }{
	{"transport.call_ms", "ms"},
	{"transport.self_ms", "ms"},
	{"transport.conn_wait_ms", "ms"},
	{"loadgen.lag_ms", "ms"},
	{"loadgen.invalid_steps", "count"},
	{"transport.response_bytes", "bytes"},
	{"transport.messages", "count"},
	{"transport.retries", "count"},
	{"transport.server_calls", "count"},
	{"transport.server_errors", "count"},
	{"transport.admission_rejected", "count"},
	{"qbism.handle_ms", "ms"},
	{"qbism.handle_self_ms", "ms"},
	{"qbism.client_ms", "ms"},
	{"qbism.region_probe_ratio", "ratio"},
	{"qbism.degraded", "count"},
	{"qbism.batch_ms", "ms"},
	{"qbism.batch_parallel_efficiency", "ratio"},
	{"sdb.parse_ms", "ms"},
	{"sdb.query_ms", "ms"},
	{"sdb.self_ms", "ms"},
	{"sdb.udf_calls", "count"},
	{"sdb.udf_probe_calls", "count"},
	{"sdb.rows_per_result", "rows"},
	{"lfm.pages", "pages"},
	{"lfm.reads", "count"},
	{"lfm.read_ms", "ms"},
	{"volume.extract_ms", "ms"},
	{"volume.useful_byte_ratio", "ratio"},
	{"rencode.decode_ms", "ms"},
	{"rencode.encode_ms", "ms"},
	{"rencode.probe_ms", "ms"},
	{"region.frombox_ms", "ms"},
	{"region.intersect_ms", "ms"},
	{"region.recode_ms", "ms"},
	{"dx.import_ms", "ms"},
	{"dx.render_ms", "ms"},
	{"dx.render_share_pct", "%"},
	{"dx.voxels", "count"},
	{"sfc.point_ns_per_voxel", "ns"},
	{"setup.synth_s", "s"},
	{"setup.warp_s", "s"},
	{"setup.band_s", "s"},
	{"setup.encode_s", "s"},
	{"setup.store_s", "s"},
	{"runtime.alloc_kb_per_query", "KiB"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.latency_p50_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"bench.samples", "count"},
	{"bench.error_ratio", "ratio"},
}

// run is the state of one benchmark invocation.
type run struct {
	seed    uint64
	seconds float64
	trace   bool
	root    string

	// setups is how many times the corpus is loaded for setup_s.
	// minSamples is the floor of latencies a measured phase collects.
	// fixedOps, when positive, replaces every time budget with exactly
	// that many operations (warm-up excepted): the self-tests' short,
	// repeatable mode.
	setups     int
	minSamples int
	fixedOps   int

	attempted, failed int64
	mismatch          error // first wrong answer, if any

	e2e   map[string]float64
	layer map[string]float64
}

// fail records a failed operation; a wrong answer also marks the run
// incorrect.
func (r *run) fail(err error, wrong bool) {
	r.failed++
	if wrong && r.mismatch == nil {
		r.mismatch = err
	}
	fmt.Fprintf(os.Stderr, "qbench: %v\n", err)
}

type workload struct {
	name string
	run  func(r *run) error
}

var workloads = []workload{
	{"clinic-bulk", runClinicBulk},
	{"clinic-selective", runClinicSelective},
	{"daemon-mixed", runDaemonMixed},
	{"population", runPopulation},
}

func main() {
	name := flag.String("workload", "", "workload to run: clinic-bulk, clinic-selective, daemon-mixed, population")
	seed := flag.Uint64("seed", 1, "seed for the corpus and the query stream")
	seconds := flag.Float64("seconds", 10, "measured time of the run")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	root := flag.String("root", ".", "checkout root; the traced run writes its spans under .bench_build there")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	r := &run{seed: *seed, seconds: *seconds, trace: *trace == 1, root: *root,
		setups: setupRepeats, minSamples: minSamples}
	res, err := execute(*w, r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// execute runs one workload and assembles its result line.
func execute(w workload, r *run) (*result, error) {
	r.e2e, r.layer = map[string]float64{}, map[string]float64{}
	if err := w.run(r); err != nil {
		return nil, err
	}
	if r.attempted == 0 {
		return nil, fmt.Errorf("no operation completed")
	}
	r.e2e["mem_peak_mb"] = peakRSSMiB()
	r.layer["bench.error_ratio"] = float64(r.failed) / float64(r.attempted)
	res := &result{Correct: r.mismatch == nil, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	list, values := endToEnd, r.e2e
	if r.trace {
		list, values = perLayer, r.layer
	}
	for _, m := range list {
		res.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
	}
	return res, nil
}

// memDelta samples the Go runtime's allocation and GC pause totals.
type memDelta struct{ alloc, pause uint64 }

func memSample() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{ms.TotalAlloc, ms.PauseTotalNs}
}

// recordRuntime sets the runtime per-layer metrics from samples taken
// around ops untraced operations.
func (r *run) recordRuntime(before, after memDelta, ops int) {
	if ops == 0 {
		return
	}
	r.layer["runtime.alloc_kb_per_query"] = float64(after.alloc-before.alloc) / 1024 / float64(ops)
	r.layer["runtime.gc_pause_ms"] = float64(after.pause-before.pause) / 1e6 / float64(ops)
}

// recordSpans turns the tracer's spans into per-layer timings and writes
// them to .bench_build/trace/<workload>-<seed>.jsonl.
func (r *run) recordSpans(tr *tracer, workload string) error {
	total, self := tr.layerTimes()
	for _, name := range []string{"transport.call", "qbism.handle", "qbism.client", "sdb.parse", "sdb.query",
		"lfm.read", "volume.extract", "rencode.decode", "rencode.encode", "rencode.probe",
		"region.frombox", "region.intersect", "region.recode", "dx.import", "dx.render", "qbism.batch"} {
		r.layer[name+"_ms"] = median(total[name])
	}
	r.layer["transport.self_ms"] = median(self["transport.call"])
	r.layer["qbism.handle_self_ms"] = median(self["qbism.handle"])
	r.layer["sdb.self_ms"] = median(self["sdb.query"])
	// The render share's base is the summed latency of the traced
	// operations (the root spans).
	if ops := sum(total["op"]); ops > 0 {
		r.layer["dx.render_share_pct"] = sum(total["dx.render"]) / ops * 100
	}
	return tr.write(filepath.Join(r.root, ".bench_build", "trace", fmt.Sprintf("%s-%d.jsonl", workload, r.seed)))
}

// deadline returns the end of a phase lasting d seconds from now.
func deadline(d float64) time.Time { return time.Now().Add(time.Duration(d * float64(time.Second))) }

// budget is how long a closed-loop phase runs: until seconds have
// passed and at least minOps operations were issued.
type budget struct {
	seconds float64
	minOps  int
}

// budget returns a measured phase's budget: share of the run's seconds,
// with the latency sample floor when the phase yields end-to-end
// latencies. In fixed-ops mode it is exactly fixedOps operations.
func (r *run) budget(share float64, latencies bool) budget {
	if r.fixedOps > 0 {
		return budget{0, r.fixedOps}
	}
	b := budget{seconds: r.seconds * share}
	if latencies {
		b.minOps = r.minSamples
	}
	return b
}

// warmUp returns the warm-up budget: every operation of a cycle of n at
// least once, and warmSeconds unless in fixed-ops mode.
func (r *run) warmUp(n int) budget {
	if r.fixedOps > 0 {
		return budget{0, n}
	}
	return budget{warmSeconds, n}
}

// recordSetupLayers replays one study's load and records its stages.
func (r *run) recordSetupLayers(sys *qbism.System) error {
	layers, err := setupLayers(sys)
	if err != nil {
		return err
	}
	for k, v := range layers {
		r.layer[k] = v
	}
	return nil
}
