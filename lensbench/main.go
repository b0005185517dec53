// Command lensbench benchmarks gamelens the way cmd/classify runs it in
// production: raw frames handed to one Producer on a single reader
// goroutine, a 2-shard engine, the emitter, and the report tier (sharded
// rollup window, tiered archive, checkpointer) wired as
// `classify -flow-ttl 15s -rollup 1h -checkpoint FILE -archive DIR`
// wires them (monitor.go). Inputs are synthesized from the seed during
// set-up, outside every timed region, and replayed in passes from a
// bounded corpus.
//
// Workloads:
//
//   - steady: eight long sessions past their launch stage. The per-packet
//     layers (peek, handoff, decode, gaming filter fast path, features,
//     stage and QoE) do almost all the work.
//   - churn: a gateway mix of short cloud-gaming sessions (the first 7 s of
//     a launch: filter verdict and title decision) opening and expiring
//     under TTL eviction, interleaved with slightly more frames of
//     non-gaming UDP that stays Pending or gets Rejected, so the filter
//     table grows and expires thousands of entries per pass. Every pass
//     rewrites client addresses, so it opens fresh sessions.
//   - archive: the report tier alone, 10^5 reports from 10^4 subscribers
//     over 90 days of packet time, then a read phase. Packet layers do no
//     work.
//
// Usage (from the repository root):
//
//	bash lensbench/run.sh --workload steady --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics BENCHMARK.json names — its end_to_end metrics with
// --trace 0, its per_layer metrics with --trace 1. The line before it is
// the machine record (CPU, nproc, GOMAXPROCS, Go version, archive
// filesystem, calibration kernel). A fuller record — per-repetition
// values, the per-layer ledger and, with --trace 1, the spans — is written
// under .bench_build/lensbench/.
//
// A record is a frame on steady and churn and a session report on archive.
// Each repetition runs one fixed plan on a fresh engine and report tier
// and is checked: every frame handed in is processed, the order-normalized
// report set equals the single-threaded core.Pipeline reference computed
// during set-up, and the archive holds every session. records_per_s,
// cpu_ns_per_record, query_p50_ms and query_p95_ms are medians over
// repetitions; the query figures are percentiles of each repetition's
// read phase of 216 queries. The packet workloads' report tier resumes a
// two-day history archive, so their read phase queries what a
// long-running monitor holds. The archive lives on an in-memory
// filesystem.
//
// Allocation and state per record are per-layer metrics (monitor.*): on
// steady they are dominated by how many handoff batches the engine's pool
// grew to, which varies from run to run far beyond any useful bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"time"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lensbench: ")
	workload := flag.String("workload", "", "steady, churn or archive")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "how long to measure")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	flag.Parse()
	if flag.NArg() != 0 || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1); err != nil {
		log.Fatal(err)
	}
}

// metricSpec is one metric BENCHMARK.json names.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// loadSpec reads the metric lists the run must print.
func loadSpec() (endToEnd, perLayer []metricSpec, err error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, nil, err
	}
	var doc struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return doc.EndToEnd, doc.PerLayer, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is what a workload run hands back: its metric values by name,
// the failure accounting, and the detail that goes to the record file.
type outcome struct {
	values    map[string]float64
	attempted int64
	failed    int64
	detail    map[string]any
	tr        *tracer
}

func run(workload string, seed int64, seconds time.Duration, traced bool) error {
	endToEnd, perLayer, err := loadSpec()
	if err != nil {
		return err
	}
	want := endToEnd
	if traced {
		want = perLayer
	}
	var out outcome
	switch workload {
	case "steady", "churn":
		out, err = runPackets(workload, seed, seconds, traced)
	case "archive":
		out, err = runArchive(seed, seconds, traced)
	default:
		return fmt.Errorf("unknown workload %q (want steady, churn or archive)", workload)
	}
	if err != nil {
		return err
	}
	mach := machineRecord()
	out.values["calib.kernel_ns"] = mach.CalibNs
	if setup, ok := out.detail["setup"].(map[string]any); ok {
		out.values["setup.corpus_mb"] = float64(setup["corpus_bytes"].(int64)) / 1e6
		out.values["setup.peak_rss_mb"] = float64(setup["peak_rss_bytes"].(int64)) / 1e6
	}
	res := result{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	res.Correct = out.failed == 0 && out.attempted > 0
	for _, m := range want {
		v, ok := out.values[m.Name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", workload, m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("workload %s measured %s as %v", workload, m.Name, v)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if err := writeRecord(workload, seed, traced, mach, res, out); err != nil {
		return err
	}
	machLine, _ := json.Marshal(map[string]any{"machine": mach})
	fmt.Println(string(machLine))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// writeRecord saves the run's full record inside the checkout.
func writeRecord(workload string, seed int64, traced bool, mach machine, res result, out outcome) error {
	dir := filepath.Join(".bench_build", "lensbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := map[string]any{
		"workload": workload, "seed": seed, "trace": traced,
		"machine": mach, "result": res, "detail": out.detail,
	}
	if out.tr != nil {
		rec["spans"] = out.tr.spans
	}
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	mode := 0
	if traced {
		mode = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", workload, seed, mode)), b, 0o644)
}
