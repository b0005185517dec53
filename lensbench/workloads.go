package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"gamelens"
	"gamelens/internal/mlkit"
	"gamelens/internal/stageclass"
	"gamelens/internal/titleclass"
)

// Set-up is repeated per run and setup_s is the median, so a single slow
// set-up does not read as a regression: setupReps times for the packet
// workloads, which train models, and archiveSetupReps times for the
// archive's, which is cheap and so noisier.
const (
	setupReps        = 3
	archiveSetupReps = 9
)

// minReps is the fewest measured repetitions a run makes, however short
// --seconds is.
const minReps = 3

// trainSeed fixes the models, as cmd/classify's -train-seed default does:
// the workload seed varies only the inputs.
const trainSeed = 42

// trainModels trains both classifiers at a fixed reduced size: three
// sessions per title and small forests, enough for the title decision to
// be right most of the time at a few seconds of set-up.
func trainModels() (*gamelens.Models, error) {
	return gamelens.TrainModels(trainSeed, gamelens.TrainOptions{
		SessionsPerTitle: 3,
		SessionLength:    8 * time.Minute,
		TitleConfig:      titleclass.Config{Forest: mlkit.ForestConfig{NumTrees: 40, MaxDepth: 10}},
		StageConfig: stageclass.Config{
			StageForest:   mlkit.ForestConfig{NumTrees: 25, MaxDepth: 10},
			PatternForest: mlkit.ForestConfig{NumTrees: 25, MaxDepth: 10},
		},
	})
}

// corpusBound caps a packet corpus: one pass plus the steady lead, never
// a full-length capture (a flat arena of four flows for three minutes
// already takes over a gigabyte). Set-up records the actual size and the
// peak RSS.
const corpusBound = 192 << 20

// probeFrames sizes the steady-shaped probe corpus the archive workload's
// traced run costs the packet layers on.
const probeFrames = 8 << 10

// newPacketBench is one packet-workload set-up — steady, churn, or the
// archive's probe: models, corpus, the single-threaded reference, the
// history archive, and one construction of the engine and report tier.
func newPacketBench(workload string, seed int64) (*packetBench, error) {
	models, err := trainModels()
	if err != nil {
		return nil, err
	}
	b := &packetBench{models: models, seed: seed}
	switch workload {
	case "steady", "probe":
		flows, frames := steadyFlows, steadyFrames
		if workload == "probe" {
			flows, frames = 2, probeFrames
		}
		b.lead, b.c, err = buildSteady(seed, flows, frames)
		if err == nil {
			b.warm, b.timed = steadyPlan(b.lead, b.c)
		}
	default:
		b.c, err = buildChurn(seed)
		if err == nil {
			b.warm, b.timed = churnPlan(b.c)
		}
	}
	if err != nil {
		return nil, err
	}
	if n := b.bytes(); n > corpusBound {
		b.release()
		return nil, fmt.Errorf("%s corpus takes %d bytes, over the %d-byte bound", workload, n, corpusBound)
	}
	if err := b.computeReference(); err != nil {
		b.release()
		return nil, err
	}
	if b.hist, err = buildHistory(seed); err != nil {
		b.release()
		return nil, err
	}
	mon, err := newMonitor(nil, b.hist.fs.clone())
	if err != nil {
		b.release()
		return nil, err
	}
	gamelens.NewEngine(mon.engineConfig(engineShards, nil), models).Finish()
	return b, nil
}

// setupDetail records what set-up cost besides time.
func setupDetail(times []float64, corpusBytes int64) map[string]any {
	return map[string]any{
		"setup_s":        times,
		"corpus_bytes":   corpusBytes,
		"peak_rss_bytes": peakRSS(),
	}
}

func runPackets(workload string, seed int64, seconds time.Duration, traced bool) (outcome, error) {
	var b *packetBench
	var times []float64
	for i := 0; i < setupReps; i++ {
		if b != nil {
			b.release()
			b = nil
		}
		runtime.GC() // every set-up starts from the same collected heap
		start := time.Now()
		nb, err := newPacketBench(workload, seed)
		if err != nil {
			return outcome{}, err
		}
		times = append(times, time.Since(start).Seconds())
		b = nb
	}
	defer b.release()
	out := outcome{values: map[string]float64{}, detail: map[string]any{"setup": setupDetail(times, b.bytes())}}
	out.values["setup_s"] = median(times)
	log.Printf("%s: set-up %.2fs (median of %v), corpus %d frames per pass / %.1f MB, %d reference reports, titles %d/%d right",
		workload, out.values["setup_s"], times, len(b.c.refs), float64(b.bytes())/1e6,
		len(b.ref.hashes), b.ref.titleOK, b.ref.titled)
	if traced {
		return tracePackets(b, seconds, out)
	}

	reps, err := measure(seconds, &out, func(k int) (figures, error) {
		r, err := b.rep(k, engineShards, nil)
		return r.figures, err
	})
	if err != nil {
		return out, err
	}
	summarize(workload, &out, reps)
	return out, nil
}

// measure runs one unrecorded warm-up repetition, then repetitions until
// seconds have passed and at least minReps are recorded. Every
// repetition, the warm-up included, counts toward attempted and failed.
func measure(seconds time.Duration, out *outcome, rep func(k int) (figures, error)) ([]figures, error) {
	var reps []figures
	deadline := time.Now().Add(seconds)
	for k := 0; k == 0 || len(reps) < minReps || time.Now().Before(deadline); k++ {
		r, err := rep(k)
		if err != nil {
			return nil, err
		}
		out.attempted += r.attempted
		out.failed += r.failed
		if k > 0 {
			reps = append(reps, r)
		}
	}
	return reps, nil
}

// series holds, per repetition, the records per wall second, CPU ns and
// allocated bytes per record, and the state held in MB: the values every
// run takes medians of.
type series struct{ rate, cpu, alloc, state []float64 }

// figs lets seriesOf read the figures of any repetition type embedding them.
func (f figures) figs() figures { return f }

func seriesOf[R interface{ figs() figures }](reps []R) series {
	var s series
	for _, r := range reps {
		f := r.figs()
		n := float64(f.records)
		s.rate = append(s.rate, n/f.m.wall.Seconds())
		s.cpu = append(s.cpu, float64(f.m.cpu.Nanoseconds())/n)
		s.alloc = append(s.alloc, float64(f.m.alloc)/n)
		s.state = append(s.state, float64(f.state)/1e6)
	}
	return s
}

// summarize sets the end-to-end metrics: medians over repetitions of
// records per wall second, CPU per record, and the p50 and p95 of each
// repetition's read phase. A repetition's read phase holds enough queries
// for its p95 to have ten latencies beyond it, and the median over
// repetitions keeps a burst of host contention during a few of them from
// moving the run's figure. Allocation and state go to the record (their
// per-layer counterparts are monitor.*).
func summarize(workload string, out *outcome, reps []figures) {
	s := seriesOf(reps)
	var p50s, p95s []float64
	var digests []uint64
	queries := 0
	for _, r := range reps {
		p50s = append(p50s, quantile(r.queries.latMs, 0.5))
		p95s = append(p95s, quantile(r.queries.latMs, 0.95))
		digests = append(digests, r.queries.digest)
		queries += len(r.queries.latMs)
	}
	out.detail["reps"] = map[string]any{
		"records": reps[0].records, "records_per_s": s.rate, "cpu_ns_per_record": s.cpu,
		"alloc_bytes_per_record": s.alloc, "state_mb": s.state, "queries": queries, "query_digests": digests,
		"query_p50_ms": p50s, "query_p95_ms": p95s,
	}
	v := out.values
	v["records_per_s"] = median(s.rate)
	v["cpu_ns_per_record"] = median(s.cpu)
	v["query_p50_ms"] = median(p50s)
	v["query_p95_ms"] = median(p95s)
	log.Printf("%s: %d reps of %d records: %.0f records/s, %.0f cpu ns/record, %.2f B/record, state %.2f MB, query p50 %.3f ms p95 %.3f ms (medians over reps of %d queries)",
		workload, len(reps), reps[0].records, v["records_per_s"], v["cpu_ns_per_record"], median(s.alloc), median(s.state),
		v["query_p50_ms"], v["query_p95_ms"], len(reps[0].queries.latMs))
}

func runArchive(seed int64, seconds time.Duration, traced bool) (outcome, error) {
	var a *archiveBench
	var times []float64
	for i := 0; i < archiveSetupReps; i++ {
		a = nil
		runtime.GC()
		start := time.Now()
		a = buildArchive(seed)
		if _, err := newMonitor(nil, newMemFS()); err != nil {
			return outcome{}, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	out := outcome{values: map[string]float64{}, detail: map[string]any{"setup": setupDetail(times, a.bytes())}}
	out.values["setup_s"] = median(times)
	if traced {
		return traceArchive(a, seconds, out)
	}
	var st gamelens.ArchiveStats
	reps, err := measure(seconds, &out, func(k int) (figures, error) {
		r, err := a.rep(k, nil)
		st = r.stats
		out.detail["archive_bytes"] = r.bytes
		return r.figures, err
	})
	if err != nil {
		return out, err
	}
	out.detail["archive"] = st
	summarize("archive", &out, reps)
	return out, nil
}
