package main

import (
	"log"
	"time"

	"gamelens"
	"gamelens/internal/engine"
	"gamelens/internal/flowdetect"
	"gamelens/internal/packet"
	"gamelens/internal/titleclass"
	"gamelens/internal/trace"
)

// The traced run. End-to-end repetitions alternate untraced and traced
// (and, for the shard-scaling figure, single-shard) on the same plan; the
// traced ones record spans around HandleFrame blocks, the report tier's
// sinks, Tick, Final, Finish and every query. Then each packet layer's
// public functions are timed alone over the timed passes' frames. The
// per-layer figures are means over the work items each span covered.

// tracePackets is the traced run of a packet workload.
func tracePackets(b *packetBench, seconds time.Duration, out outcome) (outcome, error) {
	tr := newTracer()
	out.tr = tr
	var plain, traced, single []repResult
	deadline := time.Now().Add(seconds)
	for k := 0; len(single) < 2 || time.Now().Before(deadline); {
		for _, mode := range []struct {
			shards int
			tr     *tracer
			into   *[]repResult
		}{{engineShards, nil, &plain}, {engineShards, tr, &traced}, {1, nil, &single}} {
			var end func()
			if mode.tr != nil {
				end = tr.phase("rep")
			}
			r, err := b.rep(k, mode.shards, mode.tr)
			k++
			if end != nil {
				end()
			}
			if err != nil {
				return out, err
			}
			out.attempted += r.attempted
			out.failed += r.failed
			*mode.into = append(*mode.into, r)
		}
	}
	v := out.values
	ps := seriesOf(plain)
	var rps []float64
	var emitted, recycled, dropped, decodeErrs, packetsIn int64
	for _, r := range plain {
		rps = append(rps, float64(r.timedReports)/r.m.wall.Seconds())
		emitted += r.stats.EmittedReports
		recycled += r.stats.RecycledReports
	}
	for _, rs := range [][]repResult{plain, traced, single} {
		for _, r := range rs {
			dropped += r.stats.Dropped
			decodeErrs += r.stats.DecodeErrors
		}
	}
	for _, r := range traced {
		packetsIn += r.stats.PacketsIn
	}
	cpuNs, pps := median(ps.cpu), median(ps.rate)
	v["engine.handleframe_ns"] = tr.perItemNs("engine.handleframe")
	v["engine.finish_ms"] = tr.perItemNs("engine.finish") / 1e6
	v["engine.recycled_frac"] = ratio(recycled, emitted)
	v["engine.dropped"] = float64(dropped)
	v["engine.decode_errors"] = float64(decodeErrs)
	v["engine.scale_2v1"] = pps / median(seriesOf(single).rate)
	v["engine.reports_per_s"] = median(rps)
	v["trace.overhead_frac"] = 1 - median(seriesOf(traced).rate)/pps
	v["titleclass.accuracy"] = ratio(int64(b.ref.titleOK), int64(b.ref.titled))
	v["monitor.alloc_bytes_per_record"] = median(ps.alloc)
	v["monitor.state_mb"] = median(ps.state)
	var qs []queryResult
	for _, r := range traced {
		qs = append(qs, r.queries)
	}
	last := traced[len(traced)-1]
	reportTier(tr, v, last.arch, qs, last.archBytes, last.queries.total.Sessions)

	ledger := costPackets(b, tr, v)
	// The report tier's share per frame, from the traced repetitions.
	tier := float64(tr.sum("rollup.fold").DurNs+tr.sum("store.observe").DurNs+tr.sum("store.tick").DurNs) / float64(packetsIn)
	ledger["report_tier"] = tier
	sum := ledger["bench.replay"] + ledger["packet.peek"] + ledger["packet.decode"] + ledger["core.pipeline"] + tier
	ledger["sum"] = sum
	ledger["cpu_ns_per_record"] = cpuNs
	v["ledger.residual_frac"] = 1 - sum/cpuNs
	out.detail["ledger"] = ledger
	log.Printf("ledger (ns/frame): replay %.1f + peek %.1f + decode %.1f + pipeline %.1f (filter %.1f, stage %.1f, title %.1f, core self %.1f) + report tier %.1f = %.1f of %.1f cpu ns/frame; residual %.3f; tracing overhead %.3f; 2v1 %.3f",
		ledger["bench.replay"], ledger["packet.peek"], ledger["packet.decode"], ledger["core.pipeline"],
		ledger["flowdetect.observe"], ledger["stageclass.push"], ledger["titleclass.classify"], ledger["core.self"],
		tier, sum, cpuNs, v["ledger.residual_frac"], v["trace.overhead_frac"], v["engine.scale_2v1"])
	return out, nil
}

// reportTier fills the report-tier metrics from the spans, the traced
// repetitions' read phases and the last one's archive: its bytes on disk
// and the sessions it holds.
func reportTier(tr *tracer, v map[string]float64, st gamelens.ArchiveStats, qs []queryResult, bytes, sessions int64) {
	fold, obs, tick := tr.sum("rollup.fold"), tr.sum("store.observe"), tr.sum("store.tick")
	v["rollup.fold_ns"] = tr.perItemNs("rollup.fold")
	v["store.observe_ns"] = tr.perItemNs("store.observe")
	v["store.tick_share"] = float64(tick.DurNs) / float64(fold.DurNs+obs.DurNs+tick.DurNs)
	v["store.final_ms"] = tr.perItemNs("store.final") / 1e6
	v["store.sealed"] = float64(st.Sealed)
	v["store.compactions"] = float64(st.Compactions)
	v["store.removed"] = float64(st.Removed)
	v["store.bytes_per_report"] = float64(bytes) / float64(sessions)
	byKind := map[string][]float64{}
	for _, q := range qs {
		for k, lat := range q.byKind {
			byKind[k] = append(byKind[k], lat...)
		}
	}
	for _, sp := range querySpans {
		v["store.range_ms."+sp.name] = median(byKind["range."+sp.name])
		v["store.topk_ms."+sp.name] = median(byKind["topk."+sp.name])
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// chunkLen frames at a time are copied into a scratch arena and decoded
// there before the layer under test runs over them, so per-layer timers
// start and stop once per chunk and the worker-side layers find their
// frames in cache, as a shard worker finds a batch the reader just wrote.
const chunkLen = 64

type chunk struct {
	n     int
	ts    [chunkLen]time.Time
	fr    [chunkLen][]byte
	dec   [chunkLen]packet.Decoded
	arena []byte
}

// chunked replays passes, handing process chunkLen frames at a time.
func chunked(passes []passSpec, process func(c *chunk)) {
	c := &chunk{arena: make([]byte, 0, chunkLen*2048)}
	for _, p := range passes {
		p.replay(func(ts time.Time, fr []byte) {
			off := len(c.arena)
			c.arena = append(c.arena, fr...)
			c.ts[c.n], c.fr[c.n] = ts, c.arena[off:len(c.arena):len(c.arena)]
			if c.n++; c.n == chunkLen {
				process(c)
				c.n, c.arena = 0, c.arena[:0]
			}
		})
	}
	if c.n > 0 {
		process(c)
	}
}

func decodeChunk(c *chunk) {
	for i := 0; i < c.n; i++ {
		packet.Decode(c.fr[i], &c.dec[i])
	}
}

// routeSink keeps the routing pass's results live.
var routeSink int

// costPackets times each packet layer alone over the timed passes' frames
// (stateful layers first see the warm passes, untimed) and returns the
// ledger: ns per frame for each layer, with core's self time net of the
// filter, the stage tracker and the title decisions it calls. The peek
// runs on the corpus arena, where the reader meets each frame cold; the
// worker-side layers run on chunk copies (see chunked). Each pass is one
// span; the ledger holds the time spent inside the layer.
func costPackets(b *packetBench, tr *tracer, v map[string]float64) map[string]float64 {
	frames := 0
	for _, p := range b.timed {
		frames += p.c.frames(p.stride)
	}
	pass := func(name string, run func() time.Duration) float64 {
		defer tr.span("pass."+name, int64(frames))()
		return float64(run().Nanoseconds()) / float64(frames)
	}
	replayAll := func(handle func(time.Time, []byte)) time.Duration {
		start := time.Now()
		for _, p := range b.timed {
			p.replay(handle)
		}
		return time.Since(start)
	}
	// inChunks returns the time layer spends on the timed passes' frames,
	// decoded beforehand (untimed) when decoded is set.
	inChunks := func(decoded bool, layer func(c *chunk)) time.Duration {
		var d time.Duration
		chunked(b.timed, func(c *chunk) {
			if decoded {
				decodeChunk(c)
			}
			start := time.Now()
			layer(c)
			d += time.Since(start)
		})
		return d
	}
	// warm feeds the warm passes to a stateful layer, untimed.
	warm := func(observe func(ts time.Time, dec *packet.Decoded)) {
		var dec packet.Decoded
		for _, p := range b.warm {
			p.replay(func(ts time.Time, fr []byte) {
				packet.Decode(fr, &dec)
				observe(ts, &dec)
			})
		}
	}
	ledger := map[string]float64{}

	ledger["bench.replay"] = pass("bench.replay", func() time.Duration {
		return replayAll(func(time.Time, []byte) {})
	})
	ledger["packet.peek"] = pass("packet.peek", func() time.Duration {
		return replayAll(func(_ time.Time, fr []byte) {
			routeSink += engine.ShardIndex(packet.PeekFlow(fr), engineShards)
		})
	}) - ledger["bench.replay"]
	ledger["packet.decode"] = pass("packet.decode", func() time.Duration {
		return inChunks(false, decodeChunk)
	})

	det := flowdetect.New(pipelineConfig().Filter)
	warm(func(ts time.Time, dec *packet.Decoded) { det.Observe(ts, dec, dec.Payload) })
	gaming := 0
	ledger["flowdetect.observe"] = pass("flowdetect.observe", func() time.Duration {
		return inChunks(true, func(c *chunk) {
			for i := 0; i < c.n; i++ {
				if det.Observe(c.ts[i], &c.dec[i], c.dec[i].Payload) == flowdetect.Gaming {
					gaming++
				}
			}
		})
	})

	pipe := gamelens.NewPipeline(pipelineConfig(), b.models)
	warm(func(ts time.Time, dec *packet.Decoded) { pipe.HandlePacket(ts, dec, dec.Payload) })
	peakDet, peakSessions := 0, 0
	ledger["core.pipeline"] = pass("core.pipeline", func() time.Duration {
		return inChunks(true, func(c *chunk) {
			for i := 0; i < c.n; i++ {
				pipe.HandlePacket(c.ts[i], &c.dec[i], c.dec[i].Payload)
			}
			peakDet = max(peakDet, pipe.DetectorFlows())
			peakSessions = max(peakSessions, pipe.NumFlows())
		})
	})
	pipe.Finish()

	classifyNs, decisions := costTitle(b, tr)
	pushNs, slots := costStage(b, tr)
	ledger["titleclass.classify"] = classifyNs * decisions / float64(frames)
	ledger["stageclass.push"] = pushNs * slots / float64(frames)
	ledger["core.self"] = ledger["core.pipeline"] - ledger["flowdetect.observe"] - ledger["titleclass.classify"] - ledger["stageclass.push"]

	v["bench.replay_ns"] = ledger["bench.replay"]
	v["packet.peek_ns"] = ledger["packet.peek"]
	v["packet.decode_ns"] = ledger["packet.decode"]
	v["flowdetect.observe_ns"] = ledger["flowdetect.observe"]
	v["flowdetect.gaming_frac"] = float64(gaming) / float64(frames)
	v["flowdetect.peak_entries"] = float64(peakDet)
	v["core.pipeline_ns"] = ledger["core.pipeline"]
	v["core.pipeline_pkts_per_s"] = 1e9 / (ledger["packet.decode"] + ledger["core.pipeline"])
	v["core.peak_sessions"] = float64(peakSessions)
	v["titleclass.classify_us"] = classifyNs / 1e3
	v["stageclass.push_ns"] = pushNs
	return ledger
}

// layerBudget is how long the title and stage passes repeat their work.
const layerBudget = 50 * time.Millisecond

// costTitle times ClassifyWith over each gaming flow's launch window (its
// first N + 1 seconds, what the pipeline buffers) and returns ns per call
// and the title decisions the timed passes make: one per churn session,
// none on steady, whose sessions decided during the warm passes.
func costTitle(b *packetBench, tr *tracer) (ns, decisions float64) {
	cfg := b.models.Title.Config()
	var windows [][]trace.Pkt
	for _, f := range b.c.flows {
		t0 := f.records[0].T
		var w []trace.Pkt
		for _, p := range f.records {
			if p.T-t0 >= cfg.Window+time.Second {
				break
			}
			p.T -= t0
			w = append(w, p)
		}
		windows = append(windows, w)
	}
	var sc titleclass.Scratch
	calls := 0
	start := time.Now()
	for calls == 0 || time.Since(start) < layerBudget {
		for _, w := range windows {
			b.models.Title.ClassifyWith(w, &sc)
			calls++
		}
	}
	d := time.Since(start)
	tr.record("pass.titleclass.classify", start, d, int64(calls))
	if b.c.convs > 0 {
		decisions = float64(len(b.c.flows) * len(b.timed))
	}
	return float64(d.Nanoseconds()) / float64(calls), decisions
}

// costStage times Tracker.Push on I-wide slots built from each gaming
// flow's records, cycled long enough (pushRounds slots per tracker) that
// pattern inference runs as it does on a long session. It returns ns per
// push and the slots the timed passes close.
func costStage(b *packetBench, tr *tracer) (ns, slots float64) {
	width := b.models.Stage.Config().Volumetric.I
	var perFlow [][]trace.Slot
	total := 0.0
	for _, f := range b.c.flows {
		t0 := f.records[0].T
		n := int((f.records[len(f.records)-1].T-t0)/width) + 1
		ss := make([]trace.Slot, n)
		for _, p := range f.records {
			ss[(p.T-t0)/width].Add(p.Dir, p.Size)
		}
		perFlow = append(perFlow, ss)
		total += float64(n)
	}
	const pushRounds = 600
	pushes := 0
	start := time.Now()
	for pushes == 0 || time.Since(start) < layerBudget {
		for _, ss := range perFlow {
			t := b.models.Stage.NewTracker(0)
			for k := 0; k < pushRounds; k++ {
				t.Push(ss[k%len(ss)])
			}
			pushes += pushRounds
		}
	}
	d := time.Since(start)
	tr.record("pass.stageclass.push", start, d, int64(pushes))
	return float64(d.Nanoseconds()) / float64(pushes), total * float64(len(b.timed))
}

// traceArchive is the traced run of the archive workload. Its report-tier
// figures come from its own repetitions. Every traced run prints each
// per-layer metric BENCHMARK.json names, and the archive has no packets,
// so the packet layers' figures come from a small steady-shaped probe
// corpus: they describe the packet path, not this workload, and the run
// record keeps the probe's ledger apart (probe_ledger).
func traceArchive(a *archiveBench, seconds time.Duration, out outcome) (outcome, error) {
	tr := newTracer()
	out.tr = tr
	var plain, traced []archiveRep
	deadline := time.Now().Add(seconds)
	for k := 0; len(traced) < 2 || time.Now().Before(deadline); k += 2 {
		r, err := a.rep(k, nil)
		if err != nil {
			return out, err
		}
		plain = append(plain, r)
		end := tr.phase("rep")
		r2, err := a.rep(k+1, tr)
		end()
		if err != nil {
			return out, err
		}
		traced = append(traced, r2)
		for _, x := range []archiveRep{r, r2} {
			out.attempted += x.attempted
			out.failed += x.failed
		}
	}
	n := float64(len(a.reports))
	ps := seriesOf(plain)
	cpuNs := median(ps.cpu)
	v := out.values
	v["monitor.alloc_bytes_per_record"] = median(ps.alloc)
	v["monitor.state_mb"] = median(ps.state)
	var qs []queryResult
	for _, r := range traced {
		qs = append(qs, r.queries)
	}
	last := traced[len(traced)-1]
	reportTier(tr, v, last.stats, qs, last.bytes, last.queries.total.Sessions)
	v["trace.overhead_frac"] = 1 - median(seriesOf(traced).rate)/median(ps.rate)
	tier := float64(tr.sum("rollup.fold").DurNs+tr.sum("store.observe").DurNs+tr.sum("store.tick").DurNs) / (n * float64(len(traced)))
	v["ledger.residual_frac"] = 1 - tier/cpuNs
	out.detail["ledger"] = map[string]float64{"report_tier": tier, "cpu_ns_per_record": cpuNs}
	log.Printf("archive ledger (ns/report): fold %.0f + observe %.0f + tick %.0f = %.0f of %.0f cpu ns/report; residual %.3f; tracing overhead %.3f",
		v["rollup.fold_ns"], v["store.observe_ns"], float64(tr.sum("store.tick").DurNs)/(n*float64(len(traced))),
		tier, cpuNs, v["ledger.residual_frac"], v["trace.overhead_frac"])

	probe, err := newPacketBench("probe", a.seed)
	if err != nil {
		return out, err
	}
	defer probe.release()
	po, err := tracePackets(probe, time.Second, outcome{values: map[string]float64{}, detail: map[string]any{}})
	if err != nil {
		return out, err
	}
	out.attempted += po.attempted
	out.failed += po.failed
	for k, x := range po.values {
		if _, ok := v[k]; !ok {
			v[k] = x
		}
	}
	out.detail["probe_ledger"] = po.detail["ledger"]
	return out, nil
}
