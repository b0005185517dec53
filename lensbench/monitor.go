package main

import (
	"time"

	"gamelens"
	"gamelens/internal/rollup"
)

// The production wiring, in one place: what
//
//	classify -shards 2 -flow-ttl 15s -rollup 1h -checkpoint rollup.ckpt -archive archive capture.pcap
//
// builds around its engine. Every workload feeds reports through these
// sinks and this hook, so re-pointing the report tier means editing only
// this file.
const (
	engineShards   = 2
	flowTTL        = 15 * time.Second
	rollupWindow   = time.Hour
	archiveDir     = "archive"
	checkpointPath = "rollup.ckpt"
)

// monitor is one run of the report tier: the sharded live window, the
// tiered archive and the checkpointer that drives both, on an in-memory
// filesystem.
type monitor struct {
	fs   *memFS
	ru   *gamelens.ShardedRollup
	arch *gamelens.ArchiveStore
	cp   *gamelens.RollupCheckpointer
	// batch is the engine's BatchSink and hook its Checkpoint hook.
	batch func([]*gamelens.SessionReport)
	hook  func() (bool, error)
}

// newMonitor builds the report tier on fs, resuming whatever archive fs
// already holds. With a tracer, the two sinks and the archive's Tick are
// timed as spans.
func newMonitor(tr *tracer, fs *memFS) (*monitor, error) {
	m := &monitor{fs: fs}
	arch, err := gamelens.OpenArchive(gamelens.ArchiveConfig{Dir: archiveDir, FS: m.fs})
	if err != nil {
		return nil, err
	}
	m.arch = arch
	m.ru = gamelens.NewShardedRollup(engineShards, gamelens.RollupConfig{Window: rollupWindow})
	ruSink, archSink := m.ru.BatchSink(), arch.BatchSink()
	var archiver rollup.Archiver = arch
	if tr != nil {
		ruSink = tr.wrapBatch("rollup.fold", ruSink)
		archSink = tr.wrapBatch("store.observe", archSink)
		archiver = tracedArchiver{tr, arch}
	}
	m.batch = func(reports []*gamelens.SessionReport) {
		ruSink(reports)
		archSink(reports)
	}
	m.cp = gamelens.NewRollupCheckpointer(m.ru, gamelens.RollupCheckpointerConfig{
		Path: checkpointPath, StartGen: 1, FS: m.fs, Archive: archiver,
	})
	m.hook = m.cp.Tick
	return m, nil
}

// pipelineConfig is the per-shard pipeline configuration, shared with the
// single-threaded reference.
func pipelineConfig() gamelens.PipelineConfig {
	return gamelens.PipelineConfig{FlowTTL: flowTTL}
}

// engineConfig wires the engine to the report tier in streaming mode:
// every report goes to sink (classify prints it) and then to the batch
// sinks, and nothing is retained for Finish.
func (m *monitor) engineConfig(shards int, sink func(*gamelens.SessionReport)) gamelens.EngineConfig {
	return gamelens.EngineConfig{
		Shards:     shards,
		Sink:       sink,
		BatchSink:  m.batch,
		Checkpoint: m.hook,
		StreamOnly: true,
		Pipeline:   pipelineConfig(),
	}
}

// tracedArchiver times the archive's Tick and Final.
type tracedArchiver struct {
	tr   *tracer
	arch *gamelens.ArchiveStore
}

func (a tracedArchiver) Tick() error {
	defer a.tr.span("store.tick", 1)()
	return a.arch.Tick()
}

func (a tracedArchiver) Final() error {
	defer a.tr.span("store.final", 1)()
	return a.arch.Final()
}
