package main

import (
	"fmt"
	"log"
	"net/netip"
	"runtime"
	"slices"
	"time"

	"gamelens"
	"gamelens/internal/gamesim"
	"gamelens/internal/packet"
	"gamelens/internal/rollup"
)

// passSpec is one replay of a corpus: pass index (time shift and tuple
// generation) and stride (1 feeds every frame; n feeds every n-th, which
// keeps flows alive at a fraction of the cost).
type passSpec struct {
	c            *corpus
	pass, stride int
}

func (p passSpec) replay(handle func(ts time.Time, frame []byte)) {
	p.c.replay(p.pass, p.stride, handle)
}

// packetBench is a packet workload after set-up: trained models, the
// corpus, the replay plan of one repetition, and the single-threaded
// reference for that plan.
type packetBench struct {
	models *gamelens.Models
	c      *corpus // the corpus the timed passes replay
	lead   *corpus // replayed once before c, or nil
	hist   *history
	warm   []passSpec // replayed before the timer starts
	timed  []passSpec
	ref    reference
	seed   int64
}

// reference is what core.Pipeline, single-threaded, reports for one
// repetition's input: the sorted report fingerprints, plus the title
// outcome against the generator's ground truth.
type reference struct {
	hashes  []uint64
	titled  int // reports of flows with known ground truth
	titleOK int // of which the classified title matches it
}

// steadyPlan opens the sessions with the launch lead, then replays
// gameplay passes thinned to every 16th frame until the sessions are past
// the pipeline's 50 s launch window, all untimed; then steadyTimed full
// passes under the timer.
func steadyPlan(lead, c *corpus) (warm, timed []passSpec) {
	warm = []passSpec{{lead, 0, 1}}
	p := 0
	for ; steadyLead+time.Duration(p)*c.span < 56*time.Second; p++ {
		warm = append(warm, passSpec{c, p, 16})
	}
	for k := 0; k < steadyTimed; k++ {
		timed = append(timed, passSpec{c, p + k, 1})
	}
	return warm, timed
}

// churnPlan replays one untimed pass, so the timed passes start with the
// previous pass's sessions expiring, then churnTimed passes.
func churnPlan(c *corpus) (warm, timed []passSpec) {
	warm = []passSpec{{c, 0, 1}}
	for k := 1; k <= churnTimed; k++ {
		timed = append(timed, passSpec{c, k, 1})
	}
	return warm, timed
}

// bytes is the corpora's footprint.
func (b *packetBench) bytes() int64 {
	n := b.c.bytes()
	if b.lead != nil {
		n += b.lead.bytes()
	}
	return n
}

// release unmaps the corpora.
func (b *packetBench) release() {
	b.c.release()
	if b.lead != nil {
		b.lead.release()
	}
}

const (
	steadyTimed = 8
	churnTimed  = 6
)

func (b *packetBench) plan() []passSpec { return append(slices.Clone(b.warm), b.timed...) }

// titleOf returns the generator's title for a gaming flow's client.
func (c *corpus) titleOf(client netip.Addr) (gamesim.TitleID, bool) {
	if c.convs > 0 {
		if conv := c.convOf(client); conv < len(c.flows) {
			return c.flows[conv].title, true
		}
		return 0, false
	}
	for i := range c.flows {
		if gamesim.FlowEndpoints(i).ClientAddr == client {
			return c.flows[i].title, true
		}
	}
	return 0, false
}

// reportLine renders every field of a report except Evicted: whether an
// idle flow was already swept when the input ended depends on each shard's
// sweep instants, which the engine does not promise to match the
// single-threaded pipeline's; every other field is fixed by the flow's
// own packets.
func reportLine(buf []byte, r *gamelens.SessionReport) []byte {
	return fmt.Appendf(buf, "%v|%v|%v|%v|%v|%v|%v|%v|%v|%v|%v|%v|%d",
		r.Flow.Key, r.Title.Title, r.Title.Known, r.Title.Confidence,
		r.PatternKnown, r.Pattern.Pattern, r.Pattern.Confidence,
		r.StageMinutes, r.MeanDownMbps, r.Objective, r.Effective, r.EffectiveScore, r.End.UnixNano())
}

// hash64 is FNV-1a, inline so the report sink allocates nothing for it.
func hash64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// computeReference replays one repetition's input through a single
// core.Pipeline with the engine's pipeline configuration.
func (b *packetBench) computeReference() error {
	var ref reference
	var line []byte
	cfg := pipelineConfig()
	cfg.Sink = func(r *gamelens.SessionReport) {
		line = reportLine(line[:0], r)
		ref.hashes = append(ref.hashes, hash64(line))
		if truth, ok := b.c.titleOf(rollup.ClientAddr(r.Flow)); ok {
			ref.titled++
			if r.Title.Known && r.Title.Title == truth {
				ref.titleOK++
			}
		}
	}
	pipe := gamelens.NewPipeline(cfg, b.models)
	var dec packet.Decoded
	var bad int
	for _, p := range b.plan() {
		p.replay(func(ts time.Time, fr []byte) {
			if packet.Decode(fr, &dec) != nil {
				bad++
				return
			}
			pipe.HandlePacket(ts, &dec, dec.Payload)
		})
	}
	pipe.Finish()
	if bad > 0 {
		return fmt.Errorf("reference: %d corpus frames failed to decode", bad)
	}
	if len(ref.hashes) == 0 {
		return fmt.Errorf("reference: no sessions reported")
	}
	slices.Sort(ref.hashes)
	b.ref = ref
	return nil
}

// figures are what every repetition contributes toward the end-to-end
// metrics and the failure accounting, in both kinds of workload.
type figures struct {
	records int   // records processed under the timer
	m       meter // the timed region
	state   int64 // live heap the monitor holds when the input ends
	queries queryResult
	// attempted counts records handed in, reports expected and queries
	// run; failed counts records lost, dropped, undecodable or not
	// absorbed, mismatched reports, and sessions the archive lost.
	attempted, failed int64
}

// repResult is one packet-workload repetition's measurements and checks.
type repResult struct {
	figures
	stats   gamelens.EngineStats
	reports int
	// timedReports counts reports emitted from the start of the timed
	// passes to the end of Finish.
	timedReports int64
	mismatch     int // reports absent from the reference, plus reference reports not delivered
	arch         gamelens.ArchiveStats
	archBytes    int64
}

// rep runs repetition k on a fresh engine and a report tier resuming the
// history archive: the warm passes, a forced collection, the timed passes
// drained to the last packet, the state measurement (paused), Finish
// (timed), then the final checkpoint and the read phase. With a tracer,
// HandleFrame blocks and the report tier's calls are recorded as spans.
func (b *packetBench) rep(k, shards int, tr *tracer) (repResult, error) {
	var res repResult
	base := liveHeap()
	mon, err := newMonitor(tr, b.hist.fs.clone())
	if err != nil {
		return res, err
	}
	hashes := make([]uint64, 0, len(b.ref.hashes)+64)
	var line []byte
	sink := func(r *gamelens.SessionReport) {
		line = reportLine(line[:0], r)
		hashes = append(hashes, hash64(line))
	}
	eng := gamelens.NewEngine(mon.engineConfig(shards, sink), b.models)
	prod := eng.Producer()
	feed := prod.HandleFrame
	if tr != nil {
		feed = tr.sampledFeed(feed)
	}
	for _, p := range b.warm {
		p.replay(feed)
	}
	prod.Flush()
	waitDrained(eng)
	runtime.GC()
	emitted := eng.Stats().EmittedReports

	s := now()
	for _, p := range b.timed {
		p.replay(feed)
		res.records += p.c.frames(p.stride)
	}
	prod.Flush()
	waitDrained(eng)
	res.m.add(s)
	res.state = liveHeap() - base - mon.fs.written(b.hist.fs)
	s = now()
	prod.Close()
	var endFinish func()
	if tr != nil {
		endFinish = tr.span("engine.finish", 1)
	}
	eng.Finish()
	if endFinish != nil {
		endFinish()
	}
	res.m.add(s)

	if err := mon.cp.Final(); err != nil {
		return res, fmt.Errorf("final checkpoint: %w", err)
	}
	res.stats = eng.Stats()
	res.timedReports = res.stats.EmittedReports - emitted
	res.arch = mon.arch.Stats()
	res.archBytes = mon.fs.bytesUnder(archiveDir)
	res.reports = len(hashes)
	slices.Sort(hashes)
	res.mismatch = symmetricDiff(hashes, b.ref.hashes)
	lo := b.hist.start
	hi := b.c.base.Add(time.Duration(b.timed[len(b.timed)-1].pass+1) * b.c.span)
	runtime.GC()
	res.queries = runQueries(mon.arch, lo, hi, queryShift(b.seed, k), tr)

	st := res.stats
	res.attempted = st.PacketsIn + int64(len(b.ref.hashes)) + int64(len(res.queries.latMs))
	res.failed = abs(st.PacketsIn-st.Processed-st.Dropped) + st.Dropped + st.DecodeErrors + int64(st.ReportBacklog) +
		int64(res.mismatch) + abs(res.queries.total.Sessions-b.hist.sessions-int64(res.reports))
	return res, nil
}

// drainStall is how long waitDrained waits without progress before it
// gives up.
const drainStall = 5 * time.Second

// waitDrained returns once every packet handed in has been processed and
// every report delivered, or once neither count has moved for drainStall:
// a frame the engine lost, or a stalled emitter, then shows up in the
// repetition's accounting as a failure instead of hanging the run.
func waitDrained(eng *gamelens.Engine) {
	var last gamelens.EngineStats
	moved := time.Now()
	for {
		st := eng.Stats()
		if st.Processed+st.Dropped >= st.PacketsIn && st.ReportBacklog == 0 {
			return
		}
		if st.Processed != last.Processed || st.Dropped != last.Dropped || st.ReportBacklog != last.ReportBacklog {
			last, moved = st, time.Now()
		} else if time.Since(moved) > drainStall {
			log.Printf("engine stalled: %d of %d frames processed, %d dropped, %d reports undelivered",
				st.Processed, st.PacketsIn, st.Dropped, st.ReportBacklog)
			return
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// symmetricDiff counts the elements of two sorted multisets that the other
// lacks.
func symmetricDiff(a, b []uint64) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] < b[j]:
			n++
			i++
		default:
			n++
			j++
		}
	}
	return n + len(a) - i + len(b) - j
}

// sampledFeed wraps a frame handler so that one block of handleBlock calls
// in every four is timed as an engine.handleframe span: the reader's wall
// time per call, backpressure waits and the replay loop's own per-frame
// work (bench.replay_ns) included.
func (t *tracer) sampledFeed(f func(time.Time, []byte)) func(time.Time, []byte) {
	const handleBlock = 256
	n := 0
	var start time.Time
	return func(ts time.Time, fr []byte) {
		if n%handleBlock == 0 {
			if !start.IsZero() {
				t.record("engine.handleframe", start, time.Since(start), handleBlock)
				start = time.Time{}
			}
			if (n/handleBlock)%4 == 0 {
				start = time.Now()
			}
		}
		f(ts, fr)
		n++
	}
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
