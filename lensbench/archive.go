package main

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"net/netip"
	"runtime"
	"time"
	"unsafe"

	"gamelens"
	"gamelens/internal/fleet"
	"gamelens/internal/flowdetect"
	"gamelens/internal/gamesim"
	"gamelens/internal/packet"
	"gamelens/internal/qoe"
	"gamelens/internal/rollup"
	"gamelens/internal/stageclass"
	"gamelens/internal/titleclass"
	"gamelens/internal/trace"
)

// Archive sizing: the paper's three-month deployment, scaled to about
// archiveReports session reports from archiveSubscribers subscribers (see
// synthReports), fed in batches the size of a typical emitter drain.
const (
	archiveReports     = 100_000
	archiveSubscribers = 10_000
	archiveSpan        = 90 * 24 * time.Hour
	archiveBatch       = 32
)

var archiveBase = time.Date(2026, 5, 4, 0, 0, 0, 0, time.UTC)

// archiveBench is the report-tier workload after set-up: synthetic
// session reports in end-time order. Packet layers do no work here.
type archiveBench struct {
	reports []*gamelens.SessionReport
	seed    int64
	// want is the reference: every report folded into one aggregate
	// without the store, which a whole-span Total must reproduce.
	want gamelens.RollupCounts
}

// bytes is the input's footprint: the reports and one flow per subscriber.
func (a *archiveBench) bytes() int64 {
	return int64(len(a.reports))*int64(unsafe.Sizeof(gamelens.SessionReport{})+8) +
		archiveSubscribers*int64(unsafe.Sizeof(flowdetect.Flow{}))
}

func buildArchive(seed int64) *archiveBench {
	rng := rand.New(rand.NewSource(seed))
	a := &archiveBench{seed: seed, reports: synthReports(rng, archiveReports, archiveSubscribers, archiveBase, archiveSpan)}
	for _, r := range a.reports {
		a.want.Add(rollup.FromReport(r))
	}
	return a
}

// sameCounts reports whether got reproduces want: counts and sketch
// percentiles exactly, float sums to within rounding (the store adds them
// in partition order).
func sameCounts(want, got *gamelens.RollupCounts) bool {
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }
	for st := range want.StageMinutes {
		if !near(want.StageMinutes[st], got.StageMinutes[st]) {
			return false
		}
	}
	return want.Sessions == got.Sessions && want.Evicted == got.Evicted && want.Unknown == got.Unknown &&
		want.Objective == got.Objective && want.Effective == got.Effective &&
		want.ObjectiveUnknown == got.ObjectiveUnknown && want.EffectiveUnknown == got.EffectiveUnknown &&
		maps.Equal(want.Titles, got.Titles) && maps.Equal(want.Patterns, got.Patterns) &&
		near(want.MbpsSum, got.MbpsSum) &&
		want.ThroughputPercentiles() == got.ThroughputPercentiles() &&
		want.QoEProxyPercentiles() == got.QoEProxyPercentiles()
}

// archiveSkew and archiveSkewV shape the per-subscriber load: subscriber
// i gets a share proportional to (archiveSkewV+i)^-archiveSkew. No source
// gives a per-subscriber session distribution; these are assumptions (a
// few heavy players, a long tail of occasional ones). They set how many
// cells a partition holds, and so the compaction and query costs.
const (
	archiveSkew  = 1.2
	archiveSkewV = 8
)

// synthReports generates n session reports from subs subscribers with
// Zipf-skewed load (archiveSkew). The population mix is the paper's §5
// deployment as internal/fleet models it: titles drawn by Table 1
// popularity, a fleet.DefaultLongTailFrac share of sessions outside the
// catalog (reported unknown), and a fleet.DefaultImpairedFrac share of
// sessions on degraded access paths, whose objective grade falls below Good.
// End times advance evenly over [start, start+span) with jitter smaller
// than the spacing, so none arrives after its hour partition sealed.
// Subscribers live in 172.16.0.0/12, apart from the packet workloads'
// clients.
func synthReports(rng *rand.Rand, n, subs int, start time.Time, span time.Duration) []*gamelens.SessionReport {
	flows := make([]flowdetect.Flow, subs)
	for i := range flows {
		var a [4]byte
		binary.BigEndian.PutUint32(a[:], 172<<24|16<<16+uint32(i))
		flows[i] = flowdetect.Flow{
			Key: packet.FlowKey{
				Src: netip.AddrFrom4([4]byte{203, 0, 113, 10}), Dst: netip.AddrFrom4(a),
				SrcPort: gamesim.ServerPort, DstPort: uint16(50000 + i%10000), Proto: packet.ProtoUDP,
			},
			State: flowdetect.Gaming, Platform: flowdetect.GeForceNOW, ServerPort: gamesim.ServerPort,
		}
	}
	zipf := rand.NewZipf(rng, archiveSkew, archiveSkewV, uint64(subs-1))
	step := span / time.Duration(n)
	all := make([]gamelens.SessionReport, n)
	out := make([]*gamelens.SessionReport, n)
	for k := range all {
		sub := int(zipf.Uint64())
		r := &all[k]
		r.Flow = &flows[sub]
		r.End = start.Add(time.Duration(k)*step + time.Duration(rng.Int63n(int64(step))))
		r.Evicted = rng.Intn(5) != 0
		if rng.Float64() >= fleet.DefaultLongTailFrac {
			r.Title = titleclass.Result{Title: gamesim.RandomTitle(rng), Known: true, Confidence: 0.4 + 0.6*rng.Float64()}
		} else {
			r.Title = titleclass.Result{Title: gamesim.TitleID(rng.Intn(int(gamesim.NumTitles))), Confidence: 0.4 * rng.Float64()}
		}
		if rng.Intn(2) == 0 {
			r.PatternKnown = true
			r.Pattern = stageclass.PatternResult{Pattern: gamesim.Pattern(rng.Intn(2)), Confidence: 0.75 + 0.25*rng.Float64()}
		}
		minutes := 5 + 90*rng.Float64()
		r.StageMinutes[trace.StageIdle] = minutes * 0.2 * rng.Float64()
		r.StageMinutes[trace.StageActive] = minutes * (0.4 + 0.4*rng.Float64())
		r.StageMinutes[trace.StagePassive] = minutes - r.StageMinutes[trace.StageIdle] - r.StageMinutes[trace.StageActive]
		r.MeanDownMbps = 3 + 45*rng.Float64()*rng.Float64()
		r.Objective = qoe.Good
		r.Effective = qoe.Good
		if rng.Float64() < fleet.DefaultImpairedFrac {
			r.Objective = qoe.Level(rng.Intn(2))
			r.Effective = qoe.Level(rng.Intn(qoe.NumLevels))
		}
		r.EffectiveScore = rng.Float64()
		out[k] = r
	}
	return out
}

// History sizing: the days of reports a packet-workload monitor has
// already archived when its repetition starts.
const (
	historyReports     = 4000
	historySubscribers = 800
	historySpan        = 2 * 24 * time.Hour
)

// history is an archive written during set-up, ending an hour before the
// packet workloads' corpus starts. Every packet-workload repetition
// resumes a copy of it, so the read phase queries days of history as a
// long-running monitor's queries would, not just the run's own reports.
type history struct {
	fs       *memFS
	start    time.Time
	sessions int64
}

func buildHistory(seed int64) (*history, error) {
	start := corpusBase.Add(-historySpan)
	reports := synthReports(rand.New(rand.NewSource(seed)), historyReports, historySubscribers, start, historySpan-time.Hour)
	h := &history{fs: newMemFS(), start: start, sessions: int64(len(reports))}
	arch, err := gamelens.OpenArchive(gamelens.ArchiveConfig{Dir: archiveDir, FS: h.fs})
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(reports); i += archiveBatch {
		arch.ObserveReports(reports[i:min(i+archiveBatch, len(reports))])
		if err := arch.Tick(); err != nil {
			return nil, fmt.Errorf("history: %w", err)
		}
	}
	if err := arch.Final(); err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	return h, nil
}

// archiveRep is one archive repetition's measurements and checks.
type archiveRep struct {
	figures
	bytes int64
	stats gamelens.ArchiveStats
}

// rep (repetition k) ingests every report through a fresh report tier
// exactly as the engine's emitter would deliver them — batch sinks, then
// the checkpoint hook — measures the state held (paused), flushes with
// Final (timed), then runs the read phase.
func (a *archiveBench) rep(k int, tr *tracer) (archiveRep, error) {
	var res archiveRep
	base := liveHeap()
	mon, err := newMonitor(tr, newMemFS())
	if err != nil {
		return res, err
	}
	s := now()
	for i := 0; i < len(a.reports); i += archiveBatch {
		mon.batch(a.reports[i:min(i+archiveBatch, len(a.reports))])
		if _, err := mon.hook(); err != nil {
			return res, fmt.Errorf("archive tick: %w", err)
		}
	}
	res.m.add(s)
	res.state = liveHeap() - base - mon.fs.written(nil)
	s = now()
	if err := mon.cp.Final(); err != nil {
		return res, fmt.Errorf("archive final: %w", err)
	}
	res.m.add(s)
	res.records = len(a.reports)
	res.stats = mon.arch.Stats()
	res.bytes = mon.fs.bytesUnder(archiveDir)
	first, last := a.reports[0].End, a.reports[len(a.reports)-1].End
	runtime.GC()
	res.queries = runQueries(mon.arch, first, last, queryShift(a.seed, k), tr)

	n, st, rs := int64(res.records), res.stats, mon.ru.Stats()
	res.attempted = n + int64(len(res.queries.latMs))
	res.failed = abs(n-st.Ingested) + st.Late + st.PendingDropped + st.SealFailures + st.CompactFailures +
		abs(n-rs.Ingested-rs.Late) + abs(n-res.queries.total.Sessions)
	if !sameCounts(&a.want, &res.queries.total) {
		res.failed++
	}
	return res, nil
}
