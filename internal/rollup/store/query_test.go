package store

import (
	"bytes"
	"math/rand"
	"net/netip"
	"sort"
	"testing"
	"time"

	"gamelens/internal/qoe"
	"gamelens/internal/race"
	"gamelens/internal/rollup"
	"gamelens/internal/trace"
)

// The map-based query path, kept as the reference the merge-based one must
// reproduce byte for byte: fold every contribution into a per-subscriber
// map in start order, sort by address, and rank from full aggregates.

func (s *Store) refRange(from, to time.Time) []rollup.Aggregate {
	s.mu.Lock()
	defer s.mu.Unlock()
	merged := map[netip.Addr]*rollup.Counts{}
	for _, sl := range s.slicesLocked(from.UnixNano(), to.UnixNano()) {
		for i := range sl.cells {
			c := &sl.cells[i]
			acc := merged[c.addr]
			if acc == nil {
				acc = &rollup.Counts{}
				merged[c.addr] = acc
			}
			acc.Merge(&c.counts)
		}
	}
	out := make([]rollup.Aggregate, 0, len(merged))
	for _, c := range sortedCells(merged) {
		out = append(out, rollup.Aggregate{Subscriber: c.addr, Window: c.counts})
	}
	return out
}

func (s *Store) refTotal(from, to time.Time) rollup.Counts {
	var total rollup.Counts
	for _, agg := range s.refRange(from, to) {
		total.Merge(&agg.Window)
	}
	return total
}

func (s *Store) refTopImpaired(from, to time.Time, k int) []rollup.Aggregate {
	aggs := s.refRange(from, to)
	impairment := func(a *rollup.Aggregate) float64 { return 1 - a.Window.GoodShare(true) }
	sort.SliceStable(aggs, func(i, j int) bool {
		ii, ij := impairment(&aggs[i]), impairment(&aggs[j])
		if ii != ij {
			return ii > ij
		}
		if aggs[i].Window.Sessions != aggs[j].Window.Sessions {
			return aggs[i].Window.Sessions > aggs[j].Window.Sessions
		}
		return aggs[i].Subscriber.Compare(aggs[j].Subscriber) < 0
	})
	if k >= 0 && len(aggs) > k {
		aggs = aggs[:k]
	}
	return aggs
}

// querySubscribers is the equivalence fixture's population: half IPv4,
// half IPv6, so the address order interleaves both families' rules.
const querySubscribers = 240

func queryAddr(i int) netip.Addr {
	if i%2 == 0 {
		return netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)})
	}
	return netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 14: byte(i >> 8), 15: byte(i)})
}

// queryFixture synthesizes total entries 0.8 s apart with non-dyadic
// measurements (random Mbps, stage minutes and QoE proxies), so any
// regrouping of a float sum changes its bits. Subscribers are drawn with a
// skew toward low indices: some appear in every partition, others in a
// few.
func queryFixture(total int) []rollup.Entry {
	rng := rand.New(rand.NewSource(7))
	titles := []string{"Fortnite", "", "Hearthstone", "Genshin Impact"}
	out := make([]rollup.Entry, 0, total)
	for i := 0; i < total; i++ {
		e := rollup.Entry{
			Subscriber:   queryAddr(rng.Intn(rng.Intn(querySubscribers) + 1)),
			End:          base.Add(time.Duration(i) * 800 * time.Millisecond),
			Title:        titles[rng.Intn(len(titles))],
			MeanDownMbps: 0.1 + 40*rng.Float64(),
			Objective:    qoe.Level(rng.Intn(qoe.NumLevels)),
			Effective:    qoe.Level(rng.Intn(qoe.NumLevels)),
			QoEProxy:     rng.Float64(),
			Evicted:      rng.Intn(5) == 0,
		}
		if e.Title == "" {
			e.Pattern = "continuous"
		}
		e.StageMinutes[trace.StageActive] = 10 * rng.Float64()
		e.StageMinutes[trace.StageIdle] = rng.Float64() / 3
		out = append(out, e)
	}
	return out
}

// TestStoreGateQueryEquivalence pins the merge-based query path to the
// map-based reference, byte for byte, on a fixture where float sums are
// order-sensitive: Range, Total and TopImpaired (k = -1, 0, 3 and more
// than the subscriber count) over windows of every width at many
// positions — across hour, day and week tiers behind GC watermarks and
// the pending tail — and over empty ranges.
func TestStoreGateQueryEquivalence(t *testing.T) {
	entries := queryFixture(3000) // 40 minutes: three test-weeks and a tail
	cfg := testCfg(t.TempDir())
	cfg.Retain = [numTiers]time.Duration{4 * time.Minute, 12 * time.Minute, -1}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, s, entries, 7)

	st := s.Stats()
	if st.Ingested != int64(len(entries)) || st.Late != 0 {
		t.Fatalf("ingested %d late %d, want %d/0", st.Ingested, st.Late, len(entries))
	}
	if s.gc[TierHour] == watermarkUnset || s.gc[TierDay] == watermarkUnset {
		t.Fatalf("GC watermarks not advanced: %v", s.gc)
	}
	for tier := TierHour; tier < numTiers; tier++ {
		if st.Partitions[tier] == 0 {
			t.Fatalf("no %s partitions: %+v", tier, st)
		}
	}
	if st.Pending == 0 {
		t.Fatal("no pending tail")
	}

	// The fixture must make fold order visible: some whole-span float sum,
	// added up entry by entry, differs in its low bits from the
	// per-subscriber grouping the queries use.
	var flat rollup.Counts
	for _, e := range entries {
		flat.MbpsSum += e.MeanDownMbps
		for st, m := range e.StageMinutes {
			flat.StageMinutes[st] += m
		}
	}
	from, to := base.Add(-time.Minute), base.Add(time.Hour)
	whole := s.refTotal(from, to)
	if whole.Sessions != int64(len(entries)) {
		t.Fatalf("whole-span total holds %d sessions, want %d", whole.Sessions, len(entries))
	}
	if flat.MbpsSum == whole.MbpsSum && flat.StageMinutes == whole.StageMinutes {
		t.Fatal("fixture sums are grouping-independent; the gate would not see a reordered fold")
	}
	if n := len(s.refRange(from, to)); n < 200 {
		t.Fatalf("fixture reaches %d subscribers, want at least 200", n)
	}

	type window struct{ from, to time.Time }
	windows := []window{
		{base, base},                                      // empty: zero width
		{base.Add(5 * time.Minute), base},                 // empty: inverted
		{base.Add(-48 * time.Hour), base.Add(-time.Hour)}, // empty: before the data
		{base.Add(48 * time.Hour), base.Add(49 * time.Hour)},
		{from, to},
	}
	widths := []time.Duration{30 * time.Second, time.Minute, 150 * time.Second,
		4 * time.Minute, 12 * time.Minute, 30 * time.Minute}
	step := 90 * time.Second
	if testing.Short() {
		step = 3 * time.Minute
	}
	for _, w := range widths {
		for at := base.Add(-5 * time.Minute); at.Before(base.Add(45 * time.Minute)); at = at.Add(step) {
			windows = append(windows, window{at, at.Add(w)})
		}
	}
	for _, w := range windows {
		check := func(kind string, got, want any) {
			t.Helper()
			if g, wt := mustJSON(t, got), mustJSON(t, want); !bytes.Equal(g, wt) {
				t.Fatalf("%s over [%v, %v) differs from the reference:\n got %s\nwant %s",
					kind, w.from.Sub(base), w.to.Sub(base), g, wt)
			}
		}
		check("Range", s.Range(w.from, w.to), s.refRange(w.from, w.to))
		check("Total", s.Total(w.from, w.to), s.refTotal(w.from, w.to))
		for _, k := range []int{-1, 0, 3, querySubscribers + 5} {
			check("TopImpaired", s.TopImpaired(w.from, w.to, k), s.refTopImpaired(w.from, w.to, k))
		}
	}
}

// allocStore builds a store holding subs subscribers in one fixed
// partition layout — a week, two days and two hours behind GC watermarks,
// plus a pending hour — every partition holding every subscriber. Cells
// share four prototype aggregates (queries only read them), so the layout
// is cheap at any population.
func allocStore(t *testing.T, subs int) *Store {
	t.Helper()
	s, err := Open(testCfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	var protos [4]*rollup.Counts
	sample := queryFixture(16)
	for p := range protos {
		protos[p] = &rollup.Counts{}
		for j := 0; j <= p; j++ {
			e := sample[4*p+j]
			e.Effective = qoe.Level((p + j) % qoe.NumLevels)
			protos[p].Add(e)
		}
	}
	cells := func(shift int) []cell {
		out := make([]cell, subs)
		for i := range out {
			out[i] = cell{addr: queryAddr(i), counts: *protos[(i+shift)%len(protos)]}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].addr.Compare(out[j].addr) < 0 })
		return out
	}
	b := base.UnixNano()
	min := int64(time.Minute)
	layout := []struct {
		tier    Tier
		startNs int64
	}{{TierWeek, b}, {TierDay, b + 12*min}, {TierDay, b + 16*min}, {TierHour, b + 20*min}, {TierHour, b + 21*min}}
	for i, l := range layout {
		s.parts[l.tier][l.startNs] = &partData{tier: l.tier, startNs: l.startNs, cells: cells(i)}
	}
	s.gc = [numTiers]int64{b + 20*min, b + 12*min, watermarkUnset}
	pend := &pendingPart{startNs: b + 22*min, subs: map[netip.Addr]*rollup.Counts{}}
	for i := 0; i < subs; i++ {
		pend.subs[queryAddr(i)] = protos[(i+len(layout))%len(protos)]
	}
	s.pending[pend.startNs] = pend
	if got := len(s.slicesLocked(b, b+time.Hour.Nanoseconds())); got != len(layout)+1 {
		t.Fatalf("layout exposes %d runs, want %d", got, len(layout)+1)
	}
	return s
}

// TestStoreQueryAllocs pins the query path's allocation count as
// independent of the population: Total folds every subscriber through one
// scratch aggregate, and TopImpaired ranks on integer sums and builds
// aggregates for its k winners only, so 50 and 5000 subscribers over the
// same partition layout measure the same allocs/op.
func TestStoreQueryAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are only pinned in the plain build")
	}
	from, to := base.Add(-time.Hour), base.Add(time.Hour)
	measure := func(subs int) (total, top float64) {
		s := allocStore(t, subs)
		if got := s.Total(from, to); got.Sessions == 0 {
			t.Fatalf("%d subscribers: empty total", subs)
		}
		total = testing.AllocsPerRun(5, func() { s.Total(from, to) })
		top = testing.AllocsPerRun(5, func() { s.TopImpaired(from, to, 10) })
		return total, top
	}
	smallTotal, smallTop := measure(50)
	bigTotal, bigTop := measure(5000)
	if smallTotal != bigTotal {
		t.Errorf("Total: %.0f allocs/op at 50 subscribers, %.0f at 5000", smallTotal, bigTotal)
	}
	if smallTop != bigTop {
		t.Errorf("TopImpaired(10): %.0f allocs/op at 50 subscribers, %.0f at 5000", smallTop, bigTop)
	}
}
