// The cross-tier query path. A query range maps every instant to exactly
// one source — the unsealed pending tail, or the one archive tier covering
// it — via the GC watermarks: the hour tier covers everything at or above
// its watermark, the day tier covers [day watermark, hour watermark), the
// week tier covers [week watermark, day watermark). Because watermarks
// advance only in whole successor-span steps, a coarse partition is either
// entirely the covering source for its span or entirely shadowed by finer
// partitions — a range is never double-counted across tiers.
//
// Resolution follows the covering tier: a partition (or pending cell)
// contributes whole if its span intersects the query range.
//
// # Merge order
//
// Every contribution is a run of cells sorted by address (sealed
// partitions are stored sorted; the pending tail is sorted per query), and
// the runs come in start order. A query is one k-way heap merge over those
// runs, and the merge order is the contract: subscribers ascending by
// address, and each subscriber's cells in start order, folded into a
// fresh aggregate. Total then folds the per-subscriber aggregates in that
// same address order. Float addition is not associative, so this fixed
// order is what makes the sums repeat bit for bit: the same archive state
// answers the same query byte-identically on every run.

package store

import (
	"math"
	"net/netip"
	"slices"
	"sort"
	"time"

	"gamelens/internal/qoe"
	"gamelens/internal/rollup"
)

// visibleLocked reports whether partition p is its range's covering tier.
func (s *Store) visibleLocked(p *partData) bool {
	endNs := p.startNs + s.spansNs[p.tier]
	switch p.tier {
	case TierHour:
		return s.gc[TierHour] == watermarkUnset || p.startNs >= s.gc[TierHour]
	case TierDay:
		return s.gc[TierHour] != watermarkUnset && endNs <= s.gc[TierHour] &&
			(s.gc[TierDay] == watermarkUnset || p.startNs >= s.gc[TierDay])
	default:
		return s.gc[TierDay] != watermarkUnset && endNs <= s.gc[TierDay] &&
			(s.gc[TierWeek] == watermarkUnset || p.startNs >= s.gc[TierWeek])
	}
}

// slice is one time-ordered contribution to a query: a visible partition's
// cells or a pending partition's, sorted by address.
type slice struct {
	startNs int64
	cells   []cell
}

// slicesLocked collects every contribution intersecting [fromNs, toNs),
// sorted by start (contributions never overlap, so start order is total
// time order).
func (s *Store) slicesLocked(fromNs, toNs int64) []slice {
	var out []slice
	for t := TierHour; t < numTiers; t++ {
		spanNs := s.spansNs[t]
		//gamelens:sorted contributions are sorted by start just below
		for start, p := range s.parts[t] {
			if start+spanNs <= fromNs || start >= toNs {
				continue
			}
			if !s.visibleLocked(p) {
				continue
			}
			out = append(out, slice{startNs: start, cells: p.cells})
		}
	}
	hourNs := s.spansNs[TierHour]
	//gamelens:sorted contributions are sorted by start just below
	for start, p := range s.pending {
		if start+hourNs <= fromNs || start >= toNs {
			continue
		}
		out = append(out, slice{startNs: start, cells: sortedCells(p.subs)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].startNs < out[j].startNs })
	return out
}

// merger is the k-way merge over start-ordered runs — a query's
// contributions, or the fine partitions a compaction folds: next yields
// each subscriber once, in address order, with its cells in start order.
type merger struct {
	runs  []slice
	pos   []int // per run: index of its next unmerged cell
	heap  []int // runs with cells left, min-heap on (head address, run index)
	cells []*rollup.Counts
}

func newMerger(runs []slice) *merger {
	m := &merger{
		runs:  runs,
		pos:   make([]int, len(runs)),
		heap:  make([]int, 0, len(runs)),
		cells: make([]*rollup.Counts, 0, len(runs)),
	}
	for r := range runs {
		if len(runs[r].cells) > 0 {
			m.heap = append(m.heap, r)
		}
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		siftDown(m.heap, i, m.less)
	}
	return m
}

// less orders runs by their head cell's address, ties by run index — start
// order, so equal addresses leave the heap in start order.
func (m *merger) less(a, b int) bool {
	if c := m.runs[a].cells[m.pos[a]].addr.Compare(m.runs[b].cells[m.pos[b]].addr); c != 0 {
		return c < 0
	}
	return a < b
}

// next returns the next subscriber and its cells (valid until the next
// call), or ok false once every run is exhausted.
func (m *merger) next() (addr netip.Addr, cells []*rollup.Counts, ok bool) {
	if len(m.heap) == 0 {
		return netip.Addr{}, nil, false
	}
	r := m.heap[0]
	addr = m.runs[r].cells[m.pos[r]].addr
	m.cells = m.cells[:0]
	for len(m.heap) > 0 {
		r := m.heap[0]
		c := &m.runs[r].cells[m.pos[r]]
		if c.addr != addr {
			break
		}
		m.cells = append(m.cells, &c.counts)
		m.pos[r]++
		if m.pos[r] == len(m.runs[r].cells) {
			last := len(m.heap) - 1
			m.heap[0] = m.heap[last]
			m.heap = m.heap[:last]
		}
		siftDown(m.heap, 0, m.less)
	}
	return addr, m.cells, true
}

// siftDown restores the min-heap property of h under less from index i.
func siftDown[T any](h []T, i int, less func(a, b T) bool) {
	for {
		least, l := i, 2*i+1
		if l < len(h) && less(h[l], h[least]) {
			least = l
		}
		if l+1 < len(h) && less(h[l+1], h[least]) {
			least = l + 1
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// foldInto merges cells into acc in order.
func foldInto(acc *rollup.Counts, cells []*rollup.Counts) {
	for _, c := range cells {
		acc.Merge(c)
	}
}

// Range returns the per-subscriber aggregates over [from, to) — archive
// and unsealed tail together — sorted by address. Resolution is the
// covering tier's partition span: a partition intersecting the range
// contributes whole.
func (s *Store) Range(from, to time.Time) []rollup.Aggregate {
	s.mu.Lock()
	defer s.mu.Unlock()
	runs := s.slicesLocked(from.UnixNano(), to.UnixNano())
	longest := 0
	for _, r := range runs {
		longest = max(longest, len(r.cells))
	}
	out := make([]rollup.Aggregate, 0, longest)
	m := newMerger(runs)
	for addr, cells, ok := m.next(); ok; addr, cells, ok = m.next() {
		out = append(out, rollup.Aggregate{Subscriber: addr})
		foldInto(&out[len(out)-1].Window, cells)
	}
	return out
}

// Total returns the fleet-wide aggregate over [from, to): every
// subscriber's range aggregate folded in address order. Fleet percentiles
// are Total(...).ThroughputPercentiles() / QoEProxyPercentiles() — the
// sketches merge exactly, so the fleet distribution is the true union of
// the per-session samples, not an average of averages. Each subscriber's
// aggregate is built in one scratch Counts reset in place, so the cost
// does not allocate per subscriber.
func (s *Store) Total(from, to time.Time) rollup.Counts {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total, scratch rollup.Counts
	m := newMerger(s.slicesLocked(from.UnixNano(), to.UnixNano()))
	for _, cells, ok := m.next(); ok; _, cells, ok = m.next() {
		scratch.Reset()
		foldInto(&scratch, cells)
		total.Merge(&scratch)
	}
	return total
}

// impairment is one subscriber's TopImpaired ranking key. GoodShare reads
// only Sessions and Effective[Good], and both are integer sums, so the key
// needs no aggregate.
type impairment struct {
	addr     netip.Addr
	sessions int64
	bad      float64 // 1 - GoodShare(true)
}

// before is the ranking: more impaired first, ties toward more sessions,
// then by address — a total order, so the cut at k is deterministic.
func (a impairment) before(b impairment) bool {
	if a.bad != b.bad {
		return a.bad > b.bad
	}
	if a.sessions != b.sessions {
		return a.sessions > b.sessions
	}
	return a.addr.Compare(b.addr) < 0
}

// TopImpaired returns the k most impaired subscribers over [from, to) (all
// of them when k < 0): ranked by the share of sessions whose effective QoE
// fell below "good" (descending), ties broken toward more sessions, then
// by address. Ranking needs only integer sums per subscriber; full
// aggregates are built for the k winners alone.
func (s *Store) TopImpaired(from, to time.Time, k int) []rollup.Aggregate {
	s.mu.Lock()
	defer s.mu.Unlock()
	runs := s.slicesLocked(from.UnixNano(), to.UnixNano())
	if k < 0 {
		k = math.MaxInt
	}
	bound := 0
	for _, r := range runs {
		bound += len(r.cells)
	}
	// top holds the best k seen so far; once full it is a heap with the
	// worst of them at the root, replaced whenever a better one arrives.
	top := make([]impairment, 0, min(k, bound))
	worstFirst := func(a, b impairment) bool { return b.before(a) }
	m := newMerger(runs)
	for addr, cells, ok := m.next(); ok; addr, cells, ok = m.next() {
		var key rollup.Counts // only the two fields GoodShare reads
		for _, c := range cells {
			key.Sessions += c.Sessions
			key.Effective[qoe.Good] += c.Effective[qoe.Good]
		}
		cand := impairment{addr: addr, sessions: key.Sessions, bad: 1 - key.GoodShare(true)}
		switch {
		case len(top) < k:
			top = append(top, cand)
			if len(top) == k {
				for i := k/2 - 1; i >= 0; i-- {
					siftDown(top, i, worstFirst)
				}
			}
		case k > 0 && cand.before(top[0]):
			top[0] = cand
			siftDown(top, 0, worstFirst)
		}
	}
	slices.SortFunc(top, func(a, b impairment) int {
		switch {
		case a.before(b):
			return -1
		case b.before(a):
			return 1
		}
		return 0
	})
	out := make([]rollup.Aggregate, len(top))
	for i, w := range top {
		out[i].Subscriber = w.addr
		for _, r := range runs {
			j, found := sort.Find(len(r.cells), func(j int) int { return w.addr.Compare(r.cells[j].addr) })
			if found {
				out[i].Window.Merge(&r.cells[j].counts)
			}
		}
	}
	return out
}
