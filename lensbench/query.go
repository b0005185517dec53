package main

import (
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"strconv"
	"time"

	"gamelens"
)

// The read phase: a fixed mix of the archive's three queries — Range,
// Total and TopImpaired — over hour, day and week windows spread across
// the span the run wrote. What a query costs depends on the tier covering
// its window (the pending tail, hours, days or weeks), so each kind and
// width is asked at evenly spaced positions: every repetition sees the
// same mix of tiers. Repetition k shifts the grid by queryShift(seed, k),
// so runs of one seed ask the same questions and their answer digests
// compare rep by rep, and the positions a run's repetitions take cover
// the span evenly however many repetitions it makes (independent random
// shifts would cluster, and the percentiles would move with the
// clusters, since a window's cost depends on where it falls). Every
// repetition asks readQueries queries, a multiple of the nine
// kind-and-width pairs, so its own p95 has at least ten latencies beyond
// it.
const (
	readQueries = 216
	topK        = 10
)

var querySpans = [...]struct {
	name string
	d    time.Duration
}{{"hour", time.Hour}, {"day", 24 * time.Hour}, {"week", 7 * 24 * time.Hour}}

var queryKinds = [...]string{"range", "total", "topk"}

// queryShift is repetition k's grid shift, a fraction of one grid step:
// a seeded offset advanced by the golden ratio's fractional part per
// repetition, a low-discrepancy sequence.
func queryShift(seed int64, k int) float64 {
	_, f := math.Modf(rand.New(rand.NewSource(seed)).Float64() + float64(k)*0.6180339887498949)
	return f
}

// queryResult holds one read phase's latencies (all, and per kind.span),
// a digest of every answer so runs can be compared, and one Total over
// the whole written span.
type queryResult struct {
	latMs  []float64
	byKind map[string][]float64
	digest uint64
	total  gamelens.RollupCounts
}

func runQueries(arch *gamelens.ArchiveStore, lo, hi time.Time, shift float64, tr *tracer) queryResult {
	res := queryResult{byKind: map[string][]float64{}}
	h := fnv.New64a()
	n, pairs := readQueries, len(queryKinds)*len(querySpans)
	for i := 0; i < n; i++ {
		kind, sp := queryKinds[i%3], querySpans[(i/3)%3]
		at := (float64(i/pairs) + shift) / float64(n/pairs)
		from := lo.Add(time.Duration(at*float64(hi.Sub(lo))) - sp.d/2)
		to := from.Add(sp.d)
		name := kind + "." + sp.name
		var end func()
		if tr != nil {
			end = tr.span("store."+name, 1)
		}
		start := time.Now()
		var aggs []gamelens.SubscriberAggregate
		var total gamelens.RollupCounts
		switch kind {
		case "range":
			aggs = arch.Range(from, to)
		case "total":
			total = arch.Total(from, to)
		case "topk":
			aggs = arch.TopImpaired(from, to, topK)
		}
		ms := float64(time.Since(start).Nanoseconds()) / 1e6
		if end != nil {
			end()
		}
		res.latMs = append(res.latMs, ms)
		res.byKind[name] = append(res.byKind[name], ms)
		for _, a := range aggs {
			io.WriteString(h, a.Subscriber.String())
			digestCounts(h, &a.Window)
		}
		digestCounts(h, &total)
	}
	res.digest = h.Sum64()
	week := querySpans[2].d
	res.total = arch.Total(lo.Add(-week), hi.Add(week))
	return res
}

func digestCounts(w io.Writer, c *gamelens.RollupCounts) {
	b := strconv.AppendInt(nil, c.Sessions, 10)
	b = strconv.AppendUint(append(b, '|'), math.Float64bits(c.MbpsSum), 16)
	for _, v := range c.Effective {
		b = strconv.AppendInt(append(b, '|'), v, 10)
	}
	w.Write(b)
}
