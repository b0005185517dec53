package sketch

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// dense is the reference model for the occupied-range bookkeeping: the
// same geometry with every operation scanning the whole centroid buffer.
type dense struct {
	zero   int64
	counts []int64
}

func (d *dense) add(geom *Sketch, v float64) {
	if v <= 0 || math.IsNaN(v) {
		d.zero++
		return
	}
	d.counts[geom.index(v)]++
}

func (d *dense) total() int64 {
	n := d.zero
	for _, c := range d.counts {
		n += c
	}
	return n
}

func (d *dense) quantile(geom *Sketch, q float64) float64 {
	total := d.total()
	if total == 0 {
		return 0
	}
	rank := max(int64(math.Ceil(q*float64(total))), 1)
	cum := d.zero
	if rank <= cum {
		return 0
	}
	for i, n := range d.counts {
		cum += n
		if rank <= cum {
			return geom.rep(i)
		}
	}
	return geom.rep(len(d.counts) - 1)
}

func (d *dense) marshal(cfg Config) ([]byte, error) {
	doc := sketchJSON{Alpha: cfg.Alpha, Min: cfg.Min, Max: cfg.Max, Zero: d.zero}
	for i, n := range d.counts {
		if n != 0 {
			doc.Centroids = append(doc.Centroids, [2]int64{int64(i), n})
		}
	}
	return json.Marshal(doc)
}

func (d *dense) clone() *dense {
	return &dense{zero: d.zero, counts: append([]int64(nil), d.counts...)}
}

// propertyValue draws a sample across every regime the sketch maps
// differently: exact zero, negatives, NaN, sub-Min, in range, over-Max
// and +Inf.
func propertyValue(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return -rng.Float64()
	case 2:
		return math.NaN()
	case 3:
		return 1e-6 * rng.Float64()
	case 4:
		return 1e6 * (1 + rng.Float64())
	case 5:
		return math.Inf(1)
	default:
		return math.Exp(rng.Float64()*20 - 8) // ~3e-4 .. 1.6e5
	}
}

// TestOccupiedRangeMatchesDense runs random Add/Merge/Reset/Clone/
// UnmarshalJSON sequences over a pool of sketches against the dense
// reference. After every step the touched sketch must agree on Count,
// the quantile marks and the MarshalJSON bytes, and hold nothing outside
// its occupied range — so Reset followed by reuse can leave no stale
// centroid behind.
func TestOccupiedRangeMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const pool = 4
	cfg := Config{}.withDefaults()
	sks := make([]*Sketch, pool)
	refs := make([]*dense, pool)
	for i := range sks {
		sks[i] = New(cfg)
		refs[i] = &dense{counts: make([]int64, len(sks[i].counts))}
	}
	marks := []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 1}
	steps := 4000
	if testing.Short() {
		steps = 1000
	}
	for step := 0; step < steps; step++ {
		i, j := rng.Intn(pool), rng.Intn(pool)
		var op string
		switch r := rng.Intn(20); {
		case r < 12:
			op = "Add"
			for n := rng.Intn(3) + 1; n > 0; n-- {
				v := propertyValue(rng)
				sks[i].Add(v)
				refs[i].add(sks[i], v)
			}
		case r < 15:
			op = "Merge"
			sks[i].Merge(sks[j])
			for c := range refs[i].counts {
				refs[i].counts[c] += refs[j].counts[c]
			}
			refs[i].zero += refs[j].zero
		case r < 17:
			op = "Reset"
			sks[i].Reset()
			for c, n := range sks[i].counts {
				if n != 0 {
					t.Fatalf("step %d: Reset left centroid %d = %d", step, c, n)
				}
			}
			refs[i] = &dense{counts: make([]int64, len(refs[i].counts))}
		case r < 19:
			op = "Clone"
			sks[i] = sks[j].Clone()
			refs[i] = refs[j].clone()
		default:
			op = "UnmarshalJSON"
			b, err := json.Marshal(sks[j])
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(b, sks[i]); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			refs[i] = refs[j].clone()
		}
		s, ref := sks[i], refs[i]
		if s.Count() != ref.total() {
			t.Fatalf("step %d (%s): Count %d, dense %d", step, op, s.Count(), ref.total())
		}
		for _, q := range marks {
			if got, want := s.Quantile(q), ref.quantile(s, q); got != want {
				t.Fatalf("step %d (%s): Quantile(%v) = %v, dense %v", step, op, q, got, want)
			}
		}
		got, err := s.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("step %d (%s): MarshalJSON\n got %s\nwant %s", step, op, got, want)
		}
		for c, n := range s.counts {
			if n != 0 && (c < s.lo || c >= s.hi) {
				t.Fatalf("step %d (%s): centroid %d = %d outside occupied [%d, %d)", step, op, c, n, s.lo, s.hi)
			}
		}
	}
}
