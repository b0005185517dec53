package sketch

import (
	"testing"

	"gamelens/internal/race"
)

// TestSketchAddAllocs pins the insertion, merge and reset paths at zero
// allocations: New owns the only buffer the sketch ever allocates (the
// warm-up), so sketch insertion inside Rollup.Observe's steady state stays
// allocation-free.
func TestSketchAddAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are only pinned in the plain build")
	}
	s := New(Config{})
	v := 0.25
	if n := testing.AllocsPerRun(500, func() {
		s.Add(v)
		s.Add(0) // exact-zero centroid
		v *= 1.7
		if v > 9e4 {
			v = 0.25
		}
	}); n != 0 {
		t.Fatalf("Sketch.Add allocates %.1f/op, want 0", n)
	}
	o := New(Config{})
	o.Add(3.5)
	if n := testing.AllocsPerRun(500, func() { s.Merge(o) }); n != 0 {
		t.Fatalf("Sketch.Merge allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(500, func() {
		s.Reset()
		s.Merge(o)
	}); n != 0 {
		t.Fatalf("Sketch.Reset allocates %.1f/op, want 0", n)
	}
}
