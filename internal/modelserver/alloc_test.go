package modelserver

import (
	"testing"
)

// TestServingSteadyStateAllocs is the steady-state-serving allocation gate:
// the /score handler's scoring call on a warm cached model must cost only
// the per-trace constants of the single-pass score kernel — no per-request
// model load, no cold arenas, no tape re-growth. A regression on any of
// those shows up as hundreds to thousands of extra allocations and fails
// the bound at once.
func TestServingSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	reg, _, query := servingFixture(t, 37, 4)
	s := &Server{Registry: reg}
	info, err := reg.resolveInfo("prod", "latest")
	if err != nil {
		t.Fatal(err)
	}
	m, err := reg.sharedModel(info)
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		if _, _, _, ok := s.scoreAdmitted(m, query); !ok {
			t.Fatal("scoring call shed")
		}
	}
	// Warm-up: per-trace caches, pooled arenas.
	for j := 0; j < 3; j++ {
		step()
	}
	// Same ≤32-per-trace budget as core's predict/score gates, times 4
	// traces.
	if avg := testing.AllocsPerRun(50, step); avg > 32*4 {
		t.Fatalf("steady-state serving allocates %.1f times per run, want <= %d", avg, 32*4)
	}
}
