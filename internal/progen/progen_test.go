package progen_test

import (
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/progen"
)

// TestDeterministic checks the generator's core contract: equal seeds
// generate byte-identical programs, distinct seeds diverge.
func TestDeterministic(t *testing.T) {
	a := progen.New(42).Program(20)
	b := progen.New(42).Program(20)
	if a != b {
		t.Fatal("same seed generated different programs")
	}
	c := progen.New(43).Program(20)
	if a == c {
		t.Fatal("different seeds generated identical programs (suspicious)")
	}
}

// TestGeneratedProgramsAreWellFormed parses and checks a swath of
// generated programs: everything progen emits must survive the frontend.
func TestGeneratedProgramsAreWellFormed(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		src := progen.New(seed).Program(15)
		if _, err := core.Parse("gen.lol", src); err != nil {
			t.Errorf("seed %d: generated program rejected: %v\n--- source ---\n%s", seed, err, src)
		}
	}
}

// TestBackendsAgreeOnGeneratedPrograms is the differential test progen
// exists for: every generated program is total, so all three engines must
// produce byte-identical output at NP=1. Any divergence is an engine bug.
func TestBackendsAgreeOnGeneratedPrograms(t *testing.T) {
	engines := core.Backends()
	for seed := int64(1); seed <= 25; seed++ {
		src := progen.New(seed).Program(12)
		prog, err := core.Parse("gen.lol", src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		outputs := make(map[core.Backend]string, len(engines))
		for _, eng := range engines {
			var out strings.Builder
			cfg := backend.Config{NP: 1, Seed: 7, Stdout: &out, GroupOutput: true}
			if _, err := prog.Run(core.RunConfig{Config: cfg, Backend: eng}); err != nil {
				t.Fatalf("seed %d: %s: generated program died: %v\n--- source ---\n%s",
					seed, eng, err, src)
			}
			outputs[eng] = out.String()
		}
		want := outputs[engines[0]]
		for eng, got := range outputs {
			if got != want {
				t.Errorf("seed %d: %s and %s disagree:\n%s: %q\n%s: %q\n--- source ---\n%s",
					seed, engines[0], eng, engines[0], want, eng, got, src)
			}
		}
	}
}
