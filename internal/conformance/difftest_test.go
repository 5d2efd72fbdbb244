package conformance

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/progen"
)

// TestProgenDifferentialNP is the cross-backend differential fuzz
// harness: a progen-generated corpus runs on every engine at
// NP 1, 4 and 8, and for each (seed, NP) all engines must agree on both
// the exact grouped output bytes and the exit status. progen programs
// are total and communication-free, so they are schedule-independent at
// any PE count (every PE computes the same thing; grouped mode orders
// the streams) — any disagreement is an engine bug, not luck. This
// extends the NP=1 progen differential in internal/progen to the
// parallel regime, where the vm and compile backends run a genuinely
// different code path per PE goroutine.
//
// -short caps the corpus (the quick smoke CI runs on every push); the
// full sweep runs in the regular test job.
func TestProgenDifferentialNP(t *testing.T) {
	engines := Engines()
	seeds, stmts := 90, 12
	if testing.Short() {
		seeds = 10
	}
	nps := []int{1, 4, 8}

	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		src := progen.New(seed).Program(stmts)
		prog, err := core.Parse("fuzz.lol", src)
		if err != nil {
			t.Fatalf("seed %d: generated program rejected: %v\n--- source ---\n%s", seed, err, src)
		}
		for _, np := range nps {
			np := np
			t.Run(fmt.Sprintf("seed%02d/np%d", seed, np), func(t *testing.T) {
				t.Parallel()
				outs := make([]string, len(engines))
				errs := make([]error, len(engines))
				for i, eng := range engines {
					var out strings.Builder
					_, errs[i] = prog.Run(core.RunConfig{Backend: eng, Config: backend.Config{
						NP:          np,
						Seed:        2017,
						Stdout:      &out,
						GroupOutput: true,
					}})
					outs[i] = out.String()
				}
				for i := 1; i < len(engines); i++ {
					if (errs[i] == nil) != (errs[0] == nil) {
						t.Fatalf("%s and %s disagree on exit status: %v vs %v\n--- source ---\n%s",
							engines[i], engines[0], errs[i], errs[0], src)
					}
					if errs[0] == nil && outs[i] != outs[0] {
						t.Fatalf("%s and %s disagree:\n%s: %q\n%s: %q\n--- source ---\n%s",
							engines[i], engines[0],
							engines[0], outs[0], engines[i], outs[i], src)
					}
				}
				if errs[0] != nil {
					t.Fatalf("total program died on every engine: %v\n--- source ---\n%s", errs[0], src)
				}
				// The NP-fold structure check: with no ME/MAH FRENZ and no
				// communication, the grouped output must be NP identical
				// copies of the NP=1 stream.
				if np > 1 {
					per := len(outs[0]) / np
					if per*np != len(outs[0]) {
						t.Fatalf("grouped output length %d is not divisible by np %d", len(outs[0]), np)
					}
					first := outs[0][:per]
					if outs[0] != strings.Repeat(first, np) {
						t.Fatalf("grouped output is not %d identical per-PE copies:\n%q", np, outs[0])
					}
				}
			})
		}
	}
}
