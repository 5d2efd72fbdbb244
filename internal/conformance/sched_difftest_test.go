package conformance

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/progen"
)

// parallelize splices PGAS traffic into a progen program so the worker
// scheduler actually parks: a barrier-fenced, lock-serialized increment
// of a counter homed on PE 0 right after the prologue, an audit read of
// it, and a closing barrier before KTHXBYE. The injected names are
// outside progen's fixed variable pool (va..vc, sf, si, arr), and the
// injected output — "tally=NP" on every PE — is deterministic at any NP,
// so the whole program stays byte-comparable across schedulers.
func parallelize(src string) string {
	preamble := "HAI 1.2\n" +
		"WE HAS A fuzztally ITZ SRSLY A NUMBR AN IM SHARIN IT\n" +
		"HUGZ\n" +
		"IM SRSLY MESIN WIF fuzztally\n" +
		"TXT MAH BFF 0, UR fuzztally R SUM OF UR fuzztally AN 1\n" +
		"DUN MESIN WIF fuzztally\n" +
		"HUGZ\n" +
		"I HAS A fuzzseen ITZ A NUMBR\n" +
		"TXT MAH BFF 0, fuzzseen R UR fuzztally\n" +
		"VISIBLE SMOOSH \"tally=\" AN fuzzseen MKAY\n"
	src = strings.Replace(src, "HAI 1.2\n", preamble, 1)
	return strings.Replace(src, "KTHXBYE", "HUGZ\nKTHXBYE", 1)
}

// TestSchedDifferentialHighNP is the worker-scheduler differential at
// high PE counts: progen programs with injected PGAS traffic (see
// parallelize) run on the vm tier under Sched=goroutines and
// Sched=workers, and for every (seed, NP) the two modes must agree on
// the exact grouped output bytes and the exit status. Goroutine-per-PE
// mode is the oracle — it is the code path the Tables I-III matrix
// validates against the other engines — so any divergence here is a
// scheduler bug: a lost wakeup, a resume replaying a non-idempotent
// prefix, or metering drift from the park/re-charge cycle.
//
// -short keeps NP in {64, 256} (both above backend.SchedAutoNP, so auto
// mode would also pick workers); the full run adds NP=1024 on a reduced
// seed set.
func TestSchedDifferentialHighNP(t *testing.T) {
	const stmts = 12
	type sweep struct {
		np    int
		seeds int
	}
	sweeps := []sweep{{64, 30}, {256, 30}}
	if !testing.Short() {
		sweeps = append(sweeps, sweep{1024, 10})
	}
	for _, sw := range sweeps {
		sw := sw
		for seed := int64(1); seed <= int64(sw.seeds); seed++ {
			seed := seed
			src := parallelize(progen.New(seed).Program(stmts))
			prog, err := core.Parse("fuzz.lol", src)
			if err != nil {
				t.Fatalf("seed %d: parallelized program rejected: %v\n--- source ---\n%s", seed, err, src)
			}
			t.Run(fmt.Sprintf("np%d/seed%02d", sw.np, seed), func(t *testing.T) {
				t.Parallel()
				modes := []backend.SchedMode{backend.SchedGoroutines, backend.SchedWorkers}
				outs := make([]string, len(modes))
				errs := make([]error, len(modes))
				for i, m := range modes {
					var out strings.Builder
					_, errs[i] = prog.Run(core.RunConfig{Backend: core.BackendVM, Config: backend.Config{
						NP:          sw.np,
						Seed:        2017,
						Stdout:      &out,
						GroupOutput: true,
						Sched:       m,
					}})
					outs[i] = out.String()
				}
				if (errs[0] == nil) != (errs[1] == nil) {
					t.Fatalf("modes disagree on exit status: goroutines=%v workers=%v\n--- source ---\n%s",
						errs[0], errs[1], src)
				}
				if errs[0] != nil {
					t.Fatalf("program died in both modes: %v\n--- source ---\n%s", errs[0], src)
				}
				if outs[0] != outs[1] {
					t.Fatalf("worker scheduler diverged from goroutine mode at np=%d\n--- source ---\n%s", sw.np, src)
				}
				want := fmt.Sprintf("tally=%d\n", sw.np)
				if !strings.Contains(outs[0], want) {
					t.Fatalf("output missing %q — injected traffic did not run\n%s", want, src)
				}
			})
		}
	}
}
