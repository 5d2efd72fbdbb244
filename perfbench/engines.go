package main

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/shmem"
)

// schedWorkers pins the worker-pool size of every vm-workers job, so the
// pool does not follow the host's GOMAXPROCS.
const schedWorkers = 2

// jobResult is what one lolrun-path job produced and cost.
type jobResult struct {
	Output   string
	Stats    shmem.StatsSnapshot
	Wall     time.Duration // parse + prepare + run
	RunWall  time.Duration // Program.Run alone
	ExecWall time.Duration // Result.ExecWall: the SPMD run proper
}

// runLolrun runs one job the way cmd/lolrun does: core.Parse,
// Program.Prepare, Program.Run with grouped output. Spans go to rec under
// parent when tracing.
func runLolrun(j jobSpec, rec *recorder, parent int, id string) (jobResult, error) {
	var r jobResult
	start := time.Now()
	sp := rec.begin("core.Parse", parent, id)
	prog, err := core.Parse(j.Name+".lol", j.Src)
	rec.end(sp)
	if err != nil {
		return r, err
	}
	sp = rec.begin("core.Prepare", parent, id)
	err = prog.Prepare(j.Engine.backend())
	rec.end(sp)
	if err != nil {
		return r, err
	}
	var out strings.Builder
	cfg := core.RunConfig{Backend: j.Engine.backend(), Config: interp.Config{
		NP: j.NP, Seed: j.Seed, Barrier: j.Barrier, Stdout: &out, GroupOutput: true,
		Sched: j.Engine.sched(), SchedWorkers: schedWorkers,
	}}
	sp = rec.begin("core.Run", parent, id)
	runStart := time.Now()
	res, err := prog.Run(cfg)
	r.RunWall = time.Since(runStart)
	rec.end(sp)
	r.Wall = time.Since(start)
	if err != nil {
		return r, err
	}
	r.Output, r.Stats, r.ExecWall = out.String(), res.Stats, res.ExecWall
	return r, nil
}

// refKey identifies a deterministic run: the same program at the same NP,
// seed and barrier prints the same grouped output on every engine.
type refKey struct {
	Src     string
	NP      int
	Seed    int64
	Barrier shmem.BarrierAlg
}

// outcome is how a reference run ended.
type outcome struct {
	Output string
	Err    error
}

// oracle computes reference outputs with the interpreter in goroutine
// mode, the repository's differential oracle, once per distinct run. It
// is safe for concurrent use; distinct runs are computed in parallel.
type oracle struct {
	mu   sync.Mutex
	memo map[refKey]*refEntry
}

type refEntry struct {
	once sync.Once
	out  outcome
}

func newOracle() *oracle { return &oracle{memo: map[refKey]*refEntry{}} }

func (o *oracle) reference(k refKey) outcome {
	e := o.entry(k)
	e.once.Do(func() { e.out = o.compute(k) })
	return e.out
}

func (o *oracle) entry(k refKey) *refEntry {
	o.mu.Lock()
	defer o.mu.Unlock()
	e := o.memo[k]
	if e == nil {
		e = &refEntry{}
		o.memo[k] = e
	}
	return e
}

// compute runs k on the interpreter, in goroutine mode and under a
// deadline, so a submission meant to deadlock cannot hang the check. A
// program that never draws a random number prints the same under every
// seed, so its runs share the reference at seed 0.
func (o *oracle) compute(k refKey) outcome {
	prog, err := core.Parse("ref.lol", k.Src)
	if err != nil {
		return outcome{Err: err}
	}
	if prog.Audit().UsesRandom || k.Seed == 0 {
		return interpRun(prog, k)
	}
	k.Seed = 0
	e := o.entry(k)
	e.once.Do(func() { e.out = interpRun(prog, k) })
	return e.out
}

func interpRun(prog *core.Program, k refKey) outcome {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var out strings.Builder
	_, err := prog.Run(core.RunConfig{Backend: core.BackendInterp, Config: interp.Config{
		NP: k.NP, Seed: k.Seed, Barrier: k.Barrier, Stdout: &out, GroupOutput: true,
		Sched: backend.SchedGoroutines, Context: ctx,
	}})
	return outcome{Output: out.String(), Err: err}
}

// checkJob compares a lolrun-path job with the oracle.
func (o *oracle) checkJob(j jobSpec, got jobResult, err error) error {
	ref := o.reference(refKey{j.Src, j.NP, j.Seed, j.Barrier})
	switch {
	case ref.Err != nil:
		if isRuntimeError(ref.Err) && isRuntimeError(err) {
			return nil // a generated program that fails on the oracle must fail here too
		}
		return fmt.Errorf("%s on %s: reference run failed: %v; this run: %v", j.Name, j.Engine, ref.Err, err)
	case err != nil:
		return fmt.Errorf("%s on %s: %v", j.Name, j.Engine, err)
	case got.Output != ref.Output:
		return fmt.Errorf("%s on %s at NP %d: output differs from the interp reference", j.Name, j.Engine, j.NP)
	}
	return nil
}

// isRuntimeError reports whether err is a program's own runtime failure,
// as opposed to a frontend, budget or deadline failure.
func isRuntimeError(err error) bool {
	var re *backend.RuntimeError
	return errors.As(err, &re)
}
