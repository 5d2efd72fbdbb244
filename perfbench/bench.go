package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
)

// bench is one workload's inputs, generated from the seed before anything
// is timed.
type bench struct {
	seed  int64
	conns int // client connections at heavy load
	suite func(pass int) []jobSpec
	// warm are the programs the timed set-up parses and prepares, as a
	// service sees them before its first request.
	warm []string
	// sources are the distinct programs of the frontend probe.
	sources  []string
	expected map[string]string // committed expected outputs, by job name
	oracle   *oracle
	closed   func(i int) request // kernels and sync: the closed-loop stream
	class    *classroom          // classroom: the open-loop streams
	// maxReqs are classroom's max-phase requests, built once before the
	// set-up; see loadPhase.
	maxReqs []request
}

var workloads = map[string]func(seed int64) (*bench, error){
	"kernels":   suiteWorkload(kernelsSuite),
	"sync":      suiteWorkload(syncSuite),
	"classroom": classroomWorkload,
}

// connsFor is the heavy-load connection count: one per CPU of the host,
// capped at goMaxProcs.
func connsFor() int { return min(runtime.NumCPU(), goMaxProcs) }

// suiteWorkload builds kernels or sync from its fixed suite.
func suiteWorkload(gen func(seed int64) ([]jobSpec, error)) func(int64) (*bench, error) {
	return func(seed int64) (*bench, error) {
		suite, err := gen(seed)
		if err != nil {
			return nil, err
		}
		b := &bench{seed: seed, conns: connsFor(), oracle: newOracle(), expected: map[string]string{}}
		seen := map[string]bool{}
		for _, j := range suite {
			want, err := os.ReadFile(filepath.Join("perfbench", "expected", j.Name+".txt"))
			switch {
			case err == nil:
				b.expected[j.Name] = string(want)
			case !errors.Is(err, os.ErrNotExist):
				return nil, err
			}
			if !seen[j.Src] {
				seen[j.Src] = true
				b.sources = append(b.sources, j.Src)
			}
		}
		b.warm = b.sources
		b.suite = shuffled(suite, seed)
		b.closed, err = suiteRequests(suite, seed)
		return b, err
	}
}

// shuffled returns the passes of a suite: pass p is the suite in a
// seeded order, so no engine always runs first.
func shuffled(suite []jobSpec, seed int64) func(pass int) []jobSpec {
	return func(pass int) []jobSpec {
		out := append([]jobSpec(nil), suite...)
		rand.New(rand.NewSource(seed+int64(pass))).Shuffle(len(out), func(i, k int) { out[i], out[k] = out[k], out[i] })
		return out
	}
}

func classroomWorkload(seed int64) (*bench, error) {
	c, err := newClassroom(seed)
	if err != nil {
		return nil, err
	}
	b := &bench{seed: seed, conns: connsFor(), oracle: newOracle(), class: c}
	suite := c.suite()
	b.suite = shuffled(suite, seed)
	for _, j := range suite {
		if j.Engine == engInterp {
			b.sources = append(b.sources, j.Src)
		}
	}
	for _, e := range classExamples {
		b.warm = append(b.warm, c.examples[e.rel])
	}
	b.maxReqs = make([]request, int(maxRateGuess*phaseDur(openPlan.max/float64(openPlan.rounds)).Seconds()))
	for i := range b.maxReqs {
		b.maxReqs[i] = c.request(streamMax, i)
	}
	return b, nil
}

// startSystem is the timed set-up: start lolserv behind its listener,
// see it answer, and parse and prepare the workload's standing programs
// on every engine.
func (b *bench) startSystem() (*service, error) {
	svc, err := startService(b.conns)
	if err != nil {
		return nil, err
	}
	if err := scrapeOK(svc); err != nil {
		_ = svc.close() // the health-check failure is the error to report
		return nil, err
	}
	for _, src := range b.warm {
		prog, err := core.Parse("warm.lol", src)
		if err == nil {
			err = errors.Join(prog.Prepare(core.BackendVM), prog.Prepare(core.BackendCompile))
		}
		if err != nil {
			_ = svc.close()
			return nil, fmt.Errorf("prepare: %w", err)
		}
	}
	return svc, nil
}

// starts times starts of the system: at least setupMinStarts of them, and
// more until d has passed. It keeps the last system running and returns
// it when keep is set, and stops it otherwise.
func (b *bench) starts(d time.Duration, keep bool) (*service, []float64, error) {
	var svc *service
	var times []float64
	for start := time.Now(); len(times) < setupMinStarts || time.Since(start) < d; {
		if svc != nil {
			if err := svc.close(); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		var err error
		if svc, err = b.startSystem(); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	if !keep {
		return nil, times, svc.close()
	}
	return svc, times, nil
}
