package main

import (
	"fmt"
	"sort"
	"time"
)

// suiteResult is what the lolrun-path passes measured.
type suiteResult struct {
	jobs  int
	errs  []error
	layer map[string]float64 // per-layer metrics of the passes
}

type doneJob struct {
	spec jobSpec
	res  jobResult
	err  error
}

// suiteRunner runs suite passes through the lolrun path, one job at a
// time, and accumulates what they measure. A pass runs the suite's jobs
// of one engine; passes go in chunks spread over the run. Every chunk
// gives each engine one pass and then the next pass to whichever engine
// has had the least time, so an engine with short passes gets many of
// them and its median is steady, while the vm-workers pass, seconds long
// on sync, still gets one per chunk. Traced runs alternate traced and
// untraced passes, so the traced pass also measures what tracing costs.
type suiteRunner struct {
	b          *bench
	rec        *recorder
	chunks     int
	passes     map[engine]int
	spent      map[engine]time.Duration
	perEngine  map[engine][]float64    // pass time
	execEngine map[engine][]float64    // pass ExecWall
	passTime   map[engine][2][]float64 // pass time: [untraced, traced]
	counts     map[engine]map[string]float64
	done       []doneJob
	overheadUS []float64
	syncOpUS   map[string][]float64
	perJob     map[string]map[engine][]float64 // ExecWall by job name and engine
}

func newSuiteRunner(b *bench, rec *recorder) *suiteRunner {
	s := &suiteRunner{b: b, rec: rec, passes: map[engine]int{}, spent: map[engine]time.Duration{},
		perEngine: map[engine][]float64{}, execEngine: map[engine][]float64{}, passTime: map[engine][2][]float64{},
		counts: map[engine]map[string]float64{}, syncOpUS: map[string][]float64{}, perJob: map[string]map[engine][]float64{}}
	for _, e := range allEngines {
		s.counts[e] = map[string]float64{}
	}
	return s
}

// run runs one chunk: a pass of every engine, then more until d has passed.
func (s *suiteRunner) run(d time.Duration) {
	end := time.Now().Add(d)
	n := len(allEngines)
	for k := range allEngines {
		s.enginePass(allEngines[(k+s.chunks)%n])
	}
	s.chunks++
	for time.Now().Before(end) {
		next := allEngines[0]
		for _, e := range allEngines {
			if s.spent[e] < s.spent[next] {
				next = e
			}
		}
		s.enginePass(next)
	}
}

// enginePass runs the suite's jobs of engine e once, in a seeded order.
func (s *suiteRunner) enginePass(e engine) {
	pass := s.passes[e]
	s.passes[e]++
	r := s.rec
	if pass%2 == 1 {
		r = nil
	}
	start := time.Now()
	var wall, exec float64
	for k, j := range s.b.suite(pass) {
		if j.Engine != e {
			continue
		}
		id := fmt.Sprintf("%s/pass%d/%d", e, pass, k)
		sp := r.begin("job "+string(e), 0, id)
		res, err := runLolrun(j, r, sp, id)
		r.end(sp)
		s.done = append(s.done, doneJob{j, res, err})
		if err != nil {
			continue
		}
		wall += ms(res.Wall)
		exec += ms(res.ExecWall)
		s.overheadUS = append(s.overheadUS, float64(res.RunWall-res.ExecWall)/1e3)
		if s.perJob[j.Name] == nil {
			s.perJob[j.Name] = map[engine][]float64{}
		}
		s.perJob[j.Name][e] = append(s.perJob[j.Name][e], ms(res.ExecWall))
		st := res.Stats
		if ops := st.Barriers + st.LockAcquires; ops > 0 {
			mode := "goroutines"
			if e == engVMWorkers {
				mode = "workers"
			}
			s.syncOpUS[mode] = append(s.syncOpUS[mode], float64(res.ExecWall)/1e3/float64(ops))
		}
		c := s.counts[e]
		c["shmem.puts"] += float64(st.RemotePuts)
		c["shmem.gets"] += float64(st.RemoteGets)
		c["shmem.barriers"] += float64(st.Barriers)
		c["shmem.lock_acquires"] += float64(st.LockAcquires)
		c["lock_contended"] += float64(st.LockContended)
		c["sched.parks"] += float64(st.Sched.Parks)
		c["sched.unparks"] += float64(st.Sched.Unparks)
		c["sched.yields"] += float64(st.Sched.Yields)
	}
	s.spent[e] += time.Since(start)
	s.perEngine[e] = append(s.perEngine[e], wall)
	s.execEngine[e] = append(s.execEngine[e], exec)
	pt := s.passTime[e]
	if r == nil {
		pt[0] = append(pt[0], wall)
	} else {
		pt[1] = append(pt[1], wall)
	}
	s.passTime[e] = pt
}

// finish checks every job against its reference and sets
// suite_ms.<engine> in m: the median over passes of one pass's time on
// that engine.
func (s *suiteRunner) finish(m map[string]float64) suiteResult {
	out := suiteResult{jobs: len(s.done), layer: map[string]float64{}}
	for _, dj := range s.done {
		var err error
		if want, ok := s.b.expected[dj.spec.Name]; ok {
			if dj.err != nil || dj.res.Output != want {
				err = fmt.Errorf("%s on %s: output differs from the committed expected output (err %v)", dj.spec.Name, dj.spec.Engine, dj.err)
			}
		} else {
			err = s.b.oracle.checkJob(dj.spec, dj.res, dj.err)
		}
		if err != nil {
			out.errs = append(out.errs, err)
		}
	}
	l := out.layer
	// Counts are per whole pass: every engine's jobs once.
	perPass := map[string]float64{}
	for _, e := range allEngines {
		m["suite_ms."+string(e)] = median(s.perEngine[e])
		l["exec_ms."+string(e)] = median(s.execEngine[e])
		fmt.Printf("suite %-11s %3d passes  median %10.3f ms  exec %10.3f ms\n",
			e, len(s.perEngine[e]), median(s.perEngine[e]), median(s.execEngine[e]))
		for k, v := range s.counts[e] {
			perPass[k] += v / float64(s.passes[e])
		}
		pt := s.passTime[e]
		l["trace.overhead_ms.suite"] += median(pt[1]) - median(pt[0])
	}
	if s.rec != nil {
		printPerJob(s.perJob)
	}
	l["vm_over_compile"] = l["exec_ms.vm"] / l["exec_ms.compile"]
	l["backend.overhead_us"] = median(s.overheadUS)
	for _, k := range []string{"shmem.puts", "shmem.gets", "shmem.barriers", "shmem.lock_acquires",
		"sched.parks", "sched.unparks", "sched.yields"} {
		l[k] = perPass[k]
	}
	l["sched.unparks_minus_parks"] = perPass["sched.unparks"] - perPass["sched.parks"]
	l["shmem.lock_contended_share"] = 0
	if perPass["shmem.lock_acquires"] > 0 {
		l["shmem.lock_contended_share"] = perPass["lock_contended"] / perPass["shmem.lock_acquires"]
	}
	for _, mode := range []string{"goroutines", "workers"} {
		l["shmem.us_per_sync_op."+mode] = median(s.syncOpUS[mode])
	}
	return out
}

// printPerJob prints each program's median ExecWall per engine and its
// vm/compile ratio (base: compile).
func printPerJob(perJob map[string]map[engine][]float64) {
	names := make([]string, 0, len(perJob))
	for n := range perJob {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-30s %12s %12s %12s %12s %16s\n", "exec_ms by job", "interp", "vm", "compile", "vm-workers", "vm_over_compile")
	for _, n := range names {
		fmt.Printf("%-30s", n)
		for _, e := range allEngines {
			if xs := perJob[n][e]; len(xs) > 0 {
				fmt.Printf(" %12.4f", median(xs))
			} else {
				fmt.Printf(" %12s", "-")
			}
		}
		if vm, c := perJob[n][engVM], perJob[n][engCompile]; len(vm) > 0 && len(c) > 0 {
			fmt.Printf(" %16.3f", median(vm)/median(c))
		}
		fmt.Println()
	}
}
