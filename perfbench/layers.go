package main

import (
	"bufio"
	"fmt"
	"math"
	"net/http"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/sema"
	"repro/internal/shmem"
	"repro/internal/value"
	"repro/internal/vm"
)

// The per-layer probes run only in the traced pass. Each calls one public
// function of one layer directly, under a span, so its cost is measured
// where it is spent rather than inferred from end-to-end time.

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// frontendProbe measures parser.Parse and sema.Check per KB of source and
// the two codegens per program, over the workload's distinct sources.
func frontendProbe(srcs []string, reps int, rec *recorder, put func(string, float64)) error {
	var kb, parseUS, checkUS, vmUS, compUS float64
	var parseAllocs, checkAllocs uint64
	var codeLen int
	for _, src := range srcs {
		for r := 0; r < reps; r++ {
			sp := rec.begin("parser.Parse", 0, "frontend")
			a0 := mallocs()
			t0 := time.Now()
			tree, err := parser.Parse("probe.lol", src)
			d := time.Since(t0)
			parseAllocs += mallocs() - a0
			rec.end(sp)
			if err != nil {
				return fmt.Errorf("frontend probe: %w", err)
			}
			parseUS += float64(d) / 1e3

			sp = rec.begin("sema.Check", 0, "frontend")
			a0 = mallocs()
			t0 = time.Now()
			info, err := sema.Check(tree)
			d = time.Since(t0)
			checkAllocs += mallocs() - a0
			rec.end(sp)
			if err != nil {
				return fmt.Errorf("frontend probe: %w", err)
			}
			checkUS += float64(d) / 1e3
			kb += float64(len(src)) / 1024

			sp = rec.begin("vm.Compile", 0, "frontend")
			t0 = time.Now()
			bc, err := vm.Compile(info)
			vmUS += float64(time.Since(t0)) / 1e3
			rec.end(sp)
			if err != nil {
				return fmt.Errorf("frontend probe: %w", err)
			}
			codeLen += instructions(bc)

			sp = rec.begin("compile.Compile", 0, "frontend")
			t0 = time.Now()
			_, err = compile.Compile(info)
			compUS += float64(time.Since(t0)) / 1e3
			rec.end(sp)
			if err != nil {
				return fmt.Errorf("frontend probe: %w", err)
			}
		}
	}
	n := float64(len(srcs) * reps)
	put("parser.us_per_kb", parseUS/kb)
	put("parser.allocs_per_kb", float64(parseAllocs)/kb)
	put("sema.us_per_kb", checkUS/kb)
	put("sema.allocs_per_kb", float64(checkAllocs)/kb)
	put("vm.codegen_us", vmUS/n)
	put("vm.code_len", float64(codeLen)/n)
	put("compile.codegen_us", compUS/n)
	return nil
}

// instructions counts the instruction lines of the fused listing.
func instructions(p *vm.Program) int {
	n := 0
	for _, line := range strings.Split(vm.Disassemble(p), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			if _, err := strconv.Atoi(f[0]); err == nil {
				n++
			}
		}
	}
	return n
}

// shmemProbe times the runtime's primitives through the public World/PE
// API: barriers by algorithm at NP 16, a contended lock hand-off between
// two PEs in each scheduling mode, and one-sided get/put.
func shmemProbe(rec *recorder, put func(string, float64)) error {
	const episodes = 400
	for _, alg := range []shmem.BarrierAlg{shmem.BarrierCentral, shmem.BarrierDissemination} {
		w, err := shmem.NewWorld(16, nil, 0, shmem.Options{Barrier: alg})
		if err != nil {
			return err
		}
		sp := rec.begin("shmem.Barrier", 0, alg.String())
		t0 := time.Now()
		err = w.Run(func(pe *shmem.PE) error {
			for i := 0; i < episodes; i++ {
				if err := pe.Barrier(); err != nil {
					return err
				}
			}
			return nil
		})
		put(fmt.Sprintf("shmem.barrier_us.%s.np16", alg), float64(time.Since(t0))/1e3/episodes)
		rec.end(sp)
		if err != nil {
			return fmt.Errorf("barrier probe: %w", err)
		}
	}

	const handoffs = 2000
	lockBody := func(pe *shmem.PE) error {
		for i := 0; i < handoffs; i++ {
			if err := pe.SetLock(0); err != nil {
				return err
			}
			if err := pe.ClearLock(0); err != nil {
				return err
			}
		}
		return nil
	}
	w, err := shmem.NewWorld(2, nil, 1, shmem.Options{})
	if err != nil {
		return err
	}
	sp := rec.begin("shmem.SetLock", 0, "goroutines")
	t0 := time.Now()
	err = w.Run(lockBody)
	put("shmem.lock_handoff_us.goroutines", float64(time.Since(t0))/1e3/(2*handoffs))
	rec.end(sp)
	if err != nil {
		return fmt.Errorf("lock probe: %w", err)
	}

	w, err = shmem.NewWorld(2, nil, 1, shmem.Options{})
	if err != nil {
		return err
	}
	sp = rec.begin("shmem.SetLock", 0, "workers")
	t0 = time.Now()
	err = w.RunScheduled(schedWorkers, lockStep(handoffs))
	put("shmem.lock_handoff_us.workers", float64(time.Since(t0))/1e3/(2*handoffs))
	rec.end(sp)
	if err != nil {
		return fmt.Errorf("scheduled lock probe: %w", err)
	}

	return getPutProbe(rec, put)
}

// lockStep is the scheduled form of the lock loop: a resumable step that
// returns the runtime's *Suspend when SetLock parks and re-invokes
// SetLock when resumed, per the shmem suspension contract.
func lockStep(handoffs int) func(pe *shmem.PE) func() error {
	return func(pe *shmem.PE) func() error {
		i := 0
		return func() error {
			for ; i < handoffs; i++ {
				if err := pe.SetLock(0); err != nil {
					return err // a *Suspend parks the task; SetLock runs again on resume
				}
				if err := pe.ClearLock(0); err != nil {
					return err
				}
			}
			return nil
		}
	}
}

// getPutProbe times PE 0's one-sided access to PE 1's scalar.
func getPutProbe(rec *recorder, put func(string, float64)) error {
	const ops = 20_000
	w, err := shmem.NewWorld(2, []shmem.SymbolSpec{{Name: "x"}}, 0, shmem.Options{})
	if err != nil {
		return err
	}
	err = w.Run(func(pe *shmem.PE) error {
		if err := pe.InitScalar(0, value.NewNumbr(7)); err != nil {
			return err
		}
		if err := pe.Barrier(); err != nil {
			return err
		}
		if pe.ID() == 0 {
			sp := rec.begin("shmem.Get", 0, "probe")
			a0, t0 := mallocs(), time.Now()
			for i := 0; i < ops; i++ {
				if _, err := pe.Get(1, 0); err != nil {
					return err
				}
			}
			put("shmem.get_ns", float64(time.Since(t0))/ops)
			put("shmem.get_allocs", float64(mallocs()-a0)/ops)
			rec.end(sp)

			sp = rec.begin("shmem.Put", 0, "probe")
			v := value.NewNumbr(42)
			a0, t0 = mallocs(), time.Now()
			for i := 0; i < ops; i++ {
				if err := pe.Put(1, 0, v); err != nil {
					return err
				}
			}
			put("shmem.put_ns", float64(time.Since(t0))/ops)
			put("shmem.put_allocs", float64(mallocs()-a0)/ops)
			rec.end(sp)
		}
		return pe.Barrier()
	})
	if err != nil {
		return fmt.Errorf("get/put probe: %w", err)
	}
	return nil
}

// frontendReplay times what lolserv's frontend did for each program-cache
// miss, outside the server: core.Parse then Prepare for the request's
// engine. The server does not report this stage, so it is computed. It
// returns the replayed time of each sample (0 for hits) and of the misses.
func frontendReplay(phases []*phase, rec *recorder) (perSample [][]float64, misses []float64) {
	for _, ph := range phases {
		per := make([]float64, len(ph.samples))
		for i := range ph.samples {
			s := &ph.samples[i]
			if s.Err != nil || s.Dropped || s.Resp.CacheHit || s.Resp.ResultCacheHit {
				continue
			}
			r := ph.gen(s.Index)
			b, err := core.ParseBackend(r.Backend)
			if err != nil {
				continue
			}
			sp := rec.begin("replay.frontend", 0, "replay")
			t0 := time.Now()
			if prog, err := core.Parse("job.lol", r.Src); err == nil {
				_ = prog.Prepare(b) // a preparation error costs the same as in the server
			}
			per[i] = ms(time.Since(t0))
			rec.end(sp)
			misses = append(misses, per[i])
		}
		perSample = append(perSample, per)
	}
	return perSample, misses
}

var bucketLine = regexp.MustCompile(`^(lolserv_queue_wait_seconds|lolserv_stage_seconds)_bucket\{([^}]*)\} (\d+)$`)
var labelPair = regexp.MustCompile(`(\w+)="([^"]*)"`)

// histogramP99 scrapes /metrics and returns the histogram-estimated p99,
// in ms, of the queue_wait histogram and of the execute stage summed over
// tiers: the numbers an operator's dashboard would show.
func histogramP99(s *service) (queueWait, execute float64, err error) {
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return 0, 0, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	queue := map[float64]uint64{}
	exec := map[float64]uint64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		m := bucketLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		labels := map[string]string{}
		for _, p := range labelPair.FindAllStringSubmatch(m[2], -1) {
			labels[p[1]] = p[2]
		}
		le := math.Inf(1)
		if labels["le"] != "+Inf" {
			if le, err = strconv.ParseFloat(labels["le"], 64); err != nil {
				return 0, 0, fmt.Errorf("scrape /metrics: %w", err)
			}
		}
		n, _ := strconv.ParseUint(m[3], 10, 64) // the pattern admits digits only
		switch {
		case m[1] == "lolserv_queue_wait_seconds":
			queue[le] += n
		case labels["stage"] == "execute":
			exec[le] += n
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, fmt.Errorf("scrape /metrics: %w", err)
	}
	return 1000 * cumulativeP99(queue), 1000 * cumulativeP99(exec), nil
}

func cumulativeP99(buckets map[float64]uint64) float64 {
	les := make([]float64, 0, len(buckets))
	for le := range buckets {
		les = append(les, le)
	}
	sort.Float64s(les)
	var bounds []float64
	var cum []uint64
	for _, le := range les {
		if !math.IsInf(le, 1) {
			bounds = append(bounds, le)
		}
		cum = append(cum, buckets[le])
	}
	if len(cum) != len(bounds)+1 {
		return 0
	}
	return obs.QuantileFromCumulative(bounds, cum, 0.99)
}

// scrapeOK reports whether lolserv answers its health check, the
// set-up's proof that the stack is serving.
func scrapeOK(s *service) error {
	resp, err := s.client.Get(s.url + "/v1/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return nil
}
