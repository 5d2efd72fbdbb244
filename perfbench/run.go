package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// runSeconds is the --seconds of this run; phases take fixed shares of it.
var runSeconds = 30

func phaseDur(share float64) time.Duration {
	return time.Duration(share * float64(runSeconds) * float64(time.Second))
}

// plan is how a run spends its --seconds. It cycles rounds times through
// its suite passes and its loads, each taking its share divided by
// rounds. Spreading each phase over the run keeps a slow spell of the
// host from landing on one metric only; an open loop's p50 is the median
// of its rounds' p50s, so a bad round or two does not move it (a closed
// loop's is per job, see loadMetrics). A load's p99 is
// over the samples of all rounds, which gives it enough samples beyond
// it to stay inside the slowest kind of request (classroom's deadlocks)
// however short a round is. Each phase starts after a full garbage
// collection, so none pays for the garbage the one before it left.
type plan struct {
	rounds                   int
	suite, light, heavy, max float64 // shares of --seconds
}

var (
	// kernels and sync give half their time to the suite passes, whose
	// longest jobs (the vm-workers pass of sync) run for seconds, so they
	// cycle in few, long rounds. Their heavy load is a closed loop at one
	// connection per CPU, which is also how max_rate_rps is measured.
	closedPlan = plan{rounds: 3, suite: 0.5, light: 0.25, heavy: 0.25}
	// classroom's passes are short and its open-loop tails need many
	// rounds; its max rate has a closed-loop phase of its own.
	openPlan = plan{rounds: 10, suite: 0.15, light: 0.3, heavy: 0.3, max: 0.25}
)

// checkPhase checks every answer of a phase, on one goroutine per CPU:
// the measurement is over, and the references dominate the run's tail.
func checkPhase(o *oracle, ph *phase) []error {
	errs := make([]error, len(ph.samples))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < connsFor(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(ph.samples); i = int(next.Add(1) - 1) {
				errs[i] = o.checkSample(&ph.samples[i], ph.gen(ph.samples[i].Index))
			}
		}()
	}
	wg.Wait()
	return errs
}

// phase is one stretch of traffic to lolserv.
type phase struct {
	load    string // light, heavy or max
	round   int
	gen     func(i int) request // request i of the phase's stream
	samples []sample
}

// loadPhase runs round k of a load. The light and heavy loads of
// classroom are open loops at fixed rates; every other load is a closed
// loop, over one connection when light and one per CPU otherwise.
func (b *bench) loadPhase(svc *service, rec *recorder, load string, k int, d time.Duration) *phase {
	ph := &phase{load: load, round: k}
	name := fmt.Sprintf("%s%d", load, k)
	stream, rate, conns := streamLight+k, classLight, 1
	switch load {
	case "heavy":
		stream, rate, conns = streamHeavy+k, classHeavy, b.conns
	case "max":
		stream, conns = streamMax, b.conns
	}
	if b.closed != nil {
		// Each phase continues the stream where no other phase is, so no
		// request repeats an earlier one's seed.
		base := stream * 1_000_000
		ph.gen = func(i int) request { return b.closed(base + i) }
		ph.samples = svc.closedLoop(conns, d, ph.gen, rec, name)
		return ph
	}
	ph.gen = func(i int) request { return b.class.request(stream, i) }
	if load == "max" {
		// Generating a submission costs about as much as serving it, so
		// the closed loop sends the pre-built requests while they last.
		// Every round sends the same ones: they were built before the
		// set-up, so they add the same to peak_rss_mb in every run and
		// on every round, and by the time a round repeats a request,
		// thousands of others have pushed it out of lolserv's caches.
		ph.samples = svc.closedLoop(conns, d, func(i int) request {
			if i < len(b.maxReqs) {
				return b.maxReqs[i]
			}
			return ph.gen(i)
		}, rec, name)
		return ph
	}
	sched := poissonSchedule(rand.New(rand.NewSource(b.seed*7919+int64(stream))), rate, d)
	reqs := make([]request, len(sched))
	for i := range reqs {
		reqs[i] = ph.gen(i)
	}
	ph.samples = svc.openLoop(b.conns, sched, reqs, giveUp, rec, name)
	return ph
}

func run(o options) (*result, error) {
	runSeconds = o.seconds
	fmt.Printf("host: %s\n", hostInfo())
	fmt.Printf("workload %s seed %d seconds %d trace %v\n", o.workload, o.seed, o.seconds, o.trace)

	total0, steal0 := cpuStat()
	b, err := workloads[o.workload](o.seed)
	if err != nil {
		return nil, err
	}
	if len(b.maxReqs) > 0 {
		var kb float64
		for _, r := range b.maxReqs {
			kb += float64(len(r.Src)) / 1024
		}
		fmt.Printf("harness: %d pre-built max-phase requests hold %.1f MB of source, counted in peak_rss_mb\n", len(b.maxReqs), kb/1024)
	}
	sh := openPlan
	if b.closed != nil {
		sh = closedPlan
	}
	rounds := float64(sh.rounds)
	setupShare := time.Duration(float64(setupBudget) / rounds)
	svc, setupTimes, err := b.starts(setupShare, true)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}

	t0 := time.Now()
	suite := newSuiteRunner(b, rec)
	var phases []*phase
	loads := []string{"light", "heavy"}
	if sh.max > 0 {
		loads = append(loads, "max")
	}
	for k := 0; k < sh.rounds; k++ {
		if k > 0 {
			_, t, err := b.starts(setupShare, false)
			if err != nil {
				_ = svc.close() // the set-up failure is the error to report
				return nil, err
			}
			setupTimes = append(setupTimes, t...)
		}
		runtime.GC()
		suite.run(phaseDur(sh.suite / rounds))
		for _, load := range loads {
			d := map[string]float64{"light": sh.light, "heavy": sh.heavy, "max": sh.max}[load]
			runtime.GC()
			phases = append(phases, b.loadPhase(svc, rec, load, k, phaseDur(d/rounds)))
		}
	}
	m["peak_rss_mb"] = peakRSSMB()
	m["setup_s"] = median(setupTimes)
	measured := time.Now()
	fmt.Printf("set-up: %d starts, median %.4f ms\n", len(setupTimes), 1000*m["setup_s"])

	var histQ, histE float64
	var histErr error
	if o.trace {
		histQ, histE, histErr = histogramP99(svc)
	}
	if err := svc.close(); err != nil {
		return nil, fmt.Errorf("stop lolserv: %w", err)
	}

	bad, failures, attempted := checkPhases(b.oracle, phases)
	sr := suite.finish(m)
	failures = append(failures, sr.errs...)
	attempted += sr.jobs
	fmt.Printf("timing: measured %.1f s, checks %.1f s\n", measured.Sub(t0).Seconds(), time.Since(measured).Seconds())
	if total, steal := cpuStat(); total > total0 {
		fmt.Printf("host: %.2f%% of CPU time stolen by the hypervisor during the run\n", 100*float64(steal-steal0)/float64(total-total0))
	}
	maxLoad, maxShare := "max", sh.max
	if sh.max == 0 {
		maxLoad, maxShare = "heavy", sh.heavy
	}
	loadMetrics(phases, bad, b.closed != nil, maxLoad, phaseDur(maxShare), m)
	kindReport(phases)

	for i, f := range failures {
		if i == 10 {
			fmt.Printf("... and %d more failures\n", len(failures)-10)
			break
		}
		fmt.Println("FAIL:", f)
	}
	fmt.Printf("failed_share %.6f (%d of %d operations)\n", share(len(failures), attempted), len(failures), attempted)
	for _, d := range endToEnd {
		fmt.Printf("%-22s %14.4f %s\n", d.name, m[d.name], d.unit)
	}

	names := endToEnd
	if o.trace {
		if histErr != nil {
			return nil, histErr
		}
		if err := traceLayers(b, phases, rec, histQ, histE, sr.layer, fmt.Sprintf("%s-seed%d", o.workload, o.seed)); err != nil {
			return nil, err
		}
		names, m = perLayer, sr.layer
	}

	res := &result{Correct: len(failures) == 0, Attempted: attempted, Failed: len(failures), Metrics: map[string]metricValue{}}
	for _, d := range names {
		v, ok := m[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

// checkPhases checks every answer against its reference. It returns
// which requests failed, the failures, and how many requests there were.
func checkPhases(o *oracle, phases []*phase) (map[*phase][]bool, []error, int) {
	var failures []error
	attempted := 0
	bad := map[*phase][]bool{}
	for _, ph := range phases {
		bad[ph] = make([]bool, len(ph.samples))
		for i, err := range checkPhase(o, ph) {
			if err != nil {
				bad[ph][i] = true
				failures = append(failures, err)
			}
		}
		attempted += len(ph.samples)
	}
	return bad, failures, attempted
}

// loadMetrics sets the latency metrics of the light and heavy loads, and
// max_rate_rps: the rate the closed loop of maxLoad ran at. With perJob
// (the closed loops of kernels and sync) a load's p50 is the geometric
// mean over the stream's jobs of each job's median latency over all
// rounds. Those streams cycle through jobs whose latencies differ by up
// to 800x: the pooled median falls between the clusters of two
// neighbouring jobs and jumps from one to the other when the host runs a
// little faster or slower, and the median of the jobs' medians follows a
// single job, whose own median jumps between its PEs sharing a CPU or
// not. Each job weighs the same in the geometric mean, so no one job
// moves it far. Otherwise (classroom's open loops) a load's p50 is the
// median of its rounds' p50s.
func loadMetrics(phases []*phase, bad map[*phase][]bool, perJob bool, maxLoad string, maxDur time.Duration, m map[string]float64) {
	for _, load := range []string{"light", "heavy"} {
		var p50s, all []float64
		byJob := map[string][]float64{}
		for _, ph := range phases {
			if ph.load != load {
				continue
			}
			lat := latencies(ph.samples, bad[ph])
			t := tailQuantile(lat, 0.99)
			p50s, all = append(p50s, median(lat)), append(all, lat...)
			for i := range ph.samples {
				if !bad[ph][i] {
					j := ph.samples[i].Job
					byJob[j] = append(byJob[j], ms(ph.samples[i].latency()))
				}
			}
			fmt.Printf("%-5s round %d  %6d requests  p50 %.3f ms  p%.1f %.3f ms over %d samples  generator late p99 %.3f ms\n",
				load, ph.round, len(ph.samples), median(lat), 100*t.Q, t.Value, t.N, tailQuantile(lateMS(ph.samples), 0.99).Value)
		}
		t := tailQuantile(all, 0.99)
		fmt.Printf("%-5s all rounds  p%.1f %.3f ms over %d samples\n", load, 100*t.Q, t.Value, t.N)
		p50 := median(p50s)
		if perJob {
			p50 = geoMeanOfMedians(byJob)
			fmt.Printf("%-5s geometric mean of %d jobs' median latencies %.3f ms\n", load, len(byJob), p50)
		}
		m["p50_ms."+load], m["p99_ms."+load] = p50, t.Value
	}
	answered := 0
	for _, ph := range phases {
		if ph.load == maxLoad {
			answered += len(ph.samples)
		}
	}
	m["max_rate_rps"] = float64(answered) / maxDur.Seconds()
}

// traceLayers runs the per-layer probes of the traced pass into layer,
// prints the spans' self times and writes the spans out.
func traceLayers(b *bench, phases []*phase, rec *recorder, histQ, histE float64, layer map[string]float64, tag string) error {
	put := func(name string, v float64) { layer[name] = v }
	if err := frontendProbe(b.sources, 5, rec, put); err != nil {
		return err
	}
	if err := shmemProbe(rec, put); err != nil {
		return err
	}
	serverLayers(phases, rec, histQ, histE, put)
	spans := rec.snapshot()
	put("trace.spans", float64(len(spans)))
	fmt.Println("span                          count      total ms       self ms")
	for _, s := range summarize(spans) {
		fmt.Printf("%-26s %8d %13.3f %13.3f\n", s.Name, s.Count, ms(s.Total), ms(s.Self))
	}
	path := filepath.Join(".bench_build", "perfbench", "spans-"+tag+".jsonl")
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	fmt.Println("spans written to", path)
	for _, d := range perLayer {
		fmt.Printf("%-40s %14.4f %s\n", d.name, layer[d.name], d.unit)
	}
	return nil
}
