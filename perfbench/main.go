// Command perfbench is the repository's benchmark: it drives the
// parallel-LOLCODE toolchain through its public functions on one of three
// seeded workloads and prints, as its last line, one JSON object with the
// end-to-end metrics (or, with --trace 1, the per-layer metrics).
//
//	bash perfbench/run.sh --workload kernels --seed 1 --seconds 30 --trace 0
//
// Run it from the root of a checkout of the repository: it reads the
// corpus under testdata, and run.sh builds it there. Every workload has the same three parts, so every metric means
// the same thing on each:
//
//   - suite passes through the lolrun path (core.Parse, Program.Prepare,
//     Program.Run), one job at a time, on interp, vm and compile in
//     goroutine mode and on the VM under the worker scheduler;
//   - traffic to an in-process lolserv over loopback HTTP at a light and a
//     heavy load;
//   - the highest request rate the service sustains, from a closed loop
//     at one connection per CPU.
//
// kernels and sync send their light and heavy traffic in a closed loop
// (one connection, then one per CPU, the heavy loop doubling as the max
// rate); classroom sends it in an open loop at fixed Poisson rates, timed
// from when each request was due.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/shmem"
)

// goMaxProcs pins the Go scheduler so that no pool the runtime sizes
// from GOMAXPROCS follows the host.
const goMaxProcs = 2

// Classroom open-loop rates, in requests per second, fixed so that runs
// of different commits are compared at the same load. They are set from
// the classroom max_rate_rps measured when the benchmark was written,
// about 1,230 req/s on a 2-vCPU Xeon VM: light is about a quarter of that
// capacity and heavy about half. (At 900 req/s, three quarters, the
// backlog behind each deadlock did not drain between them.) maxRateGuess,
// over twice that capacity, sizes the requests built ahead of the max
// phase, so they last even if a change doubles the rate.
const (
	classLight   = 300.0
	classHeavy   = 600.0
	maxRateGuess = 3000.0
)

// setup_s is the median of many starts of the system under test, spread
// over the run like its phases: every round first spends its share of
// setupBudget starting and stopping the system, at least setupMinStarts
// times. One start takes milliseconds, so the median is over hundreds of
// them. The system the workload measures is the last start of round 0.
const (
	setupMinStarts = 3
	setupBudget    = time.Second
)

// giveUp bounds how late an open-loop request may be sent; a later one is
// dropped and counts as a failure.
const giveUp = 2 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "kernels, sync or classroom")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	if _, ok := workloads[o.workload]; !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload kernels|sync|classroom --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(goMaxProcs)
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func lateMS(ss []sample) []float64 {
	out := make([]float64, 0, len(ss))
	for i := range ss {
		out = append(out, ms(ss[i].late()))
	}
	return out
}

// kindReport prints latency by request kind.
func kindReport(phases []*phase) {
	by := map[string][]float64{}
	for _, ph := range phases {
		for _, s := range ph.samples {
			if !s.Dropped && s.Err == nil {
				by[s.Kind] = append(by[s.Kind], ms(s.latency()))
			}
		}
	}
	kinds := make([]string, 0, len(by))
	for k := range by {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf("  kind %-28s n=%-6d p50 %8.3f ms\n", k, len(by[k]), median(by[k]))
	}
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var kb float64
		if n, _ := fmt.Sscanf(sc.Text(), "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024
		}
	}
	return math.NaN()
}

// cpuStat returns the host's total and stolen CPU time, in clock ticks,
// from /proc/stat (zeros where it cannot be read). Steal is time the
// hypervisor gave this machine's CPUs to someone else: on a shared host
// it explains a run that is slow across the board.
func cpuStat() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		n, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 8 {
			steal = n
		}
	}
	return total, steal
}

// hostInfo records what the numbers were measured on, and every pool
// size the benchmark pins.
func hostInfo() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	// lolserv has no option for its worker-scheduler pool: it runs its
	// jobs under SchedAuto with the default pool, which GOMAXPROCS pins.
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s lolserv.workers=%d lolserv.queue_depth=%d lolserv.sched_workers=%d sched_workers=%d conns=%d",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), serverWorkers, serverQueueDepth,
		shmem.DefaultSchedWorkers(serverMaxNP), schedWorkers, connsFor())
}
