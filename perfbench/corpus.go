package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/progen"
	"repro/internal/shmem"
)

// engine is one execution configuration of the lolrun path: a core
// backend plus, for the VM, the scheduler mode.
type engine string

const (
	engInterp    engine = "interp"
	engVM        engine = "vm"
	engCompile   engine = "compile"
	engVMWorkers engine = "vm-workers"
)

var allEngines = []engine{engInterp, engVM, engCompile, engVMWorkers}

// goroutineEngines are the three engines in goroutine-per-PE mode.
var goroutineEngines = []engine{engInterp, engVM, engCompile}

func (e engine) backend() core.Backend {
	switch e {
	case engInterp:
		return core.BackendInterp
	case engCompile:
		return core.BackendCompile
	}
	return core.BackendVM
}

func (e engine) sched() backend.SchedMode {
	if e == engVMWorkers {
		return backend.SchedWorkers
	}
	return backend.SchedGoroutines
}

// jobSpec is one run through the lolrun path: parse, prepare and run one
// program on one engine.
type jobSpec struct {
	Name    string
	Src     string
	NP      int
	Engine  engine
	Barrier shmem.BarrierAlg
	Seed    int64
}

// expect is the outcome a request must have to count as correct.
type expect int

const (
	expectOK       expect = iota // ok, output equal to the interp reference
	expectParse                  // parse_error
	expectRuntime                // runtime_error
	expectBudget                 // budget
	expectDeadlock               // timeout or the deadlock runtime_error, never ok
)

func (e expect) String() string {
	return [...]string{"ok", "parse_error", "runtime_error", "budget", "deadlock"}[e]
}

// request is one submission to lolserv with the outcome it must have.
type request struct {
	Kind    string // mix category, for the per-kind report
	Src     string
	NP      int
	Backend string
	Seed    int64
	// TimeoutMS and MaxSteps are sent only when nonzero.
	TimeoutMS int64
	MaxSteps  int64
	Expect    expect
}

// source reads a program of the repository's corpus. The benchmark runs
// from the root of a checkout, so the corpus is found relative to it.
func source(rel string) (string, error) {
	b, err := os.ReadFile(filepath.FromSlash(rel))
	if err != nil {
		return "", fmt.Errorf("corpus: %w", err)
	}
	return string(b), nil
}

func sources(rels ...string) (map[string]string, error) {
	out := make(map[string]string, len(rels))
	for _, rel := range rels {
		src, err := source(rel)
		if err != nil {
			return nil, err
		}
		out[rel] = src
	}
	return out, nil
}

// arithLoop and strideLoop are the E1 scalar-arith and array-stride
// kernels. The seed moves only the constants, never the trip count, so
// every seed does the same amount of work.
func arithLoop(iters int, start float64) string {
	return fmt.Sprintf(`HAI 1.2
I HAS A acc ITZ SRSLY A NUMBAR AN ITZ %.3f
IM IN YR loop UPPIN YR i TIL BOTH SAEM i AN %d
  acc R SUM OF acc AN FLIP OF SUM OF i AN 1
IM OUTTA YR loop
VISIBLE acc
KTHXBYE`, start, iters)
}

func strideLoop(iters, step int) string {
	return fmt.Sprintf(`HAI 1.2
I HAS A a ITZ LOTZ A NUMBRS AN THAR IZ 64
IM IN YR loop UPPIN YR i TIL BOTH SAEM i AN %d
  I HAS A idx ITZ A NUMBR
  idx R MOD OF i AN 64
  a'Z idx R SUM OF a'Z idx AN %d
IM OUTTA YR loop
VISIBLE a'Z 63
KTHXBYE`, iters, step)
}

// kernelPrograms are the paper's compute kernels at the sizes of E1.
func kernelPrograms(rng *rand.Rand) ([]jobSpec, error) {
	fixtures, err := sources("testdata/stencil.lol", "testdata/sort.lol", "testdata/primes.lol")
	if err != nil {
		return nil, err
	}
	return []jobSpec{
		{Name: "nbody", Src: experiments.GenNBody(32, 10)},
		{Name: "montecarlo", Src: experiments.GenMonteCarlo(20_000, 2)},
		{Name: "stencil", Src: fixtures["testdata/stencil.lol"]},
		{Name: "sort", Src: fixtures["testdata/sort.lol"]},
		{Name: "primes", Src: fixtures["testdata/primes.lol"]},
		{Name: "scalar-arith", Src: arithLoop(50_000, float64(rng.Intn(1000))/8)},
		{Name: "array-stride", Src: strideLoop(20_000, 1+rng.Intn(9))},
	}, nil
}

// kernelsSuite is one pass of the kernels workload: every kernel at NP 2
// on every engine configuration.
func kernelsSuite(seed int64) ([]jobSpec, error) {
	rng := rand.New(rand.NewSource(seed))
	runSeed := rng.Int63n(1 << 30)
	progs, err := kernelPrograms(rng)
	if err != nil {
		return nil, err
	}
	var suite []jobSpec
	for _, p := range progs {
		for _, e := range allEngines {
			j := p
			j.NP, j.Engine, j.Seed = 2, e, runSeed
			suite = append(suite, j)
		}
	}
	return suite, nil
}

// syncSuite is one pass of the sync workload: the synchronisation corpus
// at NP 16 and 64 on every engine in goroutine mode, philosophers at its
// own NP 4, barrierstorm under the dissemination barrier as well, and the
// VM on the worker pool up to NP 1024.
func syncSuite(seed int64) ([]jobSpec, error) {
	rng := rand.New(rand.NewSource(seed))
	runSeed := rng.Int63n(1 << 30)
	names := []string{
		"testdata/savina/counting.lol", "testdata/savina/barrierstorm.lol",
		"testdata/savina/pingpong.lol", "testdata/locks.lol", "testdata/trylock.lol",
		"testdata/ring.lol", "testdata/fig2.lol", "testdata/savina/philosophers.lol",
	}
	src, err := sources(names...)
	if err != nil {
		return nil, err
	}
	short := func(rel string) string { return strings.TrimSuffix(filepath.Base(rel), ".lol") }
	var suite []jobSpec
	add := func(rel string, np int, e engine, bar shmem.BarrierAlg) {
		name := fmt.Sprintf("%s@%d", short(rel), np)
		if bar == shmem.BarrierDissemination {
			name += "/dissemination"
		}
		suite = append(suite, jobSpec{Name: name, Src: src[rel], NP: np, Engine: e, Barrier: bar, Seed: runSeed})
	}
	for _, rel := range names[:7] {
		for _, np := range []int{16, 64} {
			for _, e := range goroutineEngines {
				add(rel, np, e, shmem.BarrierCentral)
			}
		}
	}
	for _, e := range goroutineEngines {
		add("testdata/savina/philosophers.lol", 4, e, shmem.BarrierCentral)
		for _, np := range []int{16, 64} {
			add("testdata/savina/barrierstorm.lol", np, e, shmem.BarrierDissemination)
		}
	}
	for _, np := range []int{64, 256, 1024} {
		add("testdata/savina/counting.lol", np, engVMWorkers, shmem.BarrierCentral)
		add("testdata/savina/barrierstorm.lol", np, engVMWorkers, shmem.BarrierCentral)
		suite = append(suite, jobSpec{Name: fmt.Sprintf("montecarlo200@%d", np),
			Src: experiments.GenMonteCarlo(200, np), NP: np, Engine: engVMWorkers, Seed: runSeed})
	}
	return suite, nil
}

// suiteRequests turns a suite into the request stream its workload sends
// to lolserv: every goroutine-mode job the server accepts (NP within its
// default MaxNP of 64), backend named explicitly, server defaults for
// everything else. Request i of the stream is a pure function of i.
//
// Every request executes rather than being answered from the result
// cache: a program that draws random numbers is never cached at NP > 1,
// and cycles through four seeds (its reference is an interp run per
// seed); any other program gets a new seed each time, which the result
// cache keys on while its output stays the same.
func suiteRequests(suite []jobSpec, seed int64) (func(i int) request, error) {
	var pool []jobSpec
	var random []bool
	for _, j := range suite {
		if j.Engine != engVMWorkers && j.Barrier == shmem.BarrierCentral && j.NP <= serverMaxNP {
			prog, err := core.Parse(j.Name+".lol", j.Src)
			if err != nil {
				return nil, err
			}
			pool = append(pool, j)
			random = append(random, prog.Audit().UsesRandom)
		}
	}
	return func(i int) request {
		k := i % len(pool)
		j, s := pool[k], seed+int64(i)
		if random[k] {
			s = seed + int64(i%4)
		}
		return request{Kind: j.Name, Src: j.Src, NP: j.NP, Backend: string(j.Engine), Seed: s, Expect: expectOK}
	}, nil
}

// Classroom mix, per block of mixBlock requests. The counts are an
// assumed model of a class submitting work, not a measured one: no class
// workload or published trace backs the proportions. They model mostly
// new programs (every one a program-cache miss), a block of identical
// resubmissions of the course examples (program- and result-cache hits),
// and a few broken submissions of each kind. The cache hit shares and
// the frontend share of a classroom run follow from these counts. Every
// block holds exactly these counts in a seeded order, so each phase sees
// the same mix whatever the seed.
var classMix = []struct {
	kind  string
	count int
}{
	{"progen", 50},
	{"montecarlo", 10},
	{"nbody", 10},
	{"example", 22},
	{"parse_error", 2},
	{"runtime_error", 2},
}

// spacedKinds hold a connection for long: a runaway loop until its step
// budget kills it, a deadlock until its deadline. They sit at evenly
// spaced fixed slots of every block, so they never bunch up by chance and
// the tail they cause is the same from seed to seed. At two in a hundred,
// the deadlocks are the slowest 2% of requests, so a p99, even one
// lowered to keep ten samples beyond it, falls inside them: it reads what
// a deadlock costs, not the border between them and the budget kills.
var spacedKinds = []string{"deadlock", "budget", "deadlock", "budget"}

const mixBlock = 100

// classExamples are the course examples students resubmit unchanged.
var classExamples = []struct {
	rel string
	np  int
}{
	{"testdata/fig2.lol", 4}, {"testdata/primes.lol", 1}, {"testdata/primes.lol", 2},
	{"testdata/sort.lol", 1}, {"testdata/sort.lol", 2}, {"testdata/stencil.lol", 2},
	{"testdata/ring.lol", 4}, {"testdata/funcs.lol", 1}, {"testdata/locks.lol", 4},
	{"testdata/trylock.lol", 2},
}

// deadlockTimeoutMS is the short deadline sent with deadlock submissions.
const deadlockTimeoutMS = 25

// budgetSteps is the max_steps sent with runaway-loop submissions.
const budgetSteps = 20_000

// progenStmts sizes a generated submission at roughly 4 KB.
const progenStmts = 60

// classroom generates the classroom request streams and the fixed
// programs of its lolrun-path passes.
type classroom struct {
	seed     int64
	examples map[string]string
}

func newClassroom(seed int64) (*classroom, error) {
	rels := make([]string, 0, len(classExamples))
	for _, e := range classExamples {
		rels = append(rels, e.rel)
	}
	ex, err := sources(rels...)
	if err != nil {
		return nil, err
	}
	return &classroom{seed: seed, examples: ex}, nil
}

// rng gives stream index i of the given stream its own generator, so
// request i is the same whatever order the requests are generated in.
func (c *classroom) rng(stream, i int) *rand.Rand {
	return rand.New(rand.NewSource(c.seed*1_000_003 + int64(stream)*1_000_000_007 + int64(i)))
}

// request returns request i of the stream.
func (c *classroom) request(stream, i int) request {
	kind := c.kindOf(stream, i)
	r := c.rng(stream, i)
	req := request{Kind: kind, NP: 1 + r.Intn(2), Seed: r.Int63n(1 << 30), Expect: expectOK}
	switch kind {
	case "progen", "montecarlo", "nbody":
		req.Src, req.NP = c.unique(kind, r, fmt.Sprintf("submission %d/%d/%d", c.seed, stream, i))
	case "example":
		e := classExamples[r.Intn(len(classExamples))]
		req.Src, req.NP, req.Seed = c.examples[e.rel], e.np, 2017
	case "parse_error":
		src := progen.New(r.Int63()).Program(progenStmts)
		req.Src = strings.Replace(src, "KTHXBYE", "KTHXBYE\nIM OUTTA YR nowhere", 1)
		req.Expect = expectParse
	case "runtime_error":
		req.Src = fmt.Sprintf("HAI 1.2\nI HAS A a ITZ LOTZ A NUMBRS AN THAR IZ %d\nVISIBLE \"BEFORE\"\nVISIBLE a'Z %d\nKTHXBYE\n",
			4+r.Intn(8), 12+r.Intn(100))
		req.Expect = expectRuntime
	case "budget":
		req.Src = fmt.Sprintf("HAI 1.2\nI HAS A x ITZ %d\nIM IN YR spin\n  x R SUM OF x AN 1\nIM OUTTA YR spin\nKTHXBYE\n", r.Intn(100))
		req.MaxSteps = budgetSteps
		req.Expect = expectBudget
	case "deadlock":
		req.Src = fmt.Sprintf("HAI 1.2\nVISIBLE SMOOSH \"PE \" AN ME AN \" SEZ %d\" MKAY\nBOTH SAEM ME AN 0, O RLY?\nYA RLY\n  HUGZ\nOIC\nKTHXBYE\n", r.Intn(1000))
		req.NP = 2
		req.TimeoutMS = deadlockTimeoutMS
		req.Expect = expectDeadlock
	}
	return req
}

// kindOf returns the mix kind of request i: a spaced kind at its fixed
// slot, otherwise the kind at its slot of a seeded shuffle of the block.
func (c *classroom) kindOf(stream, i int) string {
	pos := i % mixBlock
	gap := mixBlock / len(spacedKinds)
	if pos%gap == 0 {
		return spacedKinds[pos/gap]
	}
	block := rand.New(rand.NewSource(c.seed*31 + int64(stream)*1_000_003 + int64(i/mixBlock)))
	slot := block.Perm(mixBlock - len(spacedKinds))[pos-pos/gap-1]
	for _, m := range classMix {
		if slot < m.count {
			return m.kind
		}
		slot -= m.count
	}
	panic("classMix and spacedKinds do not fill mixBlock")
}

// unique generates a new program of one of the unique kinds. The
// generated montecarlo and nbody programs carry the request's identity in
// a comment: a student's edit that leaves the parameters alone is still a
// new source, a program-cache miss.
func (c *classroom) unique(kind string, r *rand.Rand, id string) (string, int) {
	switch kind {
	case "montecarlo":
		np := 2 + 2*r.Intn(2)
		return "BTW " + id + "\n" + experiments.GenMonteCarlo(500+r.Intn(1500), np), np
	case "nbody":
		return "BTW " + id + "\n" + experiments.GenNBody(6+r.Intn(4), 1+r.Intn(2)), 2
	}
	return progen.New(r.Int63()).Program(progenStmts), 1 + r.Intn(2)
}

// suite is the classroom's lolrun-path pass: valid programs of the unique
// kinds in their mix proportions, each on every engine. The programs are
// fixed, so a pass costs the same under every seed.
func (c *classroom) suite() []jobSpec {
	r := c.rng(streamSuite, 0)
	var out []jobSpec
	add := func(kind, src string, np int) {
		seed := r.Int63n(1 << 30)
		for _, e := range allEngines {
			out = append(out, jobSpec{Name: kind, Src: src, NP: np, Engine: e, Seed: seed})
		}
	}
	// The generated programs' cost varies widely with the generator
	// seed, so the pass uses a fixed set of them: the workload seed moves
	// their order and their runtime seeds, not their cost.
	for i := 0; i < 30; i++ {
		add("progen", progen.New(int64(i)).Program(progenStmts), 1+i%2)
	}
	for i := 0; i < 6; i++ {
		add("montecarlo", experiments.GenMonteCarlo(500+300*i, 2+2*(i%2)), 2+2*(i%2))
		add("nbody", experiments.GenNBody(4+i, 1+i%3), 2)
	}
	return out
}

// Request streams. Each phase draws from its own stream, so changing how
// long one phase runs never changes the requests another phase sends.
// Each load adds its round to its stream, except max: every round of it
// sends the same pre-built requests.
const (
	streamSuite = 0
	streamLight = 10
	streamHeavy = 20
	streamMax   = 30
)
