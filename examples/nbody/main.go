// N-body: run the paper's §VI.D parallel 2D n-body program (verbatim
// LOLCODE) on a chosen machine model and compare the interpreter and
// compiled backends — the paper's compiler-vs-interpreter argument made
// measurable.
//
//	go run ./examples/nbody -np 4 -machine parallella
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/machine"
)

func main() {
	np := flag.Int("np", 4, "number of processing elements")
	machineName := flag.String("machine", "smp", "cost model: "+strings.Join(machine.Names(), ", "))
	show := flag.Bool("show", false, "print the particle positions")
	flag.Parse()

	model, err := machine.ByName(*machineName)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := core.ParseFile("testdata/nbody.lol")
	if err != nil {
		log.Fatal(err)
	}

	run := func(b core.Backend, out io.Writer) (time.Duration, *backend.Result) {
		start := time.Now()
		res, err := prog.Run(core.RunConfig{
			Backend: b,
			Config: backend.Config{
				NP:          *np,
				Model:       model,
				Seed:        7,
				Stdout:      out,
				GroupOutput: true,
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		return time.Since(start), res
	}

	var interpOut, compileOut strings.Builder
	interpTime, _ := run(core.BackendInterp, &interpOut)
	compileTime, res := run(core.BackendCompile, &compileOut)

	if interpOut.String() != compileOut.String() {
		log.Fatal("backends disagree on n-body output; this is a bug")
	}
	if *show {
		fmt.Print(compileOut.String())
	}

	fmt.Printf("n-body (32 particles/PE, 10 steps) at np=%d on %s:\n", *np, model.Name())
	fmt.Printf("  interpreter backend: %v\n", interpTime)
	fmt.Printf("  compiled backend:    %v  (%.1fx faster)\n",
		compileTime, float64(interpTime)/float64(compileTime))
	fmt.Printf("  remote gets: %d, barriers: %d\n", res.Stats.RemoteGets, res.Stats.Barriers)

	var slowest float64
	for _, ns := range res.SimNanos {
		if ns > slowest {
			slowest = ns
		}
	}
	fmt.Printf("  simulated communication time on %s: %.2f us (slowest PE)\n",
		model.Name(), slowest/1000)
}
