package core_test

import (
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/lolfmt"
	"repro/internal/machine"
)

// ExampleParse shows the minimal embedding: parse a parallel LOLCODE
// program and run it SPMD on 2 PEs with deterministic, rank-ordered output.
func ExampleParse() {
	prog, err := core.Parse("hello.lol", `HAI 1.2
VISIBLE "O HAI FROM " ME " OF " MAH FRENZ
KTHXBYE`)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := prog.Run(core.RunConfig{Config: interp.Config{
		NP: 2, Stdout: os.Stdout, GroupOutput: true,
	}}); err != nil {
		log.Fatal(err)
	}
	// Output:
	// O HAI FROM 0 OF 2
	// O HAI FROM 1 OF 2
}

// ExampleProgram_Run demonstrates the paper's Figure 2 pattern — a
// one-sided put, a barrier, and a local combine — with a machine cost
// model attached.
func ExampleProgram_Run() {
	prog, err := core.Parse("exchange.lol", `HAI 1.2
WE HAS A a ITZ SRSLY A NUMBR
WE HAS A b ITZ SRSLY A NUMBR
a R SUM OF ME AN 1
HUGZ
I HAS A buddy ITZ A NUMBR AN ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ
TXT MAH BFF buddy, UR b R MAH a
HUGZ
VISIBLE SUM OF a AN b
KTHXBYE`)
	if err != nil {
		log.Fatal(err)
	}
	model, err := machine.ByName("parallella")
	if err != nil {
		log.Fatal(err)
	}
	res, err := prog.Run(core.RunConfig{Config: interp.Config{
		NP: 2, Model: model, Stdout: os.Stdout, GroupOutput: true,
	}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("remote puts:", res.Stats.RemotePuts)
	// Output:
	// 3
	// 3
	// remote puts: 2
}

// ExampleFormat shows lolfmt producing the canonical style.
func ExampleFormat() {
	prog, err := core.Parse("messy.lol", "HAI 1.2\nI HAS A x   ITZ  5, VISIBLE x\nKTHXBYE")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(lolfmt.Format(prog.AST))
	// Output:
	// HAI 1.2
	// I HAS A x ITZ 5
	// VISIBLE x
	// KTHXBYE
}

// ExampleProgram_Prepare shows compiling once and reusing the prepared
// program across runs.
func ExampleProgram_Prepare() {
	prog, err := core.Parse("sum.lol", `HAI 1.2
I HAS A total ITZ A NUMBR
IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 5
  total R SUM OF total AN i
IM OUTTA YR l
VISIBLE total
KTHXBYE`)
	if err != nil {
		log.Fatal(err)
	}
	if err := prog.Prepare(core.BackendCompile); err != nil {
		log.Fatal(err)
	}
	var out strings.Builder
	for run := 0; run < 2; run++ {
		cfg := core.RunConfig{Backend: core.BackendCompile, Config: interp.Config{NP: 1, Stdout: &out}}
		if _, err := prog.Run(cfg); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Print(out.String())
	// Output:
	// 10
	// 10
}
