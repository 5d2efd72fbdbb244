// Package core is the public face of the parallel-LOLCODE system: it ties
// the frontend (lexer, parser, sema) to the execution engines — the
// tree-walking interpreter, the bytecode VM, and the closure compiler —
// over the shmem SPMD runtime. Its engine table is the only list of
// engines: Backend names one, ParseBackend resolves a -backend flag, and
// Program.Prepare/Run build and run an engine's cached prepared form.
//
// A minimal session, the library equivalent of the paper's
// `lcc code.lol -o x && coprsh -np 16 ./x`:
//
//	prog, err := core.ParseFile("code.lol")
//	...
//	res, err := prog.Run(core.RunConfig{NP: 16})
package core

import (
	"fmt"
	"os"
	"sync"

	"repro/internal/ast"
	"repro/internal/backend"
	"repro/internal/compile"
	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/sema"
	"repro/internal/vm"
)

// Program is a parsed and semantically checked parallel-LOLCODE program.
// Each engine's prepared form is built once on first use and cached; a
// Program is safe for concurrent Runs (internal/server runs many jobs
// against one cached Program).
type Program struct {
	File   string
	Source string
	AST    *ast.Program
	Info   *sema.Info

	prepared [len(engines)]struct {
		once sync.Once
		run  runFunc
		err  error
	}
	auditOnce sync.Once
	audit     backend.Audit // lazily computed determinism audit
}

// Parse parses and checks LOLCODE source. file is used in diagnostics.
func Parse(file, src string) (*Program, error) {
	tree, err := parser.Parse(file, src)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", file, err)
	}
	info, err := sema.Check(tree)
	if err != nil {
		return nil, fmt.Errorf("check %s: %w", file, err)
	}
	return &Program{File: file, Source: src, AST: tree, Info: info}, nil
}

// ParseFile reads and parses path.
func ParseFile(path string) (*Program, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(path, string(src))
}

// Backend selects an execution engine. The three values cover the classic
// design space of the paper's compiler-vs-interpreter argument.
type Backend int

const (
	// BackendCompile lowers the AST to closures once and runs those — the
	// production path, analogous to the paper's compiled executables.
	BackendCompile Backend = iota
	// BackendInterp walks the AST directly — the baseline an interpreter
	// represents in the paper's compiler-vs-interpreter argument.
	BackendInterp
	// BackendVM compiles to slot-addressed bytecode and runs a stack VM per
	// PE — the middle point between the two extremes.
	BackendVM

	// DefaultBackend is the engine an empty name selects: the production
	// path. It is the zero Backend.
	DefaultBackend = BackendCompile
)

// runFunc runs one engine's prepared form of a program SPMD under cfg.
type runFunc func(cfg backend.Config) (*backend.Result, error)

// engines is the engine table, indexed by Backend: the name flags,
// reports and metrics use, and how the engine prepares a checked program.
// Preparation is the engine's one-time cost (bytecode, closures); the
// interpreter has none.
var engines = [...]struct {
	name    string
	prepare func(*sema.Info) (runFunc, error)
}{
	BackendCompile: {"compile", func(info *sema.Info) (runFunc, error) {
		p, err := compile.Compile(info)
		if err != nil {
			return nil, err
		}
		return p.Run, nil
	}},
	BackendInterp: {"interp", func(info *sema.Info) (runFunc, error) {
		return func(cfg backend.Config) (*backend.Result, error) { return interp.Run(info, cfg) }, nil
	}},
	BackendVM: {"vm", func(info *sema.Info) (runFunc, error) {
		p, err := vm.Compile(info)
		if err != nil {
			return nil, err
		}
		return p.Run, nil
	}},
}

func (b Backend) valid() bool { return b >= 0 && int(b) < len(engines) }

func (b Backend) String() string {
	if !b.valid() {
		return fmt.Sprintf("Backend(%d)", int(b))
	}
	return engines[b].name
}

// Backends lists every engine, the interpreter first: it is the oracle
// the differential tests compare the other engines against, and the
// baseline of the paper's E1 comparison.
func Backends() []Backend { return []Backend{BackendInterp, BackendVM, BackendCompile} }

// BackendNames lists the engine names in Backends order.
func BackendNames() []string {
	names := make([]string, 0, len(engines))
	for _, b := range Backends() {
		names = append(names, b.String())
	}
	return names
}

// ParseBackend resolves an engine by name; the empty string selects
// DefaultBackend.
func ParseBackend(name string) (Backend, error) {
	if name == "" {
		return DefaultBackend, nil
	}
	for _, b := range Backends() {
		if b.String() == name {
			return b, nil
		}
	}
	return DefaultBackend, fmt.Errorf("core: unknown backend %q (want one of %v)", name, BackendNames())
}

// RunConfig is the execution configuration shared by every engine plus
// the engine selector.
type RunConfig struct {
	backend.Config
	Backend Backend
}

// Run executes the program SPMD across cfg.NP processing elements on the
// selected engine, preparing it first if no earlier Run or Prepare has.
func (p *Program) Run(cfg RunConfig) (*backend.Result, error) {
	run, err := p.prepare(cfg.Backend)
	if err != nil {
		return nil, err
	}
	return run(cfg.Config)
}

// Prepare builds the engine's prepared form ahead of Run — bytecode for
// the VM, closures for the compiler, nothing for the interpreter. Calling
// it first makes the compilation cost observable separately from
// execution (the server times it as its own lifecycle stage). The
// prepared form is cached, so a second Prepare or a following Run pays
// nothing.
func (p *Program) Prepare(b Backend) error {
	_, err := p.prepare(b)
	return err
}

// prepare returns b's prepared form, building it exactly once per
// Program even under concurrent callers.
func (p *Program) prepare(b Backend) (runFunc, error) {
	if !b.valid() {
		return nil, fmt.Errorf("core: unknown backend %v", b)
	}
	slot := &p.prepared[b]
	slot.once.Do(func() {
		slot.run, slot.err = engines[b].prepare(p.Info)
		if slot.err != nil {
			slot.err = fmt.Errorf("%s: prepare %s: %w", engines[b].name, p.File, slot.err)
		}
	})
	return slot.run, slot.err
}
