package conformance

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
)

// TestTables runs the full engine×fixture matrix: every row of the
// paper's Tables I-III on every engine. These rows are the specification:
// a failure here means an engine diverged from the paper.
func TestTables(t *testing.T) {
	for _, eng := range Engines() {
		eng := eng
		for i, row := range All() {
			row := row
			name := fmt.Sprintf("%s/Table%s/%02d_%s", eng, row.Table, i, shorten(row.Construct))
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				if err := row.Run(eng); err != nil {
					t.Errorf("%s: %v\n--- program ---\n%s", row.Construct, err, row.Source)
				}
			})
		}
	}
}

// TestBackendMatrixIdenticalOutput runs every deterministic fixture at
// NP 1 and 4 and requires all engines to produce byte-identical grouped
// output (or to fail in unison). Rows are skipped at PE counts other than
// their own when their multi-PE behaviour is legitimately scheduling-
// dependent: which PE wins a GIMMEH line, and whether a trylock
// (IM MESIN WIF) samples the lock while a racing PE holds it.
func TestBackendMatrixIdenticalOutput(t *testing.T) {
	engines := Engines()
	for i, row := range All() {
		row := row
		for _, np := range []int{1, 4} {
			np := np
			nondeterministic := row.Stdin != "" ||
				strings.Contains(row.Source, "IM MESIN WIF")
			if nondeterministic && np != max(row.NP, 1) {
				continue
			}
			name := fmt.Sprintf("np%d/%02d_%s", np, i, shorten(row.Construct))
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				prog, err := core.Parse("row.lol", row.Source)
				if err != nil {
					t.Fatalf("parse: %v", err)
				}
				outs := make([]string, len(engines))
				errs := make([]error, len(engines))
				for j, eng := range engines {
					var out strings.Builder
					_, errs[j] = prog.Run(core.RunConfig{Backend: eng, Config: backend.Config{
						NP:          np,
						Seed:        2017,
						Stdout:      &out,
						Stdin:       strings.NewReader(row.Stdin),
						GroupOutput: true,
					}})
					outs[j] = out.String()
				}
				for j := 1; j < len(engines); j++ {
					if (errs[j] == nil) != (errs[0] == nil) {
						t.Fatalf("%s and %s disagree on failure: %v vs %v",
							engines[j], engines[0], errs[j], errs[0])
					}
					if errs[0] == nil && outs[j] != outs[0] {
						t.Errorf("%s output %q differs from %s output %q",
							engines[j], outs[j], engines[0], outs[0])
					}
				}
			})
		}
	}
}

func shorten(s string) string {
	out := make([]rune, 0, 24)
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9':
			out = append(out, r)
		case r == ' ':
			out = append(out, '_')
		}
		if len(out) == 24 {
			break
		}
	}
	return string(out)
}
