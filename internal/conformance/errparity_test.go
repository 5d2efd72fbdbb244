package conformance

import (
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
)

// TestErrorTextParity: a program that dies at run time fails with the
// same error text on every engine as on the interpreter, the oracle —
// the statement it names, the position, and the wrapped cause. The rows
// cover the static-cast contexts (declaration, assignment, SRS write,
// private and shared) and binary operators the VM fuses with their
// operand loads.
func TestErrorTextParity(t *testing.T) {
	cases := []struct{ name, src string }{
		{"static init", `HAI 1.2
I HAS A x ITZ SRSLY A NUMBR AN ITZ "abc"
KTHXBYE`},
		{"static SRS write", `HAI 1.2
I HAS A x ITZ SRSLY A NUMBR
SRS "x" R "abc"
KTHXBYE`},
		{"static assign", `HAI 1.2
I HAS A x ITZ SRSLY A NUMBR
x R "abc"
KTHXBYE`},
		{"shared static init", `HAI 1.2
WE HAS A x ITZ SRSLY A NUMBR AN ITZ "abc"
KTHXBYE`},
		{"shared static assign", `HAI 1.2
WE HAS A x ITZ SRSLY A NUMBR
x R "abc"
KTHXBYE`},
		{"shared static SRS write", `HAI 1.2
WE HAS A x ITZ SRSLY A NUMBR
SRS "x" R "abc"
KTHXBYE`},
		{"fused slot binary", `HAI 1.2
I HAS A x ITZ SRSLY A NUMBR
x R SUM OF x AN "abc"
KTHXBYE`},
		{"fused element binary", `HAI 1.2
I HAS A a ITZ LOTZ A YARNS AN THAR IZ 1
a'Z 0 R "q"
VISIBLE SUM OF 1 AN a'Z 0
KTHXBYE`},
	}
	for _, c := range cases {
		prog, err := core.Parse("err.lol", c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var want string
		for _, eng := range Engines() {
			_, err := prog.Run(core.RunConfig{Backend: eng, Config: backend.Config{NP: 1}})
			if err == nil {
				t.Errorf("%s/%s: program ran to completion", c.name, eng)
				continue
			}
			if eng == core.BackendInterp {
				want = err.Error()
			} else if err.Error() != want {
				t.Errorf("%s/%s: error text\n  %q\nwant (interp)\n  %q", c.name, eng, err, want)
			}
		}
	}
}
