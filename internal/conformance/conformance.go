// Package conformance encodes the paper's Tables I, II and III — the
// de-facto specification of parallel LOLCODE — as executable rows: one
// small program per construct with its expected behaviour. The test suite
// runs the full engine×fixture matrix (every row on every core.Backend,
// through the same core.Program.Run path the server uses), and
// cmd/lolbench regenerates the tables with pass/fail status (experiments
// T1, T2, T3).
package conformance

import (
	"fmt"
	"strings"

	"repro/internal/backend"
	"repro/internal/core"
)

// Row is one table row: a language construct and a program demonstrating it.
type Row struct {
	Table     string                 // "I", "II", "III"
	Construct string                 // the syntax column of the paper's table
	Meaning   string                 // the description column
	Source    string                 // complete program exercising the construct
	NP        int                    // PEs to run with (0 = 1)
	Stdin     string                 // input for GIMMEH rows
	Want      string                 // exact expected output (grouped by PE)
	WantCheck func(out string) error // alternative predicate for nondeterministic rows
}

// Run executes the row's program on the given engine through
// core.Program.Run, the path lolserv runs, and checks the output.
func (r Row) Run(eng core.Backend) error { return r.RunWith(eng, nil) }

// RunWith is Run with a config hook: mutate (when non-nil) edits the
// row's standard config before the run, which is how the scheduler
// differential forces Sched=workers while keeping the row's own NP,
// seed, and grouped-output contract.
func (r Row) RunWith(eng core.Backend, mutate func(*backend.Config)) error {
	np := r.NP
	if np == 0 {
		np = 1
	}
	prog, err := core.Parse("row.lol", r.Source)
	if err != nil {
		return fmt.Errorf("parse: %w", err)
	}
	var out strings.Builder
	cfg := backend.Config{
		NP:          np,
		Seed:        2017,
		Stdout:      &out,
		Stdin:       strings.NewReader(r.Stdin),
		GroupOutput: true,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	_, err = prog.Run(core.RunConfig{Config: cfg, Backend: eng})
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	if r.WantCheck != nil {
		return r.WantCheck(out.String())
	}
	if out.String() != r.Want {
		return fmt.Errorf("output = %q, want %q", out.String(), r.Want)
	}
	return nil
}

// Engines returns every execution engine, the interpreter (the oracle)
// first; the conformance corpus is the engines × rows matrix.
func Engines() []core.Backend { return core.Backends() }

// All returns every conformance row: Tables I through III in paper
// order, the Savina-style concurrency corpus (Table S), then the Table I
// rows added since. New rows go last so that a row's index in All, which
// names its matrix subtests, never changes.
func All() []Row {
	var rows []Row
	rows = append(rows, paperTableI()...)
	rows = append(rows, TableII()...)
	rows = append(rows, TableIII()...)
	rows = append(rows, Savina()...)
	return append(rows, tableIAddenda()...)
}

// TableI is the basic LOLCODE syntax of paper Table I, then the rows
// added to it since.
func TableI() []Row { return append(paperTableI(), tableIAddenda()...) }

// tableIAddenda pins Table I behaviour on which the engines once diverged.
func tableIAddenda() []Row {
	return []Row{
		{
			Table: "I", Construct: "SRS [string] R [array]",
			Meaning: "assigning an array through SRS copies its contents",
			Source: `HAI 1.2
I HAS A a ITZ LOTZ A NUMBRS AN THAR IZ 2
I HAS A b ITZ LOTZ A NUMBRS AN THAR IZ 2
b'Z 0 R 5
SRS "a" R b
b'Z 0 R 7
VISIBLE a'Z 0
KTHXBYE`,
			Want: "5\n",
		},
	}
}

func paperTableI() []Row {
	return []Row{
		{
			Table: "I", Construct: "HAI [version] / KTHXBYE",
			Meaning: "begins and terminates a program",
			Source:  "HAI 1.2\nVISIBLE \"OK\"\nKTHXBYE",
			Want:    "OK\n",
		},
		{
			Table: "I", Construct: "BTW",
			Meaning: "single line comment",
			Source:  "HAI 1.2\nBTW nothing to see\nVISIBLE \"OK\" BTW trailing too\nKTHXBYE",
			Want:    "OK\n",
		},
		{
			Table: "I", Construct: "OBTW ... TLDR",
			Meaning: "multi line comment",
			Source:  "HAI 1.2\nOBTW\nthis VISIBLE \"NO\" never runs\nTLDR\nVISIBLE \"OK\"\nKTHXBYE",
			Want:    "OK\n",
		},
		{
			Table: "I", Construct: "CAN HAS [library]?",
			Meaning: "includes the standard libraries",
			Source:  "HAI 1.2\nCAN HAS STDIO?\nVISIBLE \"OK\"\nKTHXBYE",
			Want:    "OK\n",
		},
		{
			Table: "I", Construct: "VISIBLE [arg]",
			Meaning: "prints arg to standard output",
			Source:  "HAI 1.2\nVISIBLE \"A\" 1 \" \" 2.5\nKTHXBYE",
			Want:    "A1 2.50\n",
		},
		{
			Table: "I", Construct: "GIMMEH [var]",
			Meaning: "reads var from standard input",
			Source:  "HAI 1.2\nI HAS A x\nGIMMEH x\nVISIBLE x\nKTHXBYE",
			Stdin:   "from stdin\n",
			Want:    "from stdin\n",
		},
		{
			Table: "I", Construct: "I HAS A [var]",
			Meaning: "declares a variable (NOOB until set)",
			Source:  "HAI 1.2\nI HAS A x\nVISIBLE x\nKTHXBYE",
			Want:    "NOOB\n",
		},
		{
			Table: "I", Construct: "I HAS A [var] ITZ [value]",
			Meaning: "declares and initializes",
			Source:  "HAI 1.2\nI HAS A x ITZ 42\nVISIBLE x\nKTHXBYE",
			Want:    "42\n",
		},
		{
			Table: "I", Construct: "I HAS A [var] ITZ A [type]",
			Meaning: "declares a typed variable",
			Source:  "HAI 1.2\nI HAS A x ITZ A NUMBAR\nVISIBLE x\nKTHXBYE",
			Want:    "0.00\n",
		},
		{
			Table: "I", Construct: "[var] R [value]",
			Meaning: "assigns value to variable",
			Source:  "HAI 1.2\nI HAS A x\nx R \"KITTEH\"\nVISIBLE x\nKTHXBYE",
			Want:    "KITTEH\n",
		},
		{
			Table: "I", Construct: "BOTH SAEM / DIFFRINT",
			Meaning: "equality and inequality",
			Source: "HAI 1.2\nVISIBLE BOTH SAEM 3 AN 3\nVISIBLE DIFFRINT 3 AN 4\n" +
				"VISIBLE BOTH SAEM 3 AN 3.0\nVISIBLE BOTH SAEM \"a\" AN \"b\"\nKTHXBYE",
			Want: "WIN\nWIN\nWIN\nFAIL\n",
		},
		{
			Table: "I", Construct: "BIGGER / SMALLR",
			Meaning: "greater-than and less-than (paper Table I)",
			Source:  "HAI 1.2\nVISIBLE BIGGER 3 AN 2\nVISIBLE SMALLR 3 AN 2\nKTHXBYE",
			Want:    "WIN\nFAIL\n",
		},
		{
			Table: "I", Construct: "SUM OF / DIFF OF",
			Meaning: "addition and subtraction",
			Source:  "HAI 1.2\nVISIBLE SUM OF 2 AN 3\nVISIBLE DIFF OF 2 AN 3\nKTHXBYE",
			Want:    "5\n-1\n",
		},
		{
			Table: "I", Construct: "PRODUKT OF / QUOSHUNT OF / MOD OF",
			Meaning: "multiply, divide, modulo",
			Source: "HAI 1.2\nVISIBLE PRODUKT OF 6 AN 7\nVISIBLE QUOSHUNT OF 7 AN 2\n" +
				"VISIBLE QUOSHUNT OF 7.0 AN 2\nVISIBLE MOD OF 7 AN 3\nKTHXBYE",
			Want: "42\n3\n3.50\n1\n",
		},
		{
			Table: "I", Construct: "MAEK [expression] A [type]",
			Meaning: "explicit cast of an expression",
			Source:  "HAI 1.2\nVISIBLE MAEK \"3.99\" A NUMBAR\nVISIBLE MAEK 3.99 A NUMBR\nKTHXBYE",
			Want:    "3.99\n3\n",
		},
		{
			Table: "I", Construct: "[variable] IS NOW A [type]",
			Meaning: "in-place cast of a variable",
			Source:  "HAI 1.2\nI HAS A x ITZ \"5\"\nx IS NOW A NUMBR\nVISIBLE SUM OF x AN 1\nKTHXBYE",
			Want:    "6\n",
		},
		{
			Table: "I", Construct: "SRS [string]",
			Meaning: "interprets a string as an identifier",
			Source:  "HAI 1.2\nI HAS A kitteh ITZ 9\nI HAS A name ITZ \"kitteh\"\nVISIBLE SRS name\nKTHXBYE",
			Want:    "9\n",
		},
		{
			Table: "I", Construct: "[expression], O RLY? YA RLY / NO WAI / OIC",
			Meaning: "if/else statement block",
			Source:  "HAI 1.2\nBOTH SAEM 1 AN 2, O RLY?\nYA RLY\n  VISIBLE \"same\"\nNO WAI\n  VISIBLE \"diff\"\nOIC\nKTHXBYE",
			Want:    "diff\n",
		},
		{
			Table: "I", Construct: "MEBBE [expression]",
			Meaning: "else-if arm of O RLY?",
			Source: "HAI 1.2\nI HAS A x ITZ 2\nBOTH SAEM x AN 1, O RLY?\nYA RLY\n  VISIBLE \"one\"\n" +
				"MEBBE BOTH SAEM x AN 2\n  VISIBLE \"two\"\nNO WAI\n  VISIBLE \"many\"\nOIC\nKTHXBYE",
			Want: "two\n",
		},
		{
			Table: "I", Construct: "[expression], WTF? OMG / OMGWTF / GTFO / OIC",
			Meaning: "switch with fallthrough until GTFO",
			Source:  "HAI 1.2\nI HAS A x ITZ 1\nx, WTF?\nOMG 1\n  VISIBLE \"one\"\nOMG 2\n  VISIBLE \"two\"\n  GTFO\nOMG 3\n  VISIBLE \"three\"\nOMGWTF\n  VISIBLE \"other\"\nOIC\nKTHXBYE",
			Want:    "one\ntwo\n", // case 1 falls through into 2, GTFO stops it
		},
		{
			Table: "I", Construct: "WTF? OMGWTF default",
			Meaning: "switch default arm",
			Source:  "HAI 1.2\nI HAS A x ITZ 9\nx, WTF?\nOMG 1\n  VISIBLE \"one\"\n  GTFO\nOMGWTF\n  VISIBLE \"other\"\nOIC\nKTHXBYE",
			Want:    "other\n",
		},
		{
			Table: "I", Construct: "IM IN YR [label] UPPIN YR [var] TIL [expr]",
			Meaning: "counted loop, increment until true",
			Source:  "HAI 1.2\nIM IN YR loop UPPIN YR i TIL BOTH SAEM i AN 3\n  VISIBLE i\nIM OUTTA YR loop\nKTHXBYE",
			Want:    "0\n1\n2\n",
		},
		{
			Table: "I", Construct: "IM IN YR [label] NERFIN YR [var] WILE [expr]",
			Meaning: "loop, decrement while true",
			Source:  "HAI 1.2\nI HAS A n ITZ 0\nIM IN YR loop NERFIN YR i WILE BIGGER i AN -3\n  n R SUM OF n AN 1\nIM OUTTA YR loop\nVISIBLE n\nKTHXBYE",
			Want:    "3\n", // i = 0,-1,-2 run; stops when i = -3
		},
		{
			Table: "I", Construct: "GTFO in a loop",
			Meaning: "break out of the loop",
			Source:  "HAI 1.2\nIM IN YR loop UPPIN YR i TIL BOTH SAEM i AN 100\n  BOTH SAEM i AN 2, O RLY?\n  YA RLY\n    GTFO\n  OIC\n  VISIBLE i\nIM OUTTA YR loop\nKTHXBYE",
			Want:    "0\n1\n",
		},
		{
			Table: "I", Construct: "... (line continuation)",
			Meaning: "continues a statement on the next line",
			Source:  "HAI 1.2\nVISIBLE SUM OF 1 ...\n  AN 2\nKTHXBYE",
			Want:    "3\n",
		},
		{
			Table: "I", Construct: "[statement],[statement]",
			Meaning: "comma separates statements on one line",
			Source:  "HAI 1.2\nI HAS A x ITZ 1, VISIBLE x, x R 2, VISIBLE x\nKTHXBYE",
			Want:    "1\n2\n",
		},
		{
			Table: "I", Construct: "HOW IZ I / I IZ ... MKAY / FOUND YR",
			Meaning: "function declaration, call, and return",
			Source:  "HAI 1.2\nHOW IZ I twice YR n\n  FOUND YR PRODUKT OF n AN 2\nIF U SAY SO\nVISIBLE I IZ twice YR 21 MKAY\nKTHXBYE",
			Want:    "42\n",
		},
		{
			Table: "I", Construct: "SMOOSH ... MKAY",
			Meaning: "string concatenation",
			Source:  "HAI 1.2\nVISIBLE SMOOSH \"I CAN HAS \" AN 2 AN \" CHEEZBURGERZ\" MKAY\nKTHXBYE",
			Want:    "I CAN HAS 2 CHEEZBURGERZ\n",
		},
		{
			Table: "I", Construct: "BOTH OF / EITHER OF / WON OF / NOT / ALL OF / ANY OF",
			Meaning: "boolean operators",
			Source: "HAI 1.2\nVISIBLE BOTH OF WIN AN FAIL\nVISIBLE EITHER OF WIN AN FAIL\n" +
				"VISIBLE WON OF WIN AN WIN\nVISIBLE NOT FAIL\n" +
				"VISIBLE ALL OF WIN AN WIN AN FAIL MKAY\nVISIBLE ANY OF FAIL AN WIN MKAY\nKTHXBYE",
			Want: "FAIL\nWIN\nFAIL\nWIN\nFAIL\nWIN\n",
		},
		{
			Table: "I", Construct: "IT (implicit result)",
			Meaning: "bare expressions assign the IT variable",
			Source:  "HAI 1.2\nSUM OF 40 AN 2\nVISIBLE IT\nKTHXBYE",
			Want:    "42\n",
		},
		{
			Table: "I", Construct: "VISIBLE ... !",
			Meaning: "trailing bang suppresses the newline",
			Source:  "HAI 1.2\nVISIBLE \"a\" !\nVISIBLE \"b\" !\nVISIBLE \"c\"\nKTHXBYE",
			Want:    "abc\n",
		},
		{
			Table: "I", Construct: "SMOOSH without MKAY",
			Meaning: "MKAY is optional at end of statement",
			Source:  "HAI 1.2\nVISIBLE SMOOSH \"a\" AN \"b\" AN \"c\"\nKTHXBYE",
			Want:    "abc\n",
		},
		{
			Table: "I", Construct: "nested O RLY?",
			Meaning: "conditionals nest; inner IT does not leak out",
			Source: `HAI 1.2
WIN, O RLY?
YA RLY
  FAIL, O RLY?
  YA RLY
    VISIBLE "inner"
  NO WAI
    VISIBLE "inner-else"
  OIC
  VISIBLE "outer"
OIC
KTHXBYE`,
			Want: "inner-else\nouter\n",
		},
		{
			Table: "I", Construct: "TROOF casts",
			Meaning: "WIN/FAIL cast to 1/0 and \"WIN\"/\"FAIL\"",
			Source: "HAI 1.2\nVISIBLE MAEK WIN A NUMBR\nVISIBLE MAEK FAIL A NUMBR\n" +
				"VISIBLE SMOOSH MAEK WIN A YARN AN MAEK FAIL A YARN MKAY\nKTHXBYE",
			Want: "1\n0\nWINFAIL\n",
		},
		{
			Table: "I", Construct: "NOOB semantics",
			Meaning: "NOOB is FAIL-y, equals itself, and displays as NOOB",
			Source: "HAI 1.2\nI HAS A x\nVISIBLE BOTH SAEM x AN NOOB\n" +
				"VISIBLE NOT x\nVISIBLE x\nKTHXBYE",
			Want: "WIN\nWIN\nNOOB\n",
		},
		{
			Table: "I", Construct: "YARN escapes",
			Meaning: ":) :> :\" :: and :(hex) escapes",
			Source:  `HAI 1.2` + "\n" + `VISIBLE "x:)y:>z:"q:":::(41)"` + "\n" + `KTHXBYE`,
			Want:    "x\ny\tz\"q\":A\n",
		},
		{
			Table: "I", Construct: "YARN :{var} interpolation",
			Meaning: "embedded variable values stringify in place",
			Source:  "HAI 1.2\nI HAS A cnt ITZ 3\nVISIBLE \"i haz :{cnt} cheezburgerz\"\nKTHXBYE",
			Want:    "i haz 3 cheezburgerz\n",
		},
	}
}

// TableII is the parallel and distributed computing extensions of Table II.
func TableII() []Row {
	return []Row{
		{
			Table: "II", Construct: "MAH FRENZ",
			Meaning: "total number of parallel PEs",
			NP:      4,
			Source:  "HAI 1.2\nBOTH SAEM ME AN 0, O RLY?\nYA RLY\n  VISIBLE MAH FRENZ\nOIC\nKTHXBYE",
			Want:    "4\n",
		},
		{
			Table: "II", Construct: "ME",
			Meaning: "identity of the executing PE",
			NP:      4,
			Source:  "HAI 1.2\nVISIBLE ME\nKTHXBYE",
			Want:    "0\n1\n2\n3\n",
		},
		{
			Table: "II", Construct: "IM SRSLY MESIN WIF [var]",
			Meaning: "blocking acquire of the implicit lock",
			NP:      4,
			Source: `HAI 1.2
WE HAS A x ITZ A NUMBR AN IM SHARIN IT
HUGZ
TXT MAH BFF 0 AN STUFF
  IM SRSLY MESIN WIF x
  UR x R SUM OF UR x AN 1
  DUN MESIN WIF x
TTYL
HUGZ
BOTH SAEM ME AN 0, O RLY?
YA RLY
  VISIBLE x
OIC
KTHXBYE`,
			Want: "4\n",
		},
		{
			Table: "II", Construct: "IM MESIN WIF [var], O RLY?",
			Meaning: "non-blocking trylock; IT holds the result",
			Source: `HAI 1.2
WE HAS A x ITZ A NUMBR AN IM SHARIN IT
IM MESIN WIF x, O RLY?
YA RLY
  VISIBLE "GOT IT"
  DUN MESIN WIF x
NO WAI
  VISIBLE "BUSY"
OIC
KTHXBYE`,
			Want: "GOT IT\n",
		},
		{
			Table: "II", Construct: "DUN MESIN WIF [var]",
			Meaning: "release the lock; releasing unheld is an error",
			Source:  "HAI 1.2\nWE HAS A x ITZ A NUMBR AN IM SHARIN IT\nIM SRSLY MESIN WIF x\nDUN MESIN WIF x\nVISIBLE \"OK\"\nKTHXBYE",
			Want:    "OK\n",
		},
		{
			Table: "II", Construct: "HUGZ",
			Meaning: "collective barrier",
			NP:      8,
			Source: `HAI 1.2
WE HAS A flag ITZ SRSLY A NUMBR
flag R 1
HUGZ
BTW after the barrier every PE must observe every other PE's flag
I HAS A total ITZ A NUMBR
IM IN YR scan UPPIN YR k TIL BOTH SAEM k AN MAH FRENZ
  TXT MAH BFF k, total R SUM OF total AN UR flag
IM OUTTA YR scan
BOTH SAEM total AN MAH FRENZ, O RLY?
YA RLY
  VISIBLE "SYNCED"
OIC
KTHXBYE`,
			Want: strings.Repeat("SYNCED\n", 8),
		},
		{
			Table: "II", Construct: "TXT MAH BFF [expr], [statement]",
			Meaning: "predicates one statement onto PE expr",
			NP:      2,
			Source: `HAI 1.2
WE HAS A x ITZ SRSLY A NUMBR
x R PRODUKT OF SUM OF ME AN 1 AN 11
HUGZ
I HAS A got ITZ A NUMBR
I HAS A buddy ITZ A NUMBR AN ITZ DIFF OF 1 AN ME
TXT MAH BFF buddy, got R UR x
VISIBLE got
KTHXBYE`,
			Want: "22\n11\n",
		},
		{
			Table: "II", Construct: "TXT MAH BFF [expr] AN STUFF ... TTYL",
			Meaning: "predicates a whole block onto PE expr",
			NP:      2,
			Source: `HAI 1.2
WE HAS A y ITZ SRSLY A NUMBR
WE HAS A z ITZ SRSLY A NUMBR
y R SUM OF ME AN 1
z R PRODUKT OF SUM OF ME AN 1 AN 10
HUGZ
I HAS A x ITZ A NUMBR
I HAS A buddy ITZ A NUMBR AN ITZ DIFF OF 1 AN ME
TXT MAH BFF buddy AN STUFF
  x R SUM OF UR y AN UR z
TTYL
VISIBLE x
KTHXBYE`,
			Want: "22\n11\n", // PE0 reads PE1's y+z=2+20; PE1 reads PE0's 1+10
		},
		{
			Table: "II", Construct: "I HAS A [var] ITZ SRSLY A [type]",
			Meaning: "statically typed variable (assignments cast)",
			Source:  "HAI 1.2\nI HAS A x ITZ SRSLY A NUMBR\nx R \"7\"\nVISIBLE SUM OF x AN 1\nKTHXBYE",
			Want:    "8\n",
		},
		{
			Table: "II", Construct: "WE HAS A [var] ITZ SRSLY A [type] AN IM SHARIN IT",
			Meaning: "symmetric shared variable with implicit lock",
			NP:      2,
			Source: `HAI 1.2
WE HAS A x ITZ SRSLY A NUMBR AN IM SHARIN IT
x R ME
HUGZ
I HAS A buddy ITZ A NUMBR AN ITZ DIFF OF 1 AN ME
I HAS A got ITZ A NUMBR
TXT MAH BFF buddy, got R UR x
VISIBLE got
KTHXBYE`,
			Want: "1\n0\n",
		},
		{
			Table: "II", Construct: "WE HAS A [var] ITZ SRSLY LOTZ A [type]S AN THAR IZ [size]",
			Meaning: "symmetric shared array",
			NP:      2,
			Source: `HAI 1.2
WE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 4
IM IN YR fill UPPIN YR i TIL BOTH SAEM i AN 4
  a'Z i R SUM OF PRODUKT OF ME AN 10 AN i
IM OUTTA YR fill
HUGZ
I HAS A buddy ITZ A NUMBR AN ITZ DIFF OF 1 AN ME
I HAS A got ITZ A NUMBR
TXT MAH BFF buddy, got R UR a'Z 3
VISIBLE got
KTHXBYE`,
			Want: "13\n3\n",
		},
		{
			Table: "II", Construct: "UR [var] / MAH [var]",
			Meaning: "remote vs local address space under predication",
			NP:      2,
			Source: `HAI 1.2
WE HAS A x ITZ SRSLY A NUMBR
x R PRODUKT OF SUM OF ME AN 1 AN 5
HUGZ
I HAS A buddy ITZ A NUMBR AN ITZ DIFF OF 1 AN ME
I HAS A pair ITZ A NUMBR
TXT MAH BFF buddy, pair R SUM OF MAH x AN UR x
VISIBLE pair
KTHXBYE`,
			Want: "15\n15\n",
		},
		{
			Table: "II", Construct: "[var]'Z [expr]",
			Meaning: "array element access with clean syntax",
			Source:  "HAI 1.2\nI HAS A a ITZ LOTZ A NUMBARS AN THAR IZ 3\na'Z 0 R 1.5\na'Z SUM OF 0 AN 1 R 2.5\nVISIBLE SUM OF a'Z 0 AN a'Z 1\nKTHXBYE",
			Want:    "4.00\n",
		},
	}
}

// TableIII is the additional extensions of paper Table III.
func TableIII() []Row {
	return []Row{
		{
			Table: "III", Construct: "WHATEVR",
			Meaning: "random integer, rand()",
			Source:  "HAI 1.2\nI HAS A r ITZ WHATEVR\nVISIBLE BOTH OF NOT SMALLR r AN 0 AN SMALLR r AN 2147483648\nKTHXBYE",
			Want:    "WIN\n", // 0 <= r < 2^31
		},
		{
			Table: "III", Construct: "WHATEVAR",
			Meaning: "random floating point, randf()",
			Source:  "HAI 1.2\nI HAS A r ITZ WHATEVAR\nVISIBLE BOTH OF NOT SMALLR r AN 0.0 AN SMALLR r AN 1.0\nKTHXBYE",
			Want:    "WIN\n", // 0 <= r < 1
		},
		{
			Table: "III", Construct: "SQUAR OF [var]",
			Meaning: "power of 2, var*var",
			Source:  "HAI 1.2\nVISIBLE SQUAR OF 7\nVISIBLE SQUAR OF 1.5\nKTHXBYE",
			Want:    "49\n2.25\n",
		},
		{
			Table: "III", Construct: "UNSQUAR OF [var]",
			Meaning: "square root, sqrt(var)",
			Source:  "HAI 1.2\nVISIBLE UNSQUAR OF 144\nKTHXBYE",
			Want:    "12.00\n",
		},
		{
			Table: "III", Construct: "FLIP OF [var]",
			Meaning: "reciprocal, 1/var",
			Source:  "HAI 1.2\nVISIBLE FLIP OF 8\nKTHXBYE",
			Want:    "0.12\n", // 0.125 at two decimal places (round half to even)
		},
	}
}
