package lexer

import (
	"os"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/token"
)

func kinds(toks []token.Token) []token.Kind {
	out := make([]token.Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func scanKinds(t *testing.T, src string) []token.Kind {
	t.Helper()
	toks, errs := ScanAll("test.lol", src)
	if len(errs) > 0 {
		t.Fatalf("scan %q: %v", src, errs[0])
	}
	return kinds(toks)
}

func expectKinds(t *testing.T, src string, want ...token.Kind) {
	t.Helper()
	got := scanKinds(t, src)
	want = append(want, token.EOF)
	if len(got) != len(want) {
		t.Fatalf("scan %q: got %v, want %v", src, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("scan %q: token %d = %v, want %v\nfull: %v", src, i, got[i], want[i], got)
		}
	}
}

func TestMultiWordKeywords(t *testing.T) {
	expectKinds(t, "IM SRSLY MESIN WIF x",
		token.KwImSrslyMesinWif, token.Ident)
	expectKinds(t, "IM MESIN WIF x",
		token.KwImMesinWif, token.Ident)
	expectKinds(t, "TXT MAH BFF 3",
		token.KwTxtMahBff, token.NumbrLit)
	expectKinds(t, "MAH FRENZ", token.KwMahFrenz)
	expectKinds(t, "MAH x", token.KwMah, token.Ident)
	expectKinds(t, "I HAS A x ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 32",
		token.KwIHasA, token.Ident, token.KwItzSrslyLotzA, token.Ident,
		token.KwAnTharIz, token.NumbrLit)
	expectKinds(t, "SUM OF a AN b",
		token.KwSumOf, token.Ident, token.KwAn, token.Ident)
	expectKinds(t, "TXT MAH BFF k AN STUFF",
		token.KwTxtMahBff, token.Ident, token.KwAnStuff)
}

func TestLongestMatchBacktracks(t *testing.T) {
	// "BOTH" alone must fall back to an identifier; "BOTH SAEM" is one
	// keyword; "BOTH OF" another.
	expectKinds(t, "BOTH SAEM i AN 32",
		token.KwBothSaem, token.Ident, token.KwAn, token.NumbrLit)
	expectKinds(t, "BOTH OF WIN AN FAIL",
		token.KwBothOf, token.KwWin, token.KwAn, token.KwFail)
	expectKinds(t, "BOTH", token.Ident)
	// "IM" starts several phrases; bare IM is an identifier.
	expectKinds(t, "IM IN YR loop", token.KwImInYr, token.Ident)
	expectKinds(t, "IM OUTTA YR loop", token.KwImOuttaYr, token.Ident)
	expectKinds(t, "IM alone", token.Ident, token.Ident)
}

func TestCommaIsNewline(t *testing.T) {
	expectKinds(t, "GTFO, GTFO", token.KwGtfo, token.Newline, token.KwGtfo)
}

func TestLineContinuation(t *testing.T) {
	expectKinds(t, "SUM OF a ...\n  AN b",
		token.KwSumOf, token.Ident, token.KwAn, token.Ident)
	// Keyword phrases may span a continuation.
	expectKinds(t, "I HAS A x ITZ SRSLY ...\n  A NUMBR",
		token.KwIHasA, token.Ident, token.KwItzSrslyA, token.KwNumbr)
}

func TestComments(t *testing.T) {
	expectKinds(t, "GTFO BTW this is ignored\nGTFO",
		token.KwGtfo, token.Newline, token.KwGtfo)
	expectKinds(t, "OBTW\nanything goes\neven GTFO\nTLDR\nGTFO",
		token.KwGtfo)
	// BTW inside a YARN is literal text.
	toks, errs := ScanAll("t", `VISIBLE "BTW not a comment"`)
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	if toks[1].Kind != token.YarnLit || toks[1].Text != "BTW not a comment" {
		t.Errorf("yarn with BTW: %v", toks[1])
	}
}

func TestUnterminatedComment(t *testing.T) {
	_, errs := ScanAll("t", "OBTW\nnever closed")
	if len(errs) == 0 {
		t.Error("unterminated OBTW should report an error")
	}
}

func TestNumbers(t *testing.T) {
	toks, _ := ScanAll("t", "42 -7 3.14 -0.5 1e3 2.5e-2")
	wantKind := []token.Kind{
		token.NumbrLit, token.NumbrLit, token.NumbarLit,
		token.NumbarLit, token.NumbarLit, token.NumbarLit, token.EOF,
	}
	wantText := []string{"42", "-7", "3.14", "-0.5", "1e3", "2.5e-2", ""}
	for i, tok := range toks {
		if tok.Kind != wantKind[i] || tok.Text != wantText[i] {
			t.Errorf("token %d = %v %q, want %v %q", i, tok.Kind, tok.Text, wantKind[i], wantText[i])
		}
	}
}

func TestIndexToken(t *testing.T) {
	expectKinds(t, "pos_x'Z i", token.Ident, token.IndexZ, token.Ident)
}

func TestPunctuation(t *testing.T) {
	expectKinds(t, "O RLY?", token.KwORly, token.Question)
	expectKinds(t, "WTF?", token.KwWtf, token.Question)
	expectKinds(t, `VISIBLE "x" !`, token.KwVisible, token.YarnLit, token.Bang)
}

func TestYarnEscapes(t *testing.T) {
	toks, errs := ScanAll("t", `VISIBLE "a:)b:>c:"d::e"`)
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	segs, err := DecodeYarn(toks[1].Text)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].Text != "a\nb\tc\"d:e" {
		t.Errorf("decoded segments = %+v", segs)
	}
}

func TestYarnInterpolation(t *testing.T) {
	segs, err := DecodeYarn("count=:{n}!")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 3 || segs[0].Text != "count=" || segs[1].Var != "n" || segs[2].Text != "!" {
		t.Errorf("segments = %+v", segs)
	}
}

func TestYarnHexEscape(t *testing.T) {
	segs, err := DecodeYarn(":(41):(1F63A)")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].Text != "A\U0001F63A" {
		t.Errorf("segments = %+v", segs)
	}
}

func TestYarnBadEscapes(t *testing.T) {
	for _, raw := range []string{":", ":x", ":(zz)", ":{", ":{}", ":("} {
		if _, err := DecodeYarn(raw); err == nil {
			t.Errorf("DecodeYarn(%q) should fail", raw)
		}
	}
}

func TestUnterminatedYarn(t *testing.T) {
	_, errs := ScanAll("t", "VISIBLE \"oops\nGTFO")
	if len(errs) == 0 {
		t.Error("unterminated YARN should report an error")
	}
}

func TestPositions(t *testing.T) {
	toks, _ := ScanAll("f.lol", "HAI 1.2\nVISIBLE x")
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("HAI at %v", toks[0].Pos)
	}
	var vis token.Token
	for _, tk := range toks {
		if tk.Kind == token.KwVisible {
			vis = tk
		}
	}
	if vis.Pos.Line != 2 || vis.Pos.Col != 1 {
		t.Errorf("VISIBLE at %v, want 2:1", vis.Pos)
	}
}

// Property: EncodeYarn/DecodeYarn round-trip arbitrary printable text.
func TestPropertyYarnRoundTrip(t *testing.T) {
	f := func(s string) bool {
		raw := EncodeYarn(s)
		segs, err := DecodeYarn(raw)
		if err != nil {
			return false
		}
		var b strings.Builder
		for _, seg := range segs {
			if seg.Var != "" {
				return false // escape must never produce interpolations
			}
			b.WriteString(seg.Text)
		}
		return b.String() == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every keyword phrase in the token table lexes back to exactly
// its own kind (print/re-lex identity over the keyword space).
func TestPropertyKeywordsRoundTrip(t *testing.T) {
	for kind, phrase := range token.Phrases {
		toks, errs := ScanAll("t", phrase)
		if len(errs) > 0 {
			t.Errorf("phrase %q: %v", phrase, errs[0])
			continue
		}
		if len(toks) != 2 || toks[0].Kind != kind {
			// Prefix keywords of longer phrases (e.g. "ITZ" inside
			// "ITZ A") still lex to themselves in isolation, so any
			// mismatch is a real table bug.
			t.Errorf("phrase %q lexed to %v, want [%v EOF]", phrase, kinds(toks), kind)
		}
	}
}

// TestScanAllAllocatesOnce: the token slice is presized from the source
// length, so scanning a real program is a single allocation.
func TestScanAllAllocatesOnce(t *testing.T) {
	raw, err := os.ReadFile("../../testdata/nbody.lol")
	if err != nil {
		t.Fatal(err)
	}
	src := string(raw)
	allocs := testing.AllocsPerRun(20, func() {
		if _, errs := ScanAll("nbody.lol", src); len(errs) > 0 {
			t.Fatal(errs[0])
		}
	})
	if allocs != 1 {
		t.Fatalf("ScanAll(nbody.lol) made %v allocations, want 1", allocs)
	}
}
