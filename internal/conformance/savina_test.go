package conformance

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
)

// savinaFiles maps each Table S row to its twin program under
// testdata/savina/ — the copy cmd/lolrun users actually launch.
var savinaFiles = map[string]string{
	"savina: ping-pong":           "pingpong.lol",
	"savina: barrier storm":       "barrierstorm.lol",
	"savina: counting":            "counting.lol",
	"savina: dining philosophers": "philosophers.lol",
}

// TestSavinaSourcesMatchTestdata pins the inlined Table S sources
// byte-for-byte to testdata/savina/, in both directions: every row has a
// file twin with identical bytes, and every .lol file in the directory is
// registered as a row. Editing either copy without the other fails here.
func TestSavinaSourcesMatchTestdata(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "savina")
	rows := Savina()
	if len(rows) != len(savinaFiles) {
		t.Fatalf("Savina() has %d rows, savinaFiles maps %d", len(rows), len(savinaFiles))
	}
	for _, row := range rows {
		name, ok := savinaFiles[row.Construct]
		if !ok {
			t.Errorf("row %q has no testdata twin registered", row.Construct)
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("row %q: %v", row.Construct, err)
			continue
		}
		if string(b) != row.Source {
			t.Errorf("row %q: inlined source differs from testdata/savina/%s; keep the two copies byte-identical", row.Construct, name)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	known := make(map[string]bool, len(savinaFiles))
	for _, f := range savinaFiles {
		known[f] = true
	}
	for _, e := range entries {
		if !known[e.Name()] {
			t.Errorf("testdata/savina/%s is not registered as a Table S row", e.Name())
		}
	}
}

// TestSavinaWorkerScheduler runs the Table S corpus on the vm engine with
// the worker scheduler forced. Every row blocks — HUGZ, blocking lock
// acquire, trylock-with-lock-held — so each one exercises park/resume on
// a real program, and the Want strings assert the exact same bytes the
// goroutine-per-PE matrix (TestTables) checks.
func TestSavinaWorkerScheduler(t *testing.T) {
	for _, row := range Savina() {
		row := row
		t.Run(shorten(row.Construct), func(t *testing.T) {
			t.Parallel()
			err := row.RunWith(core.BackendVM, func(c *backend.Config) { c.Sched = backend.SchedWorkers })
			if err != nil {
				t.Errorf("%s: %v\n--- program ---\n%s", row.Construct, err, row.Source)
			}
		})
	}
}
