package interp

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/backend"
)

func TestOutputGroupedOrdersByPE(t *testing.T) {
	var sink strings.Builder
	out := backend.NewOutput(&sink, true, 3, 0)
	var wg sync.WaitGroup
	// PEs write interleaved; grouped output must still emit in rank order.
	for pe := 0; pe < 3; pe++ {
		wg.Add(1)
		go func(pe int) {
			defer wg.Done()
			w := out.ForPE(pe)
			w.WriteString(strings.Repeat(string(rune('a'+pe)), 2))
			w.WriteString("\n")
		}(pe)
	}
	wg.Wait()
	out.Flush()
	if got, want := sink.String(), "aa\nbb\ncc\n"; got != want {
		t.Errorf("grouped output = %q, want %q", got, want)
	}
}

func TestOutputLiveWritesThrough(t *testing.T) {
	var sink strings.Builder
	out := backend.NewOutput(&sink, false, 2, 0)
	out.ForPE(1).WriteString("hi")
	if sink.String() != "hi" {
		t.Errorf("live output did not write through: %q", sink.String())
	}
	out.Flush() // no-op for live mode
	if sink.String() != "hi" {
		t.Errorf("flush changed live output: %q", sink.String())
	}
}

func TestOutputNilWriterDiscards(t *testing.T) {
	out := backend.NewOutput(nil, false, 1, 0)
	out.ForPE(0).WriteString("dropped") // must not panic
	grouped := backend.NewOutput(nil, true, 1, 0)
	grouped.ForPE(0).WriteString("dropped")
	grouped.Flush()
}

func TestSharedReaderHandsOutLines(t *testing.T) {
	r := backend.NewSharedReader(strings.NewReader("one\ntwo\n"))
	a, ok := r.Line()
	if !ok || a != "one" {
		t.Fatalf("first line = %q, %v", a, ok)
	}
	b, ok := r.Line()
	if !ok || b != "two" {
		t.Fatalf("second line = %q, %v", b, ok)
	}
	if _, ok := r.Line(); ok {
		t.Fatal("expected EOF")
	}
}

func TestSharedReaderNilIsEmpty(t *testing.T) {
	r := backend.NewSharedReader(nil)
	if _, ok := r.Line(); ok {
		t.Fatal("nil reader should be empty")
	}
}
