package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{name: "proxy.serve", start: 0, end: 100, parent: -1},
		{name: "upstream.serve", start: 10, end: 30, parent: 0},
		{name: "upstream.serve", start: 20, end: 50, parent: 0},   // overlaps the first child
		{name: "upstream.serve", start: 90, end: 120, parent: 0},  // runs past the parent
		{name: "upstream.serve", start: 200, end: 300, parent: 0}, // wholly outside it
		{name: "proxy.serve", start: 500, end: 560, parent: -1},   // no children
	}
	got := selfTimes(spans, "proxy.serve")
	want := []float64{100 - 40 - 10, 60}
	if len(got) != len(want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("selfTimes[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if c := covered(spans[0], []span{{start: 0, end: 100}, {start: 10, end: 20}}); c != 100 {
		t.Errorf("a child covering the whole parent covers %d, want 100", c)
	}
}

func TestLinkByRequestMatchesIDAndTag(t *testing.T) {
	spans := []span{
		{name: "proxy.serve", start: 0, end: 100, parent: -1, req: 1, tag: "stable"},
		{name: "proxy.serve", start: 0, end: 100, parent: -1, req: 2, tag: "canary"},
		{name: "upstream.serve", start: 10, end: 90, parent: -1, req: 1, tag: "stable"},
		// A dark-launch shadow of request 1: same id, other version.
		{name: "upstream.serve", start: 20, end: 150, parent: -1, req: 1, tag: "canary"},
		{name: "upstream.serve", start: 10, end: 60, parent: -1, req: 2, tag: "canary"},
		{name: "upstream.serve", start: 10, end: 60, parent: -1, req: 3, tag: "stable"}, // direct, no proxy span
		{name: "upstream.serve", start: 10, end: 60, parent: -1, req: 0, tag: "stable"}, // no id
	}
	if n := linkByRequest(spans, "proxy.serve", "upstream.serve"); n != 2 {
		t.Fatalf("linked %d children, want 2", n)
	}
	wantParent := []int{-1, -1, 0, -1, 1, -1, -1}
	for i, s := range spans {
		if s.parent != wantParent[i] {
			t.Errorf("span %d parent = %d, want %d", i, s.parent, wantParent[i])
		}
	}
	self := selfTimes(spans, "proxy.serve")
	if self[0] != 20 || self[1] != 50 {
		t.Errorf("self times after linking = %v, want [20 50]", self)
	}
}

func TestRecorderWritesSpans(t *testing.T) {
	var nilRec *recorder
	ran := false
	nilRec.timed("x", func() { ran = true }) // untraced mode: no recording, still runs
	if !ran {
		t.Fatal("timed on a nil recorder did not run the call")
	}
	r := newRecorder(time.Now())
	r.timed("dsl.compile", func() {})
	r.add(span{name: "proxy.serve", start: 1, end: 2, parent: -1, req: 7, tag: "stable"})
	path := filepath.Join(t.TempDir(), "spans.csv")
	if err := writeSpans(path, r.snapshot()); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[1], "dsl.compile,") || lines[2] != "proxy.serve,1,2,-1,7,stable" {
		t.Errorf("spans file:\n%s", b)
	}
}
