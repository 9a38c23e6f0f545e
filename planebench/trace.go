package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a module, or one call a
// module made into benchmark-owned code (a stub backend, a metrics query).
// Times are nanoseconds since the recorder's base.
type span struct {
	name       string
	start, end int64
	// parent indexes the span that caused this one, -1 for none. Spans
	// recorded on different goroutines are linked afterwards by request
	// id (linkByRequest).
	parent int
	// req links the spans of one request across goroutines; 0 for none.
	req uint64
	// tag narrows request-id links: a child links only to a parent with
	// the same tag (the version that served the request, so a dark-launch
	// shadow of the same request is not taken for its upstream call).
	tag string
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps spans in memory for the length of a run; they are written
// out once, at exit. A nil *recorder records nothing, which is the untraced
// mode.
type recorder struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder(base time.Time) *recorder {
	return &recorder{base: base, spans: make([]span, 0, 1<<16)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// add stores s.
func (r *recorder) add(s span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
}

// timed records a root span around fn.
func (r *recorder) timed(name string, fn func()) {
	if r == nil {
		fn()
		return
	}
	t0 := r.now()
	fn()
	r.add(span{name: name, start: t0, end: r.now(), parent: -1})
}

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// linkByRequest makes every child-named span the child of the
// parent-named span with the same request id and tag. It returns how many
// children found a parent.
func linkByRequest(spans []span, parentName, childName string) int {
	type key struct {
		req uint64
		tag string
	}
	parents := make(map[key]int)
	for i, s := range spans {
		if s.name == parentName && s.req != 0 {
			parents[key{s.req, s.tag}] = i
		}
	}
	linked := 0
	for i := range spans {
		s := &spans[i]
		if s.name != childName || s.req == 0 {
			continue
		}
		if p, ok := parents[key{s.req, s.tag}]; ok {
			s.parent = p
			linked++
		}
	}
	return linked
}

// selfTimes returns, for every span named name, its duration minus the
// part of its interval that its children cover. Overlapping children are
// counted once, and the parts of a child outside its parent are ignored.
func selfTimes(spans []span, name string) []float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	var out []float64
	for i, p := range spans {
		if p.name != name {
			continue
		}
		out = append(out, float64(p.dur()-covered(p, children[i])))
	}
	return out
}

// covered is the length of the union of kids' intervals clipped to p.
func covered(p span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.start, p.start), min(k.end, p.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// durations returns the durations in nanoseconds of the spans named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// writeSpans writes spans as CSV: name,start_ns,end_ns,parent,req,tag.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "name,start_ns,end_ns,parent,req,tag")
	var line []byte
	for _, s := range spans {
		line = append(line[:0], s.name...)
		line = append(line, ',')
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, ',')
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, ',')
		line = strconv.AppendInt(line, int64(s.parent), 10)
		line = append(line, ',')
		line = strconv.AppendUint(line, s.req, 10)
		line = append(line, ',')
		line = append(line, s.tag...)
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
