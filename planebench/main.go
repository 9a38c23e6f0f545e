// Command planebench is Bifrost's benchmark: one workload per end-to-end
// path (data plane, control plane, event plane), each checked for correct
// output and reported as one JSON line. See README.md next to this file.
//
//	planebench --workload dataplane|enactment|eventstream --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line of standard output carries the end-to-end
// metrics; with --trace 1 the run is split into an untraced and a traced
// half and the last line carries the per-layer metrics, taken from spans
// the benchmark records around its own calls into each module. Run it
// from the repository root; it writes only under .bench_build/.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricDef is one reported metric: its name and unit.
type metricDef struct{ name, unit string }

// endToEnd are printed with --trace 0 by every workload; README.md says
// what each means on each workload. p99.9 is kept in each result's
// metadata instead: on eventstream it did not repeat from run to run
// closely enough to gate on (README.md has the figures).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"catchup_ms", "ms"},
}

// perLayer are printed with --trace 1. A layer the workload does not
// exercise reads 0.
var perLayer = []metricDef{
	{"proxy.serve_us", "us"},
	{"proxy.self_us", "us"},
	{"proxy.setconfig_us", "us"},
	{"proxy.allocs_per_req", "count"},
	{"proxy.bytes_per_req", "B"},
	{"runtime.gc_per_kop", "count"},
	{"proxy.shadow_sent_ratio", "ratio"},
	{"proxy.sticky_entries", "count"},
	{"upstream.serve_us", "us"},
	{"upstream.direct_p50_ms", "ms"},
	{"engine.promote_us", "us"},
	{"fleet.first_ack_ms", "ms"},
	{"fleet.ack_spread_ms", "ms"},
	{"fleet.pushes_per_transition", "count"},
	{"proxy.admin_put_us", "us"},
	{"metrics.query_us", "us"},
	{"metrics.queries_per_transition", "count"},
	{"journal.bytes_per_transition", "B"},
	{"engine.events_per_transition", "count"},
	{"dsl.compile_ms", "ms"},
	{"engine.enact_ms", "ms"},
	{"engine.publish_us", "us"},
	{"journal.durable_ms", "ms"},
	{"httpx.flushes_per_frame", "count"},
	{"httpx.writes_per_frame", "count"},
	{"httpx.bytes_per_frame", "B"},
	{"engine.allocs_per_event", "count"},
	{"journal.bytes_per_event", "B"},
	{"engine.frames_per_event", "count"},
	{"loadgen.lateness_p50_ms", "ms"},
	{"trace.overhead_p50_pct", "%"},
	{"trace.overhead_cpu_pct", "%"},
}

// opts are the command-line settings of one run.
type opts struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
	// work holds everything a run writes: journals, spans, results.
	work string
}

// outcome is what a workload measured.
type outcome struct {
	e2e, layer map[string]float64
	setups     []float64
	attempted  int64
	failed     int64
	notes      []string
	spans      []span
	samples    map[string]any
	// slow is the host's slowness over the run's probe slices; every
	// end-to-end figure but those in asMeasured is scaled by it. windows
	// holds each window's or round's figures as measured.
	slow       slowness
	asMeasured []string
	windows    perWindow
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string]any{}}
}

// fail counts n failed operations and keeps a note of why.
func (o *outcome) fail(n int64, format string, args ...any) {
	o.failed += n
	if len(o.notes) < 20 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

// overhead records what tracing cost: the traced half's p50 and CPU per
// operation against the untraced half's, in percent.
func (o *outcome) overhead(p50, tracedP50, cpu, tracedCPU float64) {
	o.layer["trace.overhead_p50_pct"] = 100 * (tracedP50/p50 - 1)
	o.layer["trace.overhead_cpu_pct"] = 100 * (tracedCPU/cpu - 1)
}

var workloads = map[string]func(*opts) (*outcome, error){
	"dataplane":   runDataplane,
	"enactment":   runEnactment,
	"eventstream": runEventstream,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("planebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "dataplane, enactment or eventstream")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1: per-layer metrics from a traced run")
	work := fs.String("work", ".bench_build/planebench", "directory for journals, spans and results")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "planebench: need --workload dataplane|enactment|eventstream, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	o := &opts{workload: *workload, seed: *seed, dur: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, work: *work}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintf(stderr, "planebench: %v\n", err)
		return 2
	}
	meta := runMeta(o)
	out, err := fn(o)
	if err != nil {
		fmt.Fprintf(stderr, "planebench: %s: %v\n", o.workload, err)
		return 2
	}
	out.e2e["setup_s"] = median(out.setups)
	// Why operations failed goes out first: a failure can also leave a
	// metric unmeasured, which ends the run before the result.
	for _, n := range out.notes {
		fmt.Fprintf(stderr, "planebench: %s: %s\n", o.workload, n)
	}
	defs, values := endToEnd, scaled(out.e2e, out.slow)
	for _, k := range out.asMeasured {
		values[k] = out.e2e[k]
	}
	if o.trace {
		defs, values = perLayer, out.layer
	}
	metrics := make(map[string]map[string]any, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) || (!o.trace && (!ok || v <= 0)) {
			fmt.Fprintf(stderr, "planebench: %s: metric %s not measured (%v)\n", o.workload, d.name, v)
			return 2
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	meta["samples"] = out.samples
	meta["setups_s"] = out.setups
	meta["windows"] = out.windows
	meta["slowness"] = out.slow
	meta["measured"] = out.e2e
	res := map[string]any{
		"correct":   out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	}
	if o.trace {
		path := filepath.Join(o.work, o.workload+"-spans.csv")
		if err := writeSpans(path, out.spans); err != nil {
			fmt.Fprintf(stderr, "planebench: write spans: %v\n", err)
			return 2
		}
		meta["spans"] = map[string]any{"file": path, "count": len(out.spans)}
	}
	saved := map[string]any{"meta": meta, "result": res}
	if b, err := json.MarshalIndent(saved, "", "  "); err == nil {
		name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, *trace)
		if err := os.WriteFile(filepath.Join(o.work, name), b, 0o644); err != nil {
			fmt.Fprintf(stderr, "planebench: save result: %v\n", err)
		}
	}
	mb, _ := json.Marshal(map[string]any{"meta": meta})
	fmt.Fprintln(stdout, string(mb))
	rb, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "planebench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(rb))
	if out.failed > 0 {
		return 1
	}
	return 0
}

// runMeta describes the host and the code measured.
func runMeta(o *opts) map[string]any {
	m := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.dur.Seconds(),
		"trace":      o.trace,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"tree":       treeDigest("."),
		"started":    time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m["commit"] = s.Value
			case "vcs.modified":
				m["commit_modified"] = s.Value
			}
		}
	}
	return m
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// treeDigest hashes the Go sources and module files under root, so a
// result names the code it measured even where no version control
// information was built in.
func treeDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
