// Command rknntbench is the end-to-end benchmark of the RkNNT serving
// system. It boots the internal/server HTTP handler over an engine
// configured like rknnt-serve's defaults, drives it over loopback HTTP
// with one of three workloads, checks the answers and prints one JSON
// result line last:
//
//	rknntbench --workload cold-query --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run, which
// replays the same ops one layer down (see trace.go). BENCHMARK.md
// describes the workloads and metrics. The exit code is 1 when an
// answer was wrong and 2 when the benchmark could not run.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"
)

// Seeds. defaultSeed is the one used when --seed is not given;
// heldOutSeed is never used while tuning a change, so that a claimed
// gain can be re-checked on inputs its author did not see.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// setupReps is how many times a run sets the system up; setup_s is the
// median.
const setupReps = 5

type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	out       string // scratch directory for checkpoints and span dumps
	src       string // repository root, for provenance
	setupReps int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg := config{setupReps: setupReps}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build/rknntbench-out", "directory for checkpoint files and span dumps")
	flag.StringVar(&cfg.src, "src", ".", "repository root, whose commit and source hash the report records")
	flag.Parse()
	cfg.trace = trace == 1
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rknntbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rknntbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets the workload up, measures it, checks its answers and
// returns the result; w receives the human-readable report.
func run(cfg config, w io.Writer) (*result, error) {
	s, ok := specs[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be > 0")
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	dir := filepath.Join(cfg.out, fmt.Sprintf("%s-%d-%d", s.name, cfg.seed, os.Getpid()))
	defer os.RemoveAll(dir)

	prov, err := json.Marshal(provenance(cfg, s))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "provenance %s\n", prov)

	var e *env
	setups := make([]float64, 0, cfg.setupReps)
	for i := 0; i < cfg.setupReps; i++ {
		if e != nil {
			e.close()
			e = nil
		}
		runtime.GC()
		t0 := time.Now()
		if e, err = boot(s, cfg.seed, d, true, filepath.Join(dir, "served")); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / 1e6

	var (
		phases  []*phase
		metrics map[string]metric
	)
	if cfg.trace {
		phases, metrics, err = traced(cfg, e, d, dir, w)
		if err != nil {
			return nil, err
		}
	} else {
		p := drive(e.gen.next, e.x, loop{clients: s.clients, open: s.open, d: d})
		phases = []*phase{p}
		keep := func(*op) bool { return true }
		if g, ok := e.gen.(*coldGen); ok {
			keep = g.wholeCycle
		}
		metrics = endToEnd(s, p, keep, setups, heapMB, w)
	}

	res := &result{Metrics: metrics}
	for _, p := range phases {
		res.Attempted += len(p.ops)
		for i, r := range p.recs {
			if r.err != nil {
				res.Failed++
				if res.Failed <= 5 {
					fmt.Fprintf(w, "FAILED %s op %d: %v\n", p.ops[i].kind, p.ops[i].seq, r.err)
				}
			}
		}
	}
	checked, wrong, err := verify(e, phases)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	for i, msg := range wrong {
		if i < 5 {
			fmt.Fprintf(w, "WRONG %s\n", msg)
		}
	}
	res.Attempted += checked
	res.Failed += len(wrong)
	res.Correct = res.Failed == 0
	fmt.Fprintf(w, "oracle: %d answers checked, %d wrong; error_rate %.6f (%d of %d operations)\n",
		checked, len(wrong), float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	return res, nil
}

// --- end-to-end metrics ---

// quantile returns the nearest-rank q-quantile of xs, which it sorts,
// and how many samples lie above it.
func quantile(xs []float64, q float64) (float64, int) {
	if len(xs) == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	i = min(max(i, 0), len(xs)-1)
	return xs[i], len(xs) - 1 - i
}

func median(xs []float64) float64 {
	v, _ := quantile(slices.Clone(xs), 0.5)
	return v
}

// latencies returns the latencies in ms of the phase's successful ops
// that sel selects, each timed from when it was due: its send time in a
// closed loop, its scheduled time in an open one.
func latencies(p *phase, sel func(*op) bool) []float64 {
	var out []float64
	for i, o := range p.ops {
		if r := p.recs[i]; r.err == nil && sel(o) {
			out = append(out, float64(r.end.Sub(r.due))/1e6)
		}
	}
	return out
}

// report adds a metric to m (unless m is nil) and prints it.
func report(w io.Writer, m map[string]metric, name, unit string, v float64, note string) {
	if m != nil {
		m[name] = metric{v, unit}
	}
	fmt.Fprintf(w, "metric %-28s %14.4f %-6s%s\n", name, v, unit, note)
}

// percentile reports the q-quantile of xs with its sample count, marked
// as indicative when fewer than ten samples lie beyond it.
func percentile(w io.Writer, m map[string]metric, name string, xs []float64, q float64) {
	v, beyond := quantile(xs, q)
	note := fmt.Sprintf("  (n=%d, %d beyond)", len(xs), beyond)
	if beyond < 10 {
		note += " too few samples beyond: indicative only"
	}
	report(w, m, name, "ms", v, note)
}

// endToEnd computes the end-to-end metrics of an untraced phase. The
// metrics in BENCHMARK.json are named by role so that every workload
// reports all of them: "read" is the workload's answer request and
// "aux" its second request class. Lines without a result entry give
// the workload-specific names of the same and further figures. Latency
// percentiles are taken over the ops keep selects.
func endToEnd(s *spec, p *phase, keep func(*op) bool, setups []float64, heapMB float64, w io.Writer) map[string]metric {
	m := map[string]metric{}
	report(w, m, "setup_s", "s", median(setups), fmt.Sprintf("  (median of %d set-ups)", len(setups)))
	report(w, m, "heap_mb", "MB", heapMB, "")

	answers := 0
	for i, o := range p.ops {
		if p.recs[i].err != nil {
			continue
		}
		switch {
		case s.read(o):
			answers++
		case o.kind == opBatch:
			answers += len(o.batch)
		}
	}
	report(w, m, "reads_per_s", "1/s", float64(answers)/p.elapsed.Seconds(), "")
	reads := latencies(p, func(o *op) bool { return s.read(o) && keep(o) })
	percentile(w, m, "read_p50_ms", reads, 0.50)
	aux := latencies(p, func(o *op) bool { return s.aux(o) && keep(o) })
	percentile(w, m, "aux_p50_ms", aux, 0.50)
	percentile(w, nil, "read_p90_ms", reads, 0.90)
	percentile(w, nil, "read_p99_ms", reads, 0.99)

	switch s.name {
	case "cold-query":
		report(w, nil, "queries_per_s", "1/s", float64(answers)/p.elapsed.Seconds(), "")
		percentile(w, nil, "batch_p90_ms", aux, 0.90)
	case "live-mix":
		percentile(w, nil, "write_p99_ms", aux, 0.99)
		percentile(w, nil, "checkpoint_p50_ms", latencies(p, isKind(opCheckpoint)), 0.50)
		var late []float64
		for _, r := range p.recs {
			late = append(late, float64(r.send.Sub(r.due))/1e6)
		}
		percentile(w, nil, "late_p99_ms", late, 0.99)
	case "plan-live":
		percentile(w, nil, "write_p50_ms", latencies(p, isKind(opAdd)), 0.50)
	}
	return m
}

// --- provenance ---

func provenance(cfg config, s *spec) map[string]any {
	commit, dirty := gitState(cfg.src)
	return map[string]any{
		"workload":      s.name,
		"seed":          cfg.seed,
		"default_seed":  defaultSeed,
		"held_out_seed": heldOutSeed,
		"seconds":       cfg.seconds,
		"trace":         cfg.trace,
		"setup_reps":    cfg.setupReps,
		"commit":        commit,
		"dirty":         dirty,
		"source_sha256": sourceHash(cfg.src),
		"num_cpu":       runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"engine":        map[string]any{"cache": 4096, "cache_shards": "default", "coalesce": false, "max_batch": 256, "tr_shards": "default (GOMAXPROCS)"},
		"params":        s.params(),
	}
}

// gitState reports the commit the benchmark was built from, from git
// when src is the root of a repository and from the build's VCS stamp
// otherwise; "unknown" when neither is available.
func gitState(src string) (commit string, dirty any) {
	git := func(args ...string) (string, error) {
		out, err := exec.Command("git", append([]string{"-C", src}, args...)...).Output()
		return strings.TrimSpace(string(out)), err
	}
	abs, _ := filepath.Abs(src)
	if top, err := git("rev-parse", "--show-toplevel"); err == nil && top == abs {
		head, err := git("rev-parse", "HEAD")
		st, err2 := git("status", "--porcelain")
		if err == nil && err2 == nil {
			return head, st != ""
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		commit, dirty = "", "unknown"
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if commit != "" {
			return commit, dirty
		}
	}
	return "unknown", "unknown"
}

// sourceHash hashes every Go source and go.mod file under root, so a
// report identifies the code it measured even outside a repository.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}
