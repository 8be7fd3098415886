package main

// The traced run. End-to-end metrics always come from untraced runs;
// a traced run instead attributes time to layers from outside the
// program, without tracing code inside it:
//
//   A  the workload over HTTP for half the run, with a span around
//      every request (layer "server"),
//   B  A's ops replayed, with A's concurrency and schedule, directly
//      against serve.Engine on a twin booted from the same seed (layer
//      "serve"),
//   C  A's ops replayed in order, one at a time, against a bare twin
//      index: index batch writes, core.RkNNT for every query the engine
//      executed in B, planner.Precompute and Precomputed.Plan (layers
//      "index", "core", "planner"), for at most a quarter of the run.
//
// A layer's self time for an op is its span minus the span of the next
// layer down for the same op. Counts come from what the called
// functions return: core.Stats, QueryResult flags, EngineStats deltas
// and CheckpointResult. Spans stay in memory and are written out once,
// at the end, as JSON lines.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/serve"
)

// span is one call into a layer.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // span of the layer above for the same op; -1 at the top
	Op      int     `json:"op"`     // op seq, shared by every layer's span of the op
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"` // from the start of the span's phase
	EndUS   float64 `json:"end_us"`
}

// tracer records spans from any goroutine.
type tracer struct {
	mu    sync.Mutex
	spans []span
	cost  time.Duration // time spent in add
}

// add records a span; origin is the start of the span's phase.
func (t *tracer) add(origin time.Time, op int, name string, start, end time.Time) {
	t0 := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: -1, Op: op, Name: name,
		StartUS: micros(start.Sub(origin)), EndUS: micros(end.Sub(origin)),
	})
	t.cost += time.Since(t0)
	t.mu.Unlock()
}

// perLayer lists the per-layer metrics in BENCHMARK.json order.
var perLayer = []struct{ name, unit string }{
	{"server.self_us", "us"},
	{"server.batch_self_us", "us"},
	{"server.resp_bytes", "bytes"},
	{"serve.hit_ratio", "ratio"},
	{"serve.repair_ratio", "ratio"},
	{"serve.hit_us", "us"},
	{"serve.repair_us", "us"},
	{"serve.miss_overhead_us", "us"},
	{"serve.batch_us_per_query", "us"},
	{"serve.write_queue_wait_us", "us"},
	{"serve.write_commit_us", "us"},
	{"serve.writes_per_commit", "count"},
	{"serve.precompute_count", "count"},
	{"core.filter_us", "us"},
	{"core.verify_us", "us"},
	{"core.candidates_per_result", "ratio"},
	{"core.refine_nodes", "count"},
	{"core.filter_points", "count"},
	{"index.add_us", "us"},
	{"index.remove_us", "us"},
	{"index.shard_skew", "ratio"},
	{"planner.precompute_ms", "ms"},
	{"planner.search_us", "us"},
	{"dataio.checkpoint_ms", "ms"},
	{"dataio.checkpoint_bytes", "bytes"},
	{"bench.late_p99_ms", "ms"},
	{"bench.trace_overhead", "ratio"},
}

// traced runs phases A, B and C on the booted system e and returns the
// phases that asked the system (for the oracle) and the per-layer
// metrics. A metric of a
// layer the workload does not reach reads 0.
func traced(cfg config, e *env, d time.Duration, dir string, w io.Writer) ([]*phase, map[string]metric, error) {
	s := e.spec
	v := map[string]float64{}
	tr := &tracer{}

	// Shard skew of the served index, as set up.
	sizes := e.engine.EngineStats().ShardSizes
	if len(sizes) > 0 {
		total := 0
		for _, n := range sizes {
			total += n
		}
		v["index.shard_skew"] = float64(slices.Max(sizes)) / (float64(total) / float64(len(sizes)))
	}

	// A over HTTP.
	next := e.gen.next
	if g, ok := e.gen.(*liveGen); ok {
		next = g.until(d / 2)
	}
	origin := time.Now()
	pa := drive(next, e.x, loop{clients: s.clients, open: s.open, d: d / 2, onDone: func(o *op, r *rec) {
		tr.add(origin, o.seq, "server "+o.kind.String(), r.send, r.end)
	}})
	topA := len(tr.spans)
	// The share of the clients' time that recording spans took: spans
	// are built from timestamps every run takes, so this is all the
	// traced run adds to the untraced one.
	busy := time.Duration(0)
	for _, r := range pa.recs {
		busy += r.end.Sub(r.send)
	}
	if busy > 0 {
		v["bench.trace_overhead"] = float64(tr.cost) / float64(busy)
	}
	if s.open {
		var late []float64
		for _, r := range pa.recs {
			late = append(late, float64(r.send.Sub(r.due))/1e6)
		}
		v["bench.late_p99_ms"], _ = quantile(late, 0.99)
	}
	bytes := 0
	for _, r := range pa.recs {
		bytes += r.bytes
	}
	v["server.resp_bytes"] = float64(bytes) / float64(max(len(pa.recs), 1))

	// B: the same ops against serve.Engine on a twin.
	twin, err := boot(s, cfg.seed, d, false, filepath.Join(dir, "twin"))
	if err != nil {
		return nil, nil, fmt.Errorf("twin: %w", err)
	}
	defer twin.close()
	before := twin.engine.EngineStats()
	origin = time.Now()
	pb := drive(sliceSource(pa.ops), twin.x, loop{clients: s.clients, open: s.open, onDone: func(o *op, r *rec) {
		tr.add(origin, o.seq, "serve.Engine."+engineMethod(o.kind), r.send, r.end)
	}})
	after := twin.engine.EngineStats()
	serveMetrics(v, s, pa, pb, before, after)
	topB := len(tr.spans)

	// C: the same ops against the bare layers, in order.
	if err := replayLayers(v, tr, s, pa.ops, pb.recs, d/4); err != nil {
		return nil, nil, err
	}
	linkParents(tr.spans, topA, topB)
	if err := writeSpans(filepath.Join(cfg.out, fmt.Sprintf("spans-%s-%d.jsonl", s.name, cfg.seed)), tr.spans); err != nil {
		return nil, nil, err
	}

	m := map[string]metric{}
	for _, pl := range perLayer {
		report(w, m, pl.name, pl.unit, v[pl.name], "")
	}
	// B's answers are the engine's own, so the oracle checks them too.
	return []*phase{pa, pb}, m, nil
}

func engineMethod(k opKind) string {
	switch k {
	case opQuery:
		return "RkNNT"
	case opBatch:
		return "RkNNTBatch"
	case opAdd:
		return "AddTransitions"
	case opRemove:
		return "RemoveTransitions"
	case opCheckpoint:
		return "Checkpoint"
	}
	return "Plan"
}

func micros(d time.Duration) float64 { return float64(d) / 1e3 }

// serveMetrics derives the server and serve layer metrics from phase A
// (HTTP round trips) and its replay B (engine calls) on the same ops.
func serveMetrics(v map[string]float64, s *spec, pa, pb *phase, before, after serve.Stats) {
	var self, batchSelf, hit, repair, miss, perQuery, ckptMS, ckptBytes []float64
	queries, cached, repaired, precomputes := 0, 0, 0, 0
	for i, o := range pb.ops {
		a, b := pa.recs[i], pb.recs[i]
		if a.err != nil || b.err != nil {
			continue
		}
		switch {
		case s.read(o):
			self = append(self, micros(a.latency()-b.latency()))
		case o.kind == opBatch:
			batchSelf = append(batchSelf, micros(a.latency()-b.latency()))
			perQuery = append(perQuery, micros(b.latency())/float64(len(o.batch)))
		case o.kind == opCheckpoint:
			ckptMS = append(ckptMS, float64(b.latency())/1e6)
			ckptBytes = append(ckptBytes, float64(b.ckpt.Bytes))
		}
		switch {
		case o.kind == opPlan && b.plan:
			precomputes++
		case o.kind != opQuery:
		case b.repaired:
			queries, cached, repaired = queries+1, cached+1, repaired+1
			repair = append(repair, micros(b.latency()))
		case b.cached:
			queries, cached = queries+1, cached+1
			hit = append(hit, micros(b.latency()))
		case b.shared:
			queries++
		default:
			queries++
			miss = append(miss, micros(b.latency()-b.stats.Total()))
		}
	}
	v["server.self_us"] = median(self)
	v["server.batch_self_us"] = median(batchSelf)
	v["serve.batch_us_per_query"] = median(perQuery)
	v["serve.hit_us"] = median(hit)
	v["serve.repair_us"] = median(repair)
	v["serve.miss_overhead_us"] = median(miss)
	v["serve.precompute_count"] = float64(precomputes)
	v["dataio.checkpoint_ms"] = median(ckptMS)
	v["dataio.checkpoint_bytes"] = median(ckptBytes)
	if queries > 0 {
		v["serve.hit_ratio"] = float64(cached) / float64(queries)
	}
	if cached > 0 {
		v["serve.repair_ratio"] = float64(repaired) / float64(cached)
	}
	// Write pipeline deltas: the summaries carry count and mean, so
	// count*mean is the histogram's sum.
	mean := func(a, b obs.SummaryData) float64 {
		if n := float64(b.Count) - float64(a.Count); n > 0 {
			return (float64(b.Count)*b.Mean - float64(a.Count)*a.Mean) / n
		}
		return 0
	}
	v["serve.write_queue_wait_us"] = mean(before.QueueWait, after.QueueWait)
	v["serve.write_commit_us"] = mean(before.Commit, after.Commit)
	if n := after.Batches - before.Batches; n > 0 {
		v["serve.writes_per_commit"] = float64(after.BatchedOps-before.BatchedOps) / float64(n)
	}
}

// replayLayers is phase C: ops in order against a bare twin index, with
// the core layer run for every query the engine executed in phase B.
func replayLayers(v map[string]float64, tr *tracer, s *spec, ops []*op, engine []*rec, budget time.Duration) error {
	city, err := s.city()
	if err != nil {
		return err
	}
	x, err := index.Build(city.Dataset)
	if err != nil {
		return err
	}
	var (
		filter, verify, adds, removes, precompute, search []float64
		candidates, results, refine, points, calls        int
		pre                                               *planner.Precomputed
	)
	start := time.Now()
	// timed calls f, records its span and returns its duration.
	timed := func(o *op, name string, f func() error) (time.Duration, error) {
		t0 := time.Now()
		err := f()
		t1 := time.Now()
		tr.add(start, o.seq, name, t0, t1)
		if err != nil {
			return 0, fmt.Errorf("%s op %d: %w", name, o.seq, err)
		}
		return t1.Sub(t0), nil
	}
	runCore := func(o *op, member int) error {
		q := o.query
		if o.kind == opBatch {
			q = o.batch[member]
		}
		_, err := timed(o, "core.RkNNT", func() error {
			_, st, err := core.RkNNT(x, q, core.Options{K: o.k, Method: core.DivideConquer, Parallel: true})
			if err != nil {
				return err
			}
			filter = append(filter, micros(st.Filter))
			verify = append(verify, micros(st.Verify))
			candidates += st.Candidates
			results += st.Results
			refine += st.RefineNodes
			points += st.FilterPoints
			calls++
			return nil
		})
		return err
	}
	for i, o := range ops {
		if time.Since(start) > budget {
			break
		}
		b := engine[i]
		var (
			took time.Duration
			err  error
		)
		switch o.kind {
		case opAdd:
			took, err = timed(o, "index.AddTransitionsBatch", func() error { return errors.Join(x.AddTransitionsBatch(o.adds)...) })
			adds = append(adds, micros(took))
			pre = nil
		case opRemove:
			took, err = timed(o, "index.RemoveTransitionsBatch", func() error {
				for j, ok := range x.RemoveTransitionsBatch(o.ids) {
					if !ok {
						return fmt.Errorf("transition %d was not indexed", o.ids[j])
					}
				}
				return nil
			})
			removes = append(removes, micros(took))
			pre = nil
		case opQuery:
			if !b.cached && !b.repaired && !b.shared {
				err = runCore(o, 0)
			}
		case opBatch:
			for j, it := range b.items {
				if !it.Cached && !it.Shared {
					if err = runCore(o, j); err != nil {
						break
					}
				}
			}
		case opPlan:
			if pre == nil {
				took, err = timed(o, "planner.Precompute", func() (err error) {
					pre, err = planner.Precompute(x, city.Graph, o.k, core.DivideConquer)
					return err
				})
				precompute = append(precompute, float64(took)/1e6)
			}
			if err == nil {
				took, err = timed(o, "planner.Plan", func() error { return planOn(pre, o) })
				search = append(search, micros(took))
			}
		}
		if err != nil {
			return err
		}
	}
	v["core.filter_us"] = median(filter)
	v["core.verify_us"] = median(verify)
	if results > 0 {
		v["core.candidates_per_result"] = float64(candidates) / float64(results)
	}
	if calls > 0 {
		v["core.refine_nodes"] = float64(refine) / float64(calls)
		v["core.filter_points"] = float64(points) / float64(calls)
	}
	v["index.add_us"] = median(adds)
	v["index.remove_us"] = median(removes)
	v["planner.precompute_ms"] = median(precompute)
	v["planner.search_us"] = median(search)
	return nil
}

func planOn(pre *planner.Precomputed, o *op) error {
	_, ok, err := pre.Plan(graph.VertexID(o.plan.src), graph.VertexID(o.plan.dst), o.plan.tau, o.plan.options())
	if err == nil && !ok {
		err = fmt.Errorf("no route within tau %g", o.plan.tau)
	}
	return err
}

// linkParents points each span at the span of the layer above for the
// same op: spans [0, topA) are phase A's, [topA, topB) phase B's, the
// rest phase C's.
func linkParents(spans []span, topA, topB int) {
	idx := func(lo, hi int) map[int]int {
		m := make(map[int]int, hi-lo)
		for i := lo; i < hi; i++ {
			m[spans[i].Op] = spans[i].ID
		}
		return m
	}
	a, b := idx(0, topA), idx(topA, topB)
	for i := range spans {
		var up map[int]int
		switch {
		case i >= topB:
			up = b
		case i >= topA:
			up = a
		default:
			continue
		}
		if id, ok := up[spans[i].Op]; ok {
			spans[i].Parent = id
		}
	}
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
