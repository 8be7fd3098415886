package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/serve"
	"repro/internal/server"
)

// engineOptions is rknnt-serve's default engine configuration: cache
// 4096, default cache shards, coalescing off, max-batch 256, default
// TR-shard count (GOMAXPROCS).
func engineOptions() serve.Options {
	return serve.Options{CacheSize: 4096, MaxBatch: 256}
}

// rec is what one execution of an op returned.
type rec struct {
	due, send, end time.Time
	err            error
	bytes          int // response body (HTTP only)

	ids      []model.TransitionID   // opQuery
	batch    [][]model.TransitionID // opBatch
	cached   bool                   // opQuery served from the result cache
	repaired bool                   // ... after replaying the shard journals
	shared   bool                   // ... or adopted from an identical in-flight query
	stats    core.Stats             // opQuery executed by the engine (engine executor only)
	items    []*serve.QueryResult   // opBatch (engine executor only)
	count    int                    // opPlan: |omega(R)|
	plan     bool                   // opPlan: the engine recomputed its precompute first
	ckpt     serve.CheckpointResult // opCheckpoint (engine executor only)

	done chan struct{} // closed when the op has completed
}

func (r *rec) latency() time.Duration { return r.end.Sub(r.send) }

// executor sends one op to a layer and fills in its rec, including the
// send and end times taken around the call into the layer.
type executor interface {
	exec(o *op, r *rec) error
}

// env is one booted system: the generated city, its engine, the op
// generator and, for the measured system, the HTTP server in front.
type env struct {
	spec   *spec
	city   *gen.City
	engine *serve.Engine
	gen    generator
	x      executor
	srv    *http.Server
	tr     *http.Transport
	dir    string // checkpoint directory
}

// boot generates the city, indexes it, starts the engine (and the HTTP
// server on a loopback port when http is set) and sends the warm-up
// ops. It is everything setup_s measures.
func boot(s *spec, seed int64, d time.Duration, http bool, dir string) (*env, error) {
	city, err := s.city()
	if err != nil {
		return nil, err
	}
	x, err := index.Build(city.Dataset)
	if err != nil {
		return nil, err
	}
	opts := engineOptions()
	if s.planner {
		opts.Network = city.Graph
		opts.VertexOf = identityVertices(city.Graph)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e := &env{spec: s, city: city, engine: serve.New(x, opts), gen: s.newGen(city, seed, d), dir: dir}
	ckpt := filepath.Join(dir, "chain.arena")
	if http {
		if err := e.listen(ckpt); err != nil {
			e.close()
			return nil, err
		}
	} else {
		e.x = &engineExec{e: e.engine, ckpt: ckpt}
	}
	if ph := drive(sliceSource(e.gen.warmup()), e.x, loop{clients: s.clients}); ph.failed() > 0 {
		e.close()
		return nil, fmt.Errorf("warm-up: %w", ph.firstErr())
	}
	return e, nil
}

func (e *env) listen(ckpt string) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.srv = &http.Server{Handler: server.New(e.engine), ReadHeaderTimeout: 10 * time.Second}
	go e.srv.Serve(ln)
	e.tr = &http.Transport{
		MaxConnsPerHost:     e.spec.clients,
		MaxIdleConnsPerHost: e.spec.clients,
		DisableCompression:  true,
	}
	e.x = &httpExec{client: &http.Client{Transport: e.tr}, base: "http://" + ln.Addr().String(), ckpt: ckpt}
	return nil
}

// close stops the server, its connections and the engine, and removes
// the checkpoint files.
func (e *env) close() {
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		e.srv.Shutdown(ctx)
		cancel()
		e.tr.CloseIdleConnections()
	}
	e.engine.Close()
	os.RemoveAll(e.dir)
}

// --- loop ---

// phase is one timed pass over a stream of ops.
type phase struct {
	start   time.Time
	elapsed time.Duration
	ops     []*op
	recs    []*rec
}

func (p *phase) failed() int {
	n := 0
	for _, r := range p.recs {
		if r.err != nil {
			n++
		}
	}
	return n
}

func (p *phase) firstErr() error {
	for i, r := range p.recs {
		if r.err != nil {
			return fmt.Errorf("%s op %d: %w", p.ops[i].kind, p.ops[i].seq, r.err)
		}
	}
	return nil
}

func sliceSource(ops []*op) func() *op {
	i := 0
	return func() *op {
		if i == len(ops) {
			return nil
		}
		i++
		return ops[i-1]
	}
}

// loop says how drive sends ops.
type loop struct {
	clients int
	// open sends each op at its due time, from the phase start, or as
	// soon as a client is free if it is late. Otherwise each client
	// sends its next op when its previous one completes (a closed loop).
	open bool
	// d stops a closed loop from issuing ops after d; 0 runs until the
	// source is exhausted.
	d time.Duration
	// onDone, if not nil, runs on the client goroutine after each op.
	onDone func(*op, *rec)
}

// drive sends the ops next yields through x and waits for all of them.
func drive(next func() *op, x executor, l loop) *phase {
	p := &phase{start: time.Now()}
	var mu sync.Mutex
	base := -1 // seq of the phase's first op; after-links point back by seq
	take := func() (*op, *rec, chan struct{}) {
		mu.Lock()
		defer mu.Unlock()
		if !l.open && l.d > 0 && time.Since(p.start) >= l.d {
			return nil, nil, nil
		}
		o := next()
		if o == nil {
			return nil, nil, nil
		}
		if base < 0 {
			base = o.seq
		}
		r := &rec{done: make(chan struct{})}
		var wait chan struct{}
		if o.after != nil {
			if j := o.after.seq - base; j >= 0 && j < len(p.recs) && p.ops[j] == o.after {
				wait = p.recs[j].done
			}
		}
		p.ops = append(p.ops, o)
		p.recs = append(p.recs, r)
		return o, r, wait
	}
	var wg sync.WaitGroup
	for c := 0; c < l.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				o, r, wait := take()
				if o == nil {
					return
				}
				if l.open {
					r.due = p.start.Add(o.due)
					waitUntil(r.due)
				}
				if wait != nil {
					<-wait
				}
				r.err = x.exec(o, r)
				if !l.open {
					r.due = r.send
				}
				close(r.done)
				if l.onDone != nil {
					l.onDone(o, r)
				}
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(p.start)
	return p
}

// sleepSlack is how long before an op's due time waitUntil stops
// sleeping. A Go sleep on Linux can overshoot by most of a millisecond
// (timer wake-ups are rounded up), which would show up as generator
// lateness in every open-loop latency.
const sleepSlack = 1200 * time.Microsecond

// waitUntil returns at t: it sleeps until shortly before, then yields
// the processor until t.
func waitUntil(t time.Time) {
	if d := time.Until(t) - sleepSlack; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// --- HTTP executor ---

type httpExec struct {
	client *http.Client
	base   string
	ckpt   string
}

type pointDTO struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

func dto(q []geo.Point) []pointDTO {
	out := make([]pointDTO, len(q))
	for i, p := range q {
		out[i] = pointDTO{p.X, p.Y}
	}
	return out
}

type transitionDTO struct {
	ID model.TransitionID `json:"id"`
	O  pointDTO           `json:"o"`
	D  pointDTO           `json:"d"`
}

// request returns the method, path and JSON body of an op as a client
// of the documented HTTP API would send it.
func (h *httpExec) request(o *op) (string, string, any) {
	switch o.kind {
	case opQuery:
		return http.MethodPost, "/v1/rknnt", map[string]any{"query": dto(o.query), "k": o.k}
	case opBatch:
		qs := make([][]pointDTO, len(o.batch))
		for i, q := range o.batch {
			qs[i] = dto(q)
		}
		return http.MethodPost, "/v1/rknnt/batch", map[string]any{"queries": qs, "k": o.k}
	case opAdd:
		ts := make([]transitionDTO, len(o.adds))
		for i, t := range o.adds {
			ts[i] = transitionDTO{t.ID, pointDTO{t.O.X, t.O.Y}, pointDTO{t.D.X, t.D.Y}}
		}
		return http.MethodPost, "/v1/transitions", map[string]any{"transitions": ts}
	case opRemove:
		return http.MethodDelete, "/v1/transitions", map[string]any{"ids": o.ids}
	case opCheckpoint:
		return http.MethodPost, "/v1/snapshot", map[string]any{"path": h.ckpt, "incremental": true}
	default:
		return http.MethodPost, "/v1/plan", map[string]any{
			"source_stop": o.plan.src, "target_stop": o.plan.dst, "tau": o.plan.tau,
			"k": o.k, "objective": o.plan.objective,
		}
	}
}

func (h *httpExec) exec(o *op, r *rec) error {
	method, path, body := h.request(o)
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(method, h.base+path, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	r.send = time.Now()
	resp, err := h.client.Do(req)
	if err != nil {
		r.end = time.Now()
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.end = time.Now()
	r.bytes = len(data)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return decode(o, r, data)
}

// decode checks a response against its request and keeps the answer.
func decode(o *op, r *rec, data []byte) error {
	switch o.kind {
	case opQuery:
		var v struct {
			Transitions []model.TransitionID `json:"transitions"`
			Cached      bool                 `json:"cached"`
			Repaired    bool                 `json:"repaired"`
			Shared      bool                 `json:"shared"`
		}
		if err := json.Unmarshal(data, &v); err != nil {
			return err
		}
		r.ids, r.cached, r.repaired, r.shared = v.Transitions, v.Cached, v.Repaired, v.Shared
	case opBatch:
		var v struct {
			Results []struct {
				Transitions []model.TransitionID `json:"transitions"`
			} `json:"results"`
		}
		if err := json.Unmarshal(data, &v); err != nil {
			return err
		}
		if len(v.Results) != len(o.batch) {
			return fmt.Errorf("batch of %d answered with %d results", len(o.batch), len(v.Results))
		}
		for _, res := range v.Results {
			r.batch = append(r.batch, res.Transitions)
		}
	case opAdd:
		var v struct {
			Added int `json:"added"`
		}
		if err := json.Unmarshal(data, &v); err != nil {
			return err
		}
		if v.Added != len(o.adds) {
			return fmt.Errorf("added %d of %d transitions: %s", v.Added, len(o.adds), data)
		}
	case opRemove:
		var v struct {
			Removed int `json:"removed"`
		}
		if err := json.Unmarshal(data, &v); err != nil {
			return err
		}
		if v.Removed != len(o.ids) {
			return fmt.Errorf("removed %d of %d transitions: %s", v.Removed, len(o.ids), data)
		}
	case opPlan:
		var v struct {
			Feasible  bool `json:"feasible"`
			Count     int  `json:"count"`
			Truncated bool `json:"truncated"`
		}
		if err := json.Unmarshal(data, &v); err != nil {
			return err
		}
		if !v.Feasible || v.Truncated {
			return fmt.Errorf("plan %d->%d tau %g: feasible %v truncated %v", o.plan.src, o.plan.dst, o.plan.tau, v.Feasible, v.Truncated)
		}
		r.count = v.Count
	}
	return nil
}

// --- engine executor: the same ops one layer down ---

type engineExec struct {
	e    *serve.Engine
	ckpt string

	mu        sync.Mutex
	planEpoch uint64
	planned   bool
}

func (x *engineExec) exec(o *op, r *rec) error {
	qopts := core.Options{K: o.k, Method: core.DivideConquer}
	r.send = time.Now()
	var err error
	switch o.kind {
	case opQuery:
		var res *serve.QueryResult
		if res, err = x.e.RkNNT(o.query, qopts); err == nil {
			r.ids, r.cached, r.repaired, r.shared, r.stats = res.Transitions, res.Cached, res.Repaired, res.Shared, res.Stats
		}
	case opBatch:
		if r.items, err = x.e.RkNNTBatch(o.batch, qopts); err == nil {
			for _, it := range r.items {
				r.batch = append(r.batch, it.Transitions)
			}
		}
	case opAdd:
		err = errors.Join(x.e.AddTransitions(o.adds)...)
	case opRemove:
		var existed []bool
		if existed, err = x.e.RemoveTransitions(o.ids); err == nil {
			for i, ok := range existed {
				if !ok {
					err = fmt.Errorf("transition %d was not indexed", o.ids[i])
				}
			}
		}
	case opCheckpoint:
		r.ckpt, err = x.e.Checkpoint(x.ckpt, true)
	case opPlan:
		// The engine recomputes its precompute when a write moved the
		// epoch since the last plan.
		ep := x.e.Epoch()
		x.mu.Lock()
		r.plan = !x.planned || ep != x.planEpoch
		x.planned, x.planEpoch = true, ep
		x.mu.Unlock()
		r.send = time.Now()
		var res *planner.Result
		var ok bool
		res, ok, err = x.e.Plan(o.plan.src, o.plan.dst, o.plan.tau, o.k, core.DivideConquer, o.plan.options())
		if err == nil && (!ok || res.Truncated) {
			err = fmt.Errorf("plan %d->%d tau %g: feasible %v", o.plan.src, o.plan.dst, o.plan.tau, ok)
		}
		if err == nil {
			r.count = res.Count
		}
	}
	r.end = time.Now()
	return err
}
