package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/planner"
)

// Workload parameters. They are constants so that every run of a
// workload, on every commit, offers the same load; each is printed in
// the run's provenance line.
const (
	cityScale = 4 // LA-like city at 1/4 of the paper's cardinalities

	qLen      = 5   // |Q|, the paper's default query length
	qInterval = 3.0 // km between query points, the paper's default

	coldBatch       = 16 // queries per /v1/rknnt/batch, sent once per coldBatch singletons
	coldSampleEvery = 8  // every 8th singleton and every 8th batch is checked by the oracle
	coldWarmQueries = 32
	// The cold queries are jittered copies of two fixed pools, like the
	// city: coldSingles singletons, one per route, and coldBatches
	// batches. A 30 s run goes through each pool about four times.
	// Queries drawn afresh from the seed made the median query cost of a
	// run differ by 7.5% (quartile distance over median, ten seeds, same
	// host and time) before any timing noise.
	coldSingles  = 300
	coldBatches  = 24
	coldPoolSeed = 4244
	coldJitter   = 0.005 // km

	// warmSeed draws the warm-up ops of every workload. They are fixed,
	// like the cities, so that setup_s measures the same work whatever
	// the seed.
	warmSeed = 4243

	// liveRate is the open loop's offered rate, about 30% of the
	// closed-loop saturation of the mix with 2 clients on the 2-CPU
	// reference host (~1300 ops/s). At half of saturation, cache
	// recomputes stalling behind write commits queued a tenth of the
	// reads for 15-35 ms.
	liveRate    = 400.0
	liveHot     = 128 // hot-set size; far below the 4096-entry result cache
	liveHotSeed = 4242
	// liveZipfS skews reads over the hot set, P(rank k) ~ (k+1)^-s: the
	// hottest query gets 11% of the reads and the coldest one still
	// comes back about every 1.5 s, within the reach of the shard
	// journals, so stale hits are mostly repaired rather than recomputed.
	liveZipfS     = 0.8
	liveReadShare = 0.75
	liveWriteSize = 4                       // transitions per add or remove request
	liveRecentLag = 64                      // a recent add is removable this many ops after it was issued
	liveCkptEvery = 2 * time.Second         // incremental POST /v1/snapshot period
	newIDBase     = model.TransitionID(1e7) // added transitions never reuse an ID

	planK          = 10  // the k the paper fixes for route planning
	planPerWrite   = 128 // plans between two transition writes
	planWriteSize  = 8
	planMinSep     = 5.0 // km, straight-line separation of an OD pair
	planMaxSep     = 7.0
	planOracleTau  = 1.4 // plans up to this tau/psi(se) are checked against PrePlan
	planOracleGens = 4   // write generations the plan oracle rebuilds
	planOracleStep = 8   // every 8th generation is checked
	// tauSlack keeps tau = psi(se) feasible: the all-pairs matrix and the
	// shortest path can differ in the last bit.
	tauSlack = 1e-9
)

var (
	queryKs   = []int{5, 10, 15}
	tauRatios = []float64{1.0, 1.2, 1.4, 1.6, 1.8, 2.0} // Table 4's tau/psi(se) sweep
)

type opKind uint8

const (
	opQuery opKind = iota
	opBatch
	opAdd
	opRemove
	opCheckpoint
	opPlan
)

var opNames = [...]string{"rknnt", "batch", "add", "remove", "checkpoint", "plan"}

func (k opKind) String() string { return opNames[k] }

// op is one request of a workload. Ops are generated from the seed
// before they are sent, so the same seed gives the same op sequence.
type op struct {
	seq    int
	kind   opKind
	k      int
	query  []geo.Point
	batch  [][]geo.Point
	adds   []model.Transition
	ids    []model.TransitionID
	plan   planArgs
	due    time.Duration // open loop: when the op is due, from the phase start
	after  *op           // an earlier op that must complete before this one is sent
	sample bool          // checked by the oracle
	cycle  int           // cold-query: the cycle of its pool the op belongs to
	gen    int           // plan-live: transition writes issued before this op
	// fresh marks a plan-live plan sent right after a write: it pays
	// the planner precompute the write made stale.
	fresh bool
}

type planArgs struct {
	src, dst  model.StopID
	ratio     float64
	tau       float64
	objective string // "max" or "min"
}

func (a planArgs) options() planner.Options {
	if a.objective == "min" {
		return planner.Options{Objective: planner.Minimize}
	}
	return planner.Options{Objective: planner.Maximize}
}

// generator yields a workload's ops in a deterministic order.
type generator interface {
	// warmup returns the ops sent during set-up, before measuring.
	warmup() []*op
	// next returns the next measured op, or nil when the schedule is
	// exhausted (open loops only; closed loops run until the deadline).
	next() *op
}

// spec describes one workload.
type spec struct {
	name    string
	clients int
	open    bool // open loop at liveRate; otherwise a closed loop
	planner bool // planner city with the bus network attached
	// read selects the workload's answer requests, aux its second
	// request class (see endToEnd).
	read, aux func(*op) bool
	newGen    func(c *gen.City, seed int64, d time.Duration) generator
}

var specs = map[string]*spec{
	// cold-query runs one client. With two, a singleton took about half
	// as long beside another singleton as beside a batch (which spreads
	// over both cores), a batch was in flight half the time, and the
	// singleton median fell between the two cases: it swung by a quarter
	// from run to run.
	"cold-query": {
		name: "cold-query", clients: 1, read: isKind(opQuery), aux: isKind(opBatch),
		newGen: func(c *gen.City, seed int64, _ time.Duration) generator { return newColdGen(c, seed) },
	},
	"live-mix": {
		name: "live-mix", clients: 2, open: true, read: isKind(opQuery), aux: isKind(opAdd, opRemove),
		newGen: func(c *gen.City, seed int64, d time.Duration) generator { return newLiveGen(c, seed, d) },
	},
	"plan-live": {
		name: "plan-live", clients: 1, planner: true, read: isKind(opPlan),
		aux:    func(o *op) bool { return o.fresh },
		newGen: func(c *gen.City, seed int64, _ time.Duration) generator { return newPlanGen(c, seed) },
	},
}

func isKind(kinds ...opKind) func(*op) bool {
	return func(o *op) bool { return slices.Contains(kinds, o.kind) }
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"cold-query", "live-mix", "plan-live"}

// city generates the workload's city. It is fixed: the seed drives the
// ops, not the data set, so runs with different seeds stay comparable.
func (s *spec) city() (*gen.City, error) {
	if s.planner {
		// exp's compact planner city (121 vertices): the LA network is
		// too large for a per-write planner precompute.
		return exp.NewSuite(exp.Config{Scale: cityScale}).Planner().City, nil
	}
	return gen.Generate(gen.LA(cityScale))
}

// params lists the workload's parameters for the provenance line.
func (s *spec) params() map[string]any {
	p := map[string]any{"clients": s.clients}
	if !s.planner {
		p["k"], p["q_len"], p["q_interval_km"] = queryKs, qLen, qInterval
	}
	switch s.name {
	case "cold-query":
		p["city"] = fmt.Sprintf("LA/%d", cityScale)
		p["loop"] = "closed"
		p["batch_size"] = coldBatch
		p["pools"] = fmt.Sprintf("%d singletons, %d batches, pool seed %d, jitter %g km", coldSingles, coldBatches, coldPoolSeed, coldJitter)
		p["mix"] = fmt.Sprintf("%d singleton /v1/rknnt then one /v1/rknnt/batch of %d", coldBatch, coldBatch)
	case "live-mix":
		p["city"] = fmt.Sprintf("LA/%d", cityScale)
		p["loop"] = "open"
		p["rate_per_s"] = liveRate
		p["hot_set"] = liveHot
		p["zipf_s"] = liveZipfS
		p["mix"] = fmt.Sprintf("%.0f%% /v1/rknnt, rest half adds half removes of %d transitions", liveReadShare*100, liveWriteSize)
		p["checkpoint_every_s"] = liveCkptEvery.Seconds()
	case "plan-live":
		p["city"] = "exp planner city"
		p["loop"] = "closed"
		p["k"] = planK
		p["tau_ratios"] = tauRatios
		p["mix"] = fmt.Sprintf("%d /v1/plan (max and min) then one add of %d transitions", planPerWrite, planWriteSize)
		p["aux"] = "the first plan after each add, which pays the planner precompute"
	}
	return p
}

// randomTransition draws a passenger trip between two jittered stops.
func randomTransition(c *gen.City, rng *rand.Rand, id model.TransitionID) model.Transition {
	near := func() geo.Point {
		p := c.Stops[rng.Intn(len(c.Stops))]
		return geo.Pt(p.X+rng.NormFloat64(), p.Y+rng.NormFloat64())
	}
	return model.Transition{ID: id, O: near(), D: near()}
}

// --- cold-query ---

// routeDrawer draws queries the way gen.City.Query does (a uniform point
// of a route, then |Q|-1 steps of I km with a wandering heading), except
// that routes are taken in rounds, each round a fresh permutation of all
// routes, so that every route starts as many queries.
type routeDrawer struct {
	city   *gen.City
	rng    *rand.Rand
	routes []int // routes left in the current round, in drawing order
}

func (g *routeDrawer) query() []geo.Point {
	if len(g.routes) == 0 {
		g.routes = g.rng.Perm(len(g.city.Dataset.Routes))
	}
	route := &g.city.Dataset.Routes[g.routes[0]]
	g.routes = g.routes[1:]
	p := route.Pts[g.rng.Intn(len(route.Pts))]
	q := []geo.Point{p}
	heading := g.rng.Float64() * 2 * math.Pi
	for len(q) < qLen {
		heading += (g.rng.Float64() - 0.5) * math.Pi / 2
		p = geo.Pt(p.X+qInterval*math.Cos(heading), p.Y+qInterval*math.Sin(heading))
		q = append(q, p)
	}
	return q
}

// coldRequest is one request of the cold-query pools: a singleton (one
// query) or a batch (coldBatch queries), with its k.
type coldRequest struct {
	k       int
	queries [][]geo.Point
}

// coldCycle hands out the requests of a fixed pool in cycles, each
// cycle a fresh permutation of the pool drawn from the seed.
type coldCycle struct {
	pool   []coldRequest
	order  []int // pool entries left in the current cycle
	handed int   // requests handed out
}

// next returns the next request and the cycle it belongs to.
func (c *coldCycle) next(rng *rand.Rand) (coldRequest, int) {
	if len(c.order) == 0 {
		c.order = rng.Perm(len(c.pool))
	}
	r := c.pool[c.order[0]]
	c.order = c.order[1:]
	c.handed++
	return r, (c.handed - 1) / len(c.pool)
}

// whole reports how many cycles of the pool were handed out in full.
func (c *coldCycle) whole() int { return c.handed / len(c.pool) }

// coldPools draws the fixed singleton and batch pools: every singleton
// pool entry starts on its own route, and k cycles through queryKs in
// both pools.
func coldPools(c *gen.City) (singles, batches []coldRequest) {
	d := &routeDrawer{city: c, rng: rand.New(rand.NewSource(coldPoolSeed))}
	for i := 0; i < coldSingles; i++ {
		singles = append(singles, coldRequest{queryKs[i%len(queryKs)], [][]geo.Point{d.query()}})
	}
	for i := 0; i < coldBatches; i++ {
		b := coldRequest{k: queryKs[i%len(queryKs)]}
		for j := 0; j < coldBatch; j++ {
			b.queries = append(b.queries, d.query())
		}
		batches = append(batches, b)
	}
	return singles, batches
}

type coldGen struct {
	city                *gen.City
	rng                 *rand.Rand
	seq                 int
	singles, batchPool  coldCycle
	singletons, batches int // singleton and batch ops issued
}

func newColdGen(c *gen.City, seed int64) *coldGen {
	singles, batches := coldPools(c)
	return &coldGen{city: c, rng: rand.New(rand.NewSource(seed)), singles: coldCycle{pool: singles}, batchPool: coldCycle{pool: batches}}
}

// jittered returns q moved as a whole by up to coldJitter km along each
// axis, so that no query repeats one the result cache holds.
func (g *coldGen) jittered(q []geo.Point) []geo.Point {
	dx := (2*g.rng.Float64() - 1) * coldJitter
	dy := (2*g.rng.Float64() - 1) * coldJitter
	out := make([]geo.Point, len(q))
	for i, p := range q {
		out[i] = geo.Pt(p.X+dx, p.Y+dy)
	}
	return out
}

// wholeCycle reports whether o belongs to a cycle of its pool that the
// run sent in full, or the run sent no full cycle of that pool. Latency
// medians are taken over these ops only, so that every run takes them
// over the same multiset of requests: a median over the last, partial
// cycle too moved with the seed by up to a tenth on batches, whose cost
// spans a factor of 20 across the pool.
func (g *coldGen) wholeCycle(o *op) bool {
	c := &g.singles
	if o.kind == opBatch {
		c = &g.batchPool
	}
	return o.cycle < c.whole() || c.whole() == 0
}

// warmup sends queries and batches drawn from a fixed seed, so every
// run's set-up does the same work.
func (g *coldGen) warmup() []*op {
	warm := &routeDrawer{city: g.city, rng: rand.New(rand.NewSource(warmSeed))}
	ops := make([]*op, 0, coldWarmQueries+2)
	for i := 0; i < coldWarmQueries; i++ {
		ops = append(ops, &op{seq: -1, kind: opQuery, k: queryKs[i%len(queryKs)], query: warm.query()})
	}
	for i := 0; i < 2; i++ {
		b := &op{seq: -1, kind: opBatch, k: queryKs[i]}
		for j := 0; j < coldBatch; j++ {
			b.batch = append(b.batch, warm.query())
		}
		ops = append(ops, b)
	}
	return ops
}

// next returns coldBatch singletons, then one batch of coldBatch
// queries, and so on, each a jittered copy of the next request of its
// pool's cycle.
func (g *coldGen) next() *op {
	o := &op{seq: g.seq}
	if g.seq%(coldBatch+1) == coldBatch {
		r, cycle := g.batchPool.next(g.rng)
		o.kind, o.k, o.cycle = opBatch, r.k, cycle
		for _, q := range r.queries {
			o.batch = append(o.batch, g.jittered(q))
		}
		o.sample = g.batches%coldSampleEvery == 0
		g.batches++
	} else {
		r, cycle := g.singles.next(g.rng)
		o.kind, o.k, o.query, o.cycle = opQuery, r.k, g.jittered(r.queries[0]), cycle
		o.sample = g.singletons%coldSampleEvery == 0
		g.singletons++
	}
	g.seq++
	return o
}

// --- live-mix ---

type hotQuery struct {
	query []geo.Point
	k     int
}

type liveGen struct {
	city    *gen.City
	rng     *rand.Rand
	zipf    []float64 // cumulative weights of the hot-set ranks
	hot     []hotQuery
	last    int // ops with seq < last are due within the run
	ckptOps int // ops between two checkpoints
	seq     int

	bulk   []model.TransitionID // bulk-loaded transitions not yet removed
	recent []*op                // add ops whose transitions are still indexed, oldest first
	live   map[model.TransitionID]model.Transition
	nextID model.TransitionID
}

func newLiveGen(c *gen.City, seed int64, d time.Duration) *liveGen {
	rng := rand.New(rand.NewSource(seed))
	g := &liveGen{
		city:    c,
		rng:     rng,
		zipf:    zipfCDF(liveHot, liveZipfS),
		last:    int(d.Seconds() * liveRate),
		ckptOps: int(liveCkptEvery.Seconds() * liveRate),
		live:    make(map[model.TransitionID]model.Transition, len(c.Dataset.Transitions)),
		nextID:  newIDBase,
	}
	// The hot set is part of the workload, like the city: with half the
	// reads on its 4 hottest queries, drawing it from the seed would make
	// every figure depend on which 4 queries the seed picked.
	hot := rand.New(rand.NewSource(liveHotSeed))
	for i := 0; i < liveHot; i++ {
		g.hot = append(g.hot, hotQuery{c.Query(hot, qLen, qInterval), queryKs[hot.Intn(len(queryKs))]})
	}
	for _, t := range c.Dataset.Transitions {
		g.bulk = append(g.bulk, t.ID)
		g.live[t.ID] = t
	}
	return g
}

// zipfCDF returns the cumulative weights of ranks 0..n-1 with weight
// (k+1)^-s. (math/rand's Zipf needs s > 1.)
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	return cdf
}

// warmup answers every hot query once, so the cache holds the hot set.
func (g *liveGen) warmup() []*op {
	ops := make([]*op, len(g.hot))
	for i, h := range g.hot {
		ops[i] = &op{seq: -1, kind: opQuery, k: h.k, query: h.query}
	}
	return ops
}

func dueOf(seq int) time.Duration {
	return time.Duration(float64(seq) / liveRate * float64(time.Second))
}

// until returns a source of the ops due before limit.
func (g *liveGen) until(limit time.Duration) func() *op {
	return func() *op {
		if dueOf(g.seq) >= limit {
			return nil
		}
		return g.next()
	}
}

func (g *liveGen) next() *op {
	if g.seq >= g.last {
		return nil
	}
	o := &op{seq: g.seq, due: dueOf(g.seq)}
	g.seq++
	if o.seq%g.ckptOps == g.ckptOps-1 {
		o.kind = opCheckpoint
		return o
	}
	r := g.rng.Float64()
	switch {
	case r < liveReadShare:
		h := g.hot[sort.SearchFloat64s(g.zipf, g.rng.Float64()*g.zipf[len(g.zipf)-1])]
		o.kind, o.k, o.query = opQuery, h.k, h.query
	case r < liveReadShare+(1-liveReadShare)/2:
		o.kind = opAdd
		for i := 0; i < liveWriteSize; i++ {
			t := randomTransition(g.city, g.rng, g.nextID)
			g.nextID++
			o.adds = append(o.adds, t)
			g.live[t.ID] = t
		}
		g.recent = append(g.recent, o)
	default:
		o.kind = opRemove
		// Half the removes take the oldest recent add whole (passengers
		// who arrived together leave together); the rest take bulk-loaded
		// transitions at random.
		if g.rng.Intn(2) == 0 && len(g.recent) > 0 && g.recent[0].seq <= o.seq-liveRecentLag {
			add := g.recent[0]
			g.recent = g.recent[1:]
			o.after = add
			for _, t := range add.adds {
				o.ids = append(o.ids, t.ID)
			}
		} else {
			for i := 0; i < liveWriteSize; i++ {
				j := g.rng.Intn(len(g.bulk))
				o.ids = append(o.ids, g.bulk[j])
				g.bulk[j] = g.bulk[len(g.bulk)-1]
				g.bulk = g.bulk[:len(g.bulk)-1]
			}
		}
		for _, id := range o.ids {
			delete(g.live, id)
		}
	}
	return o
}

// --- plan-live ---

type planGen struct {
	city   *gen.City
	rng    *rand.Rand
	seq    int
	gen    int
	nextID model.TransitionID
	writes [][]model.Transition // writes[g] is the add issued after generation g
}

func newPlanGen(c *gen.City, seed int64) *planGen {
	return &planGen{city: c, rng: rand.New(rand.NewSource(seed)), nextID: newIDBase}
}

func (g *planGen) planOp(rng *rand.Rand) *op {
	for {
		s, e, ok := g.city.ODPair(rng, planMinSep, planMaxSep)
		if !ok {
			continue
		}
		_, sd, ok := g.city.Graph.ShortestPath(s, e)
		if !ok {
			continue
		}
		ratio := tauRatios[rng.Intn(len(tauRatios))]
		obj := "max"
		if rng.Intn(2) == 1 {
			obj = "min"
		}
		return &op{kind: opPlan, k: planK, gen: g.gen, plan: planArgs{
			src: model.StopID(s), dst: model.StopID(e), ratio: ratio, tau: sd*ratio + tauSlack, objective: obj,
		}}
	}
}

// warmup sends one plan, drawn from a fixed seed, which pays the first
// precompute.
func (g *planGen) warmup() []*op {
	o := g.planOp(rand.New(rand.NewSource(warmSeed)))
	o.seq = -1
	return []*op{o}
}

func (g *planGen) next() *op {
	var o *op
	if g.seq%(planPerWrite+1) == planPerWrite {
		o = &op{kind: opAdd}
		for i := 0; i < planWriteSize; i++ {
			o.adds = append(o.adds, randomTransition(g.city, g.rng, g.nextID))
			g.nextID++
		}
		g.writes = append(g.writes, o.adds)
		o.gen = g.gen
		g.gen++
	} else {
		o = g.planOp(g.rng)
		o.fresh = g.gen > 0 && g.seq%(planPerWrite+1) == 0
		o.sample = o.plan.ratio <= planOracleTau && g.gen%planOracleStep == 0 && g.gen/planOracleStep < planOracleGens
	}
	o.seq = g.seq
	g.seq++
	return o
}

// identityVertices maps stop i to vertex i, as in every generated city.
func identityVertices(g *graph.Graph) map[model.StopID]graph.VertexID {
	m := make(map[model.StopID]graph.VertexID, g.NumVertices())
	for i := 0; i < g.NumVertices(); i++ {
		m[model.StopID(i)] = graph.VertexID(i)
	}
	return m
}
