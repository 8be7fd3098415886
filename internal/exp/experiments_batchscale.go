package exp

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/serve"
)

// defaultBatchSweep is the RkNNTBatch sizes the batchscale experiment
// sweeps. The acceptance comparison point is batch=64 vs sequential.
var defaultBatchSweep = []int{8, 16, 32, 64}

// batchScalePool is the query pool size; against a 32-entry result
// cache, a cyclic sweep over it evicts every entry before reuse, so
// virtually every query executes the full pipeline.
const batchScalePool = 256

// BatchScale measures batched execution: the same cyclic query pool
// answered one engine RkNNT at a time vs through Engine.RkNNTBatch at
// growing batch sizes. A batch runs its misses through core.RkNNT on a
// GOMAXPROCS-wide worker pool under one snapshot, so its gain is the
// cross-query parallelism a multi-core host adds; on one core it can
// only save per-request overhead.
func (s *Suite) BatchScale() (*Table, error) {
	t := &Table{
		ID:    "batchscale",
		Title: "Batched execution: sequential vs RkNNTBatch across batch sizes",
		Header: []string{"mode", "batch", "gomaxprocs", "queries_s", "query_us",
			"executed", "speedup"},
		Notes: []string{
			fmt.Sprintf("host: %d cpus; rows inherit the process GOMAXPROCS", runtime.NumCPU()),
			"each row answers the same cyclic 256-query pool (K=8, DivideConquer) on a fresh engine with a 32-entry cache, so virtually every query executes",
			"batch rows submit the pool in RkNNTBatch chunks: one snapshot per chunk, misses answered by core.RkNNT on a GOMAXPROCS-wide worker pool",
			"speedup = queries_s relative to the sequential row",
			"the acceptance bar compares batch=64 vs sequential on a >=4-vCPU runner (>=2x), where the pool runs the per-query serial filter phase of different queries in parallel; a single-core host has no parallelism to win, so ratios near 1x are expected there",
		},
	}
	var base float64
	for _, batch := range append([]int{1}, defaultBatchSweep...) {
		r, err := s.batchScaleRow(batch)
		if err != nil {
			return nil, err
		}
		mode := "batch"
		if batch == 1 {
			mode = "sequential"
			base = r.queriesPerSec
		}
		t.AddRow(mode, batch, runtime.GOMAXPROCS(0), int(r.queriesPerSec),
			r.queryMicros, r.executed, r.queriesPerSec/base)
	}
	return t, nil
}

type batchScaleResult struct {
	queriesPerSec float64
	queryMicros   float64
	executed      uint64 // queries that ran the core pipeline (cache misses)
}

// batchScaleRow answers the workload with the given batch size (1 =
// sequential engine RkNNT calls) on a fresh engine, so no cache or
// tuner state carries between rows.
func (s *Suite) batchScaleRow(batch int) (batchScaleResult, error) {
	city := s.LA().City
	x, err := index.Build(city.Dataset)
	if err != nil {
		return batchScaleResult{}, err
	}
	e := serve.New(x, serve.Options{CacheSize: 32})
	defer e.Close()

	rng := s.rng()
	pool := make([][]geo.Point, batchScalePool)
	for i := range pool {
		pool[i] = city.Query(rng, 4, 3)
	}
	qopts := core.Options{K: 8, Method: core.DivideConquer}
	total := 128 * s.Cfg.Queries
	if total < len(pool) {
		total = len(pool)
	}

	start := time.Now()
	if batch <= 1 {
		for i := 0; i < total; i++ {
			if _, err := e.RkNNT(pool[i%len(pool)], qopts); err != nil {
				return batchScaleResult{}, err
			}
		}
	} else {
		chunk := make([][]geo.Point, 0, batch)
		for i := 0; i < total; i += batch {
			chunk = chunk[:0]
			for j := i; j < i+batch && j < total; j++ {
				chunk = append(chunk, pool[j%len(pool)])
			}
			if _, err := e.RkNNTBatch(chunk, qopts); err != nil {
				return batchScaleResult{}, err
			}
		}
	}
	elapsed := time.Since(start)
	return batchScaleResult{
		queriesPerSec: float64(total) / elapsed.Seconds(),
		queryMicros:   elapsed.Seconds() * 1e6 / float64(total),
		executed:      e.EngineStats().QueriesRun,
	}, nil
}
