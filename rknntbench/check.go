package main

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/planner"
)

// verify is the correctness oracle. It checks the answers the phases
// got from the measured system against the core layer run with another
// method, or against the planner's exhaustive enumeration, on twin
// indexes the benchmark builds itself. It returns how many answers it
// checked and one line per wrong answer.
func verify(e *env, phases []*phase) (checked int, wrong []string, err error) {
	switch g := e.gen.(type) {
	case *coldGen:
		return verifyCold(e, phases)
	case *liveGen:
		return verifyLive(e, g)
	case *planGen:
		return verifyPlan(e, g, phases)
	}
	return 0, nil, fmt.Errorf("no oracle for %s", e.spec.name)
}

// oracleOpts differs from the served method (Divide-Conquer), so a
// wrong answer would have to be wrong the same way in two pipelines.
func oracleOpts(k int) core.Options { return core.Options{K: k, Method: core.FilterRefine} }

// verifyCold checks every sampled singleton, and every member of every
// sampled batch, against a twin index of the (static) city.
func verifyCold(e *env, phases []*phase) (int, []string, error) {
	x, err := index.Build(e.city.Dataset)
	if err != nil {
		return 0, nil, err
	}
	checked := 0
	var wrong []string
	check := func(o *op, q int, got []model.TransitionID) error {
		query := o.query
		if o.kind == opBatch {
			query = o.batch[q]
		}
		want, _, err := core.RkNNT(x, query, oracleOpts(o.k))
		if err != nil {
			return err
		}
		checked++
		if !slices.Equal(got, want) {
			wrong = append(wrong, fmt.Sprintf("%s op %d [%d] k=%d: %d transitions, oracle %d", o.kind, o.seq, q, o.k, len(got), len(want)))
		}
		return nil
	}
	for _, p := range phases {
		for i, o := range p.ops {
			r := p.recs[i]
			if !o.sample || r.err != nil {
				continue
			}
			switch o.kind {
			case opQuery:
				err = check(o, 0, r.ids)
			case opBatch:
				for q := range o.batch {
					if err = check(o, q, r.batch[q]); err != nil {
						break
					}
				}
			}
			if err != nil {
				return checked, wrong, err
			}
		}
	}
	return checked, wrong, nil
}

// verifyLive runs after every op has completed. It asks the measured
// system for every hot query once more and checks each answer against a
// fresh index of the transition set the benchmark's own op log implies:
// the bulk load, plus every add, minus every remove.
func verifyLive(e *env, g *liveGen) (int, []string, error) {
	ids := make([]model.TransitionID, 0, len(g.live))
	for id := range g.live {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	ds := &model.Dataset{Routes: e.city.Dataset.Routes, Transitions: make([]model.Transition, len(ids))}
	for i, id := range ids {
		ds.Transitions[i] = g.live[id]
	}
	x, err := index.Build(ds)
	if err != nil {
		return 0, nil, err
	}
	if n := e.engine.NumTransitions(); n != len(ids) {
		return 0, []string{fmt.Sprintf("engine holds %d transitions, op log implies %d", n, len(ids))}, nil
	}
	var wrong []string
	for i, h := range g.hot {
		o := &op{seq: -1, kind: opQuery, k: h.k, query: h.query}
		r := &rec{}
		if err := e.x.exec(o, r); err != nil {
			wrong = append(wrong, fmt.Sprintf("hot query %d: %v", i, err))
			continue
		}
		want, _, err := core.RkNNT(x, h.query, oracleOpts(h.k))
		if err != nil {
			return i, wrong, err
		}
		if !slices.Equal(r.ids, want) {
			wrong = append(wrong, fmt.Sprintf("hot query %d k=%d (cached %v repaired %v): %d transitions, oracle %d",
				i, h.k, r.cached, r.repaired, len(r.ids), len(want)))
		}
	}
	return len(g.hot), wrong, nil
}

// verifyPlan rebuilds the index as it stood at each sampled write
// generation and checks each sampled plan's count against PrePlan, the
// exhaustive enumeration over the same precomputed sets.
func verifyPlan(e *env, g *planGen, phases []*phase) (int, []string, error) {
	byGen := map[int][]int{} // generation -> indexes into the flattened samples
	var ops []*op
	var recs []*rec
	for _, p := range phases {
		for i, o := range p.ops {
			if o.sample && p.recs[i].err == nil {
				byGen[o.gen] = append(byGen[o.gen], len(ops))
				ops = append(ops, o)
				recs = append(recs, p.recs[i])
			}
		}
	}
	gens := make([]int, 0, len(byGen))
	for gen := range byGen {
		gens = append(gens, gen)
	}
	slices.Sort(gens)
	x, err := index.Build(e.city.Dataset)
	if err != nil {
		return 0, nil, err
	}
	applied, checked := 0, 0
	var wrong []string
	for _, gen := range gens {
		for ; applied < gen; applied++ {
			if err := errors.Join(x.AddTransitionsBatch(g.writes[applied])...); err != nil {
				return checked, wrong, err
			}
		}
		pre, err := planner.Precompute(x, e.city.Graph, planK, core.DivideConquer)
		if err != nil {
			return checked, wrong, err
		}
		for _, i := range byGen[gen] {
			o := ops[i]
			want, ok := pre.PrePlan(graph.VertexID(o.plan.src), graph.VertexID(o.plan.dst), o.plan.tau, o.plan.options())
			checked++
			if !ok {
				wrong = append(wrong, fmt.Sprintf("plan op %d: PrePlan finds no route", o.seq))
			} else if want.Count != recs[i].count {
				wrong = append(wrong, fmt.Sprintf("plan op %d %s %d->%d tau/psi %.1f: count %d, PrePlan %d",
					o.seq, o.plan.objective, o.plan.src, o.plan.dst, o.plan.ratio, recs[i].count, want.Count))
			}
		}
	}
	return checked, wrong, nil
}
