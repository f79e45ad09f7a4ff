package online

import (
	"math"

	"edgerep/internal/graph"
	"edgerep/internal/instrument"
	"edgerep/internal/placement"
	"edgerep/internal/workload"
)

// The reference planner: the original full scan over the compute nodes
// through the delay model, kept only in tests as the oracle the pricing
// tables are compared against (TestFastPathEquivalence,
// BenchmarkFastPathPlan). pickNode also serves as the repair reference:
// with needsCapacity false it skips the capacity test, as repairing an
// expired hold does.

// planSlow plans one arrival with a full node scan per demand.
func (e *Engine) planSlow(qid workload.QueryID) (bool, []placement.Assignment) {
	q := &e.p.Queries[qid]
	tentative := make(map[graph.NodeID]float64)
	tentOpen := make(map[workload.DatasetID]map[graph.NodeID]bool)
	var as []placement.Assignment
	for _, dm := range q.Demands {
		v, _, ok := e.pickNode(qid, dm, true, tentative, tentOpen)
		if !ok {
			return false, nil
		}
		need := e.p.ComputeNeed(qid, dm.Dataset)
		tentative[v] += need
		if !e.sol.HasReplica(dm.Dataset, v) {
			m := tentOpen[dm.Dataset]
			if m == nil {
				m = make(map[graph.NodeID]bool)
				tentOpen[dm.Dataset] = m
			}
			m[v] = true
		}
		as = append(as, placement.Assignment{Query: qid, Dataset: dm.Dataset, Node: v})
	}
	return true, as
}

// pickNode selects the cheapest feasible node for one demand under the
// instantaneous dual prices; fresh reports that serving it there opens a
// replica.
func (e *Engine) pickNode(q workload.QueryID, dm workload.Demand, needsCapacity bool,
	tentative map[graph.NodeID]float64, tentOpen map[workload.DatasetID]map[graph.NodeID]bool) (node graph.NodeID, fresh, ok bool) {

	need := e.p.ComputeNeed(q, dm.Dataset)
	size := e.p.Datasets[dm.Dataset].SizeGB
	deadline := e.p.Queries[q].DeadlineSec
	openCount := e.sol.ReplicaCount(dm.Dataset) + len(tentOpen[dm.Dataset])
	maxU := e.opt.maxUtil()

	var best graph.NodeID = -1
	bestFresh := false
	bestCost := math.Inf(1)
	for _, v := range e.p.Cloud.ComputeNodes() {
		if e.live != nil && e.live.IsDown(v) {
			continue
		}
		delay, ok := e.p.EvalDelay(q, dm.Dataset, v)
		if !ok || delay > deadline {
			continue
		}
		if needsCapacity {
			capGHz := e.p.Cloud.Capacity(v)
			if e.usedGHz(v)+tentative[v]+need > capGHz*maxU+1e-9 {
				continue
			}
		}
		has := e.sol.HasReplica(dm.Dataset, v) || tentOpen[dm.Dataset][v]
		rep := 0.0
		if !has {
			if openCount >= e.p.MaxReplicas {
				continue
			}
			if e.preferredSites == nil || !e.preferredSites[dm.Dataset][v] {
				rep = 0.25 * size * float64(openCount+1) / float64(e.p.MaxReplicas)
			}
		}
		cost := need*e.theta(v) + e.opt.delayWeight()*size*(delay/deadline) + rep
		if cost < bestCost {
			best, bestFresh, bestCost = v, !has, cost
		}
	}
	return best, bestFresh, best != -1
}

// classifySlow attributes a rejection with the generic scan in
// internal/placement over the engine's live state — the reference
// classifyFast's tables must reproduce.
func (e *Engine) classifySlow(q workload.QueryID) (instrument.Reason, workload.DatasetID, graph.NodeID) {
	maxU := e.opt.maxUtil()
	var down func(graph.NodeID) bool
	if e.live != nil {
		down = e.live.IsDown
	}
	return placement.ClassifyRejection(e.p, q, placement.RejectionState{
		Avail: func(v graph.NodeID) float64 {
			return e.p.Cloud.Capacity(v)*maxU - e.usedGHz(v)
		},
		HasReplica:   e.sol.HasReplica,
		ReplicaCount: e.sol.ReplicaCount,
		Down:         down,
	})
}
