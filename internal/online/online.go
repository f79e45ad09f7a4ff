// Package online extends the paper's proactive (offline) placement to the
// dynamic setting its §2.4 gestures at: queries arrive over time, hold their
// computing allocation only while executing, and must be admitted or
// rejected irrevocably on arrival. Replicas are still placed proactively —
// either by the offline coverage phase over a forecast workload, or lazily
// up to the K bound — and the admission decision reuses the same dual
// prices as internal/core, evaluated against the *instantaneous* load.
//
// This is the classic online primal-dual packing setting, where the
// exponential capacity price θ(u) = (c^u − 1)/(c − 1) with c = 1 + T (T =
// expected number of arrivals) yields the known O(log T) competitiveness
// for packing; the engine exposes the price base so the ablation bench can
// sweep it.
package online

import (
	"container/heap"
	"fmt"
	"math"

	"edgerep/internal/cluster"
	"edgerep/internal/consistency"
	"edgerep/internal/graph"
	"edgerep/internal/instrument"
	"edgerep/internal/journal"
	"edgerep/internal/placement"
	"edgerep/internal/workload"
)

// Arrival is one query arriving at a point in time. HoldSec is how long its
// allocation is held (the evaluation duration); zero means hold forever
// (degenerates to the offline capacity model).
type Arrival struct {
	Query   workload.QueryID
	AtSec   float64
	HoldSec float64
}

// Options tunes the online engine.
type Options struct {
	// PriceBase is c in the capacity price; zero means 1 + number of
	// arrivals.
	PriceBase float64
	// DelayPriceWeight scales the deadline-slack price; zero means 0.15.
	DelayPriceWeight float64
	// Forecast, when non-nil, is the workload used to pre-place preferred
	// replica sites (the proactive phase run on a forecast instead of the
	// actual arrivals). Nil means fully lazy replication.
	Forecast []workload.Query
	// MaxUtilization rejects any admission that would push a node above
	// this fraction of capacity; zero means 1.0 (no headroom reserved).
	MaxUtilization float64
	// NoRepair disables failover repair: a crash evicts every query the
	// node was serving instead of re-replicating. The ablation baseline
	// the ext-chaos experiment compares repair against.
	NoRepair bool
	// Journal, when non-nil, makes the engine durable: every Offer, Crash,
	// and Restore is appended to the WAL with its committed outcome before
	// the call returns (durable.go; recover with online.Recover). On a
	// journal that defers syncs, the records are durable once Commit
	// returns.
	Journal *journal.Journal
	// SnapshotEvery takes a full EngineState snapshot after every Nth
	// journaled record, bounding replay length; zero means WAL-only.
	SnapshotEvery int
	// NoFastPath disables the precomputed admission tables (fastpath.go)
	// and plans every offer with the original scan over the delay model.
	// The zero value — fast path on — is the production configuration; the
	// slow path exists as the byte-identity oracle the equivalence tests
	// and the -fastpath=false escape hatch exercise.
	NoFastPath bool
}

func (o Options) priceBase(n int) float64 {
	if o.PriceBase > 0 {
		return o.PriceBase
	}
	return 1 + float64(n)
}

func (o Options) delayWeight() float64 {
	if o.DelayPriceWeight > 0 {
		return o.DelayPriceWeight
	}
	return 0.15
}

func (o Options) maxUtil() float64 {
	if o.MaxUtilization > 0 {
		return o.MaxUtilization
	}
	return 1.0
}

// Decision records the outcome for one arrival.
type Decision struct {
	Query    workload.QueryID
	Admitted bool
	// Assignments is per-demand, set when admitted.
	Assignments []placement.Assignment
}

// Result summarizes an online run.
type Result struct {
	Decisions []Decision
	// VolumeAdmitted is the objective achieved online.
	VolumeAdmitted float64
	Admitted       int
	Rejected       int
	// PeakUtilization is the highest instantaneous node utilization seen.
	PeakUtilization float64
	// Evicted counts previously admitted queries given up after a node
	// crash left them unservable (failover.go); their volume has already
	// been subtracted from VolumeAdmitted.
	Evicted int
}

// release is a scheduled capacity release. Query and dataset identify the
// allocation's owner so failover can move or drop in-flight holds when the
// node crashes.
type release struct {
	at      float64
	node    graph.NodeID
	amt     float64
	query   workload.QueryID
	dataset workload.DatasetID
}

type releaseHeap []release

func (h releaseHeap) Len() int            { return len(h) }
func (h releaseHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h releaseHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *releaseHeap) Push(x interface{}) { *h = append(*h, x.(release)) }
func (h *releaseHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// Engine processes arrivals one at a time.
type Engine struct {
	p    *placement.Problem
	opt  Options
	base float64

	// used is the sharded atomic capacity ledger (capshard.go); all
	// mutations go through setUsed/addUsed so the θ cache stays coherent.
	used     *capLedger
	releases releaseHeap
	now      float64

	// thetaVal/thetaFresh cache θ(v) between load changes: theta is the
	// only math.Pow on the admission hot path, and one offer can price the
	// same node once per demand.
	thetaVal   []float64
	thetaFresh []bool

	// fast holds the precomputed admission tables (fastpath.go); nil when
	// Options.NoFastPath selects the original planning scan.
	fast *fastPath

	sol  *placement.Solution
	res  Result
	peak float64

	// preferredSites are the forecast-derived proactive sites; replicas at
	// a preferred site open at zero µ price.
	preferredSites map[workload.DatasetID]map[graph.NodeID]bool

	// traceRun identifies this engine's span in emitted trace events
	// (trace.go).
	traceRun int64

	// live tracks crashed nodes (failover.go); nil until the first crash
	// or AttachLiveness, so fault-free runs take zero extra branches per
	// candidate beyond one nil check.
	live *cluster.Liveness
	// cons, when attached, accounts re-replication traffic for repairs.
	cons *consistency.Manager

	// jn and snapEvery make the engine durable (durable.go); replaying is
	// set while Recover drives the input paths from the journal so they do
	// not re-journal themselves.
	jn        *journal.Journal
	snapEvery int
	replaying bool

	// stages, when attached, is the serving layer's in-progress latency
	// timeline for the arrival currently being offered (the epoch loop is
	// single-writer, so a plain pointer suffices); emitAdmit/emitReject copy
	// the prefix known at decision time into the trace event's StageNs while
	// attribution is active. lastJournalNs/lastSyncNs record the duration of
	// the last Offer's journal append and its fsync share, measured via the
	// sanctioned monotonic clock only while attribution is active.
	stages        *instrument.StageTimeline
	lastJournalNs int64
	lastSyncNs    int64
	// lastLookupNs records the last Offer's epoch-fence duration (the
	// fast-path staleness check plus any mirror refresh), zero unless
	// attribution was active.
	lastLookupNs int64
}

// NewEngine builds an online engine over a placement problem. The problem's
// query list is the universe arrivals refer into; replica bookkeeping and
// the K bound come from the problem.
func NewEngine(p *placement.Problem, expectedArrivals int, opt Options) *Engine {
	top := p.Cloud.Topology()
	e := &Engine{
		p:          p,
		opt:        opt,
		base:       opt.priceBase(expectedArrivals),
		used:       newCapLedger(top),
		thetaVal:   make([]float64, top.Graph.NumNodes()),
		thetaFresh: make([]bool, top.Graph.NumNodes()),
		sol:        placement.NewSolution(),
		jn:         opt.Journal,
		snapEvery:  opt.SnapshotEvery,
	}
	if opt.Forecast != nil {
		e.prePlace(opt.Forecast)
	}
	// Tables are built after prePlace: the preferred-site set they bake in
	// is frozen from here on.
	if !opt.NoFastPath {
		e.fast = newFastPath(e)
	}
	e.beginTrace()
	return e
}

// prePlace derives preferred sites from the forecast with the same
// capacity-capped volume-weighted maximum-coverage rule as the offline
// proactive phase (internal/core); replicas still materialize lazily.
func (e *Engine) prePlace(forecast []workload.Query) {
	type demandRef struct {
		qi, di int
		need   float64
	}
	perDataset := make(map[workload.DatasetID][]demandRef)
	for qi := range forecast {
		q := &forecast[qi]
		for di, dm := range q.Demands {
			need := e.p.Datasets[dm.Dataset].SizeGB * q.ComputePerGB
			perDataset[dm.Dataset] = append(perDataset[dm.Dataset], demandRef{qi, di, need})
		}
	}
	feasible := func(d demandRef, ds workload.DatasetID, v graph.NodeID) bool {
		q := &forecast[d.qi]
		delay, ok := e.evalDelayForecast(q, q.Demands[d.di], v)
		return ok && delay <= q.DeadlineSec
	}
	claimed := make(map[graph.NodeID]float64)
	e.preferredSites = make(map[workload.DatasetID]map[graph.NodeID]bool)
	for n := range e.p.Datasets {
		ds := workload.DatasetID(n)
		demands := perDataset[ds]
		if len(demands) == 0 {
			continue
		}
		covered := make([]bool, len(demands))
		for slot := 0; slot < e.p.MaxReplicas; slot++ {
			var bestNode graph.NodeID = -1
			bestEff := 0.0
			for _, v := range e.p.Cloud.ComputeNodes() {
				if e.preferredSites[ds][v] {
					continue
				}
				cover := 0.0
				for i, d := range demands {
					if !covered[i] && feasible(d, ds, v) {
						cover += d.need
					}
				}
				if cover <= 0 {
					continue
				}
				eff := math.Min(cover, e.p.Cloud.Capacity(v)-claimed[v])
				if eff > bestEff {
					bestNode, bestEff = v, eff
				}
			}
			if bestNode == -1 || bestEff <= 0 {
				break
			}
			if e.preferredSites[ds] == nil {
				e.preferredSites[ds] = make(map[graph.NodeID]bool)
			}
			e.preferredSites[ds][bestNode] = true
			budget := e.p.Cloud.Capacity(bestNode) - claimed[bestNode]
			marked := 0.0
			for i, d := range demands {
				if covered[i] || !feasible(d, ds, bestNode) {
					continue
				}
				if marked+d.need > budget && marked > 0 {
					break
				}
				covered[i] = true
				marked += d.need
			}
			claimed[bestNode] += marked
		}
	}
}

// evalDelayForecast evaluates the model delay for a forecast query that may
// not be part of the problem's query list.
func (e *Engine) evalDelayForecast(q *workload.Query, dm workload.Demand, v graph.NodeID) (float64, bool) {
	size := e.p.Datasets[dm.Dataset].SizeGB
	proc := size * e.p.Cloud.ProcDelayPerGB(v)
	trans := size * dm.Selectivity * e.p.Cloud.TransferDelayPerGB(v, q.Home)
	return proc + trans, true
}

// theta prices node v at the current instantaneous utilization. The value
// is cached until v's allocation changes (setUsed/addUsed invalidate), so
// pricing many candidates between load changes pays one math.Pow per node;
// the cached value is the bit-exact result of the same expression.
func (e *Engine) theta(v graph.NodeID) float64 {
	if e.thetaFresh[v] {
		return e.thetaVal[v]
	}
	capGHz := e.p.Cloud.Capacity(v)
	t := math.Inf(1)
	if capGHz > 0 {
		u := e.usedGHz(v) / capGHz
		t = (math.Pow(e.base, u) - 1) / (e.base - 1)
	}
	e.thetaVal[v] = t
	e.thetaFresh[v] = true
	return t
}

// usedGHz reads node v's instantaneous allocation from the ledger.
func (e *Engine) usedGHz(v graph.NodeID) float64 { return e.used.get(v) }

// setUsed overwrites node v's allocation and invalidates its θ cache entry.
// Every used-mutation in the engine funnels through setUsed/addUsed — that
// centralization is what keeps the cached prices coherent with the ledger.
func (e *Engine) setUsed(v graph.NodeID, ghz float64) {
	e.used.set(v, ghz)
	e.thetaFresh[v] = false
}

// addUsed adjusts node v's allocation by delta and returns the new value.
func (e *Engine) addUsed(v graph.NodeID, delta float64) float64 {
	n := e.used.get(v) + delta
	e.used.set(v, n)
	e.thetaFresh[v] = false
	return n
}

// resetUsed zeroes the whole ledger (bulk state load).
func (e *Engine) resetUsed() {
	e.used.reset()
	for i := range e.thetaFresh {
		e.thetaFresh[i] = false
	}
}

// Offer processes one arrival and returns its decision. Arrivals must be
// offered in non-decreasing time order.
func (e *Engine) Offer(a Arrival) (Decision, error) {
	if int(a.Query) < 0 || int(a.Query) >= len(e.p.Queries) {
		return Decision{}, fmt.Errorf("online: unknown query %d", a.Query)
	}
	if a.AtSec < e.now {
		return Decision{}, fmt.Errorf("online: arrival at %.3fs before current time %.3fs", a.AtSec, e.now)
	}
	e.now = a.AtSec
	e.drainReleases()

	q := &e.p.Queries[a.Query]
	// Plan each demand against instantaneous load; all-or-nothing. The
	// lookup stage is the fast path's epoch fence — the staleness check on
	// the precomputed tables' liveness mirror plus any refresh an
	// invalidation forced — timed only while attribution is active, like
	// the journal stages.
	e.lastLookupNs = 0
	var admitted bool
	var as []placement.Assignment
	if e.fast != nil {
		if instrument.AttributionActive() {
			lt := instrument.Mono()
			e.fast.refresh(e)
			e.lastLookupNs = int64(instrument.Mono() - lt)
		}
		admitted, as = e.planFast(a.Query)
	} else {
		admitted, as = e.planSlow(a.Query)
	}

	dec := Decision{Query: a.Query, Admitted: admitted}
	if admitted {
		dec.Assignments = as
		for _, asg := range as {
			need := e.p.ComputeNeed(a.Query, asg.Dataset)
			if u := e.addUsed(asg.Node, need) / e.p.Cloud.Capacity(asg.Node); u > e.peak {
				e.peak = u
			}
			e.sol.AddReplica(asg.Dataset, asg.Node)
			// Hold-forever allocations (HoldSec 0) get a release at +Inf:
			// it never drains, but failover can still see the hold is live
			// and move it with full capacity accounting.
			expiry := math.Inf(1)
			if a.HoldSec > 0 {
				expiry = a.AtSec + a.HoldSec
			}
			e.pushRelease(release{at: expiry, node: asg.Node, amt: need, query: a.Query, dataset: asg.Dataset})
		}
		e.sol.Admit(a.Query, as)
		e.res.Admitted++
		e.res.VolumeAdmitted += q.DemandedVolume(e.p.Datasets)
		e.emitAdmit(a, as)
	} else {
		e.res.Rejected++
		e.emitReject(a)
	}
	e.res.Decisions = append(e.res.Decisions, dec)
	if !instrument.AttributionActive() {
		if err := e.journalOffer(a, dec); err != nil {
			return dec, err
		}
		return dec, nil
	}
	jStart := instrument.Mono()
	err := e.journalOffer(a, dec)
	e.lastJournalNs = int64(instrument.Mono() - jStart)
	e.lastSyncNs = 0
	if e.jn != nil && !e.replaying {
		e.lastSyncNs = e.jn.LastSyncNs()
	}
	if err != nil {
		return dec, err
	}
	return dec, nil
}

// AttachStages points the engine at the serving layer's in-progress stage
// timeline for subsequent Offers (nil detaches). While attribution is
// active, admit/reject trace events carry a copy of the timeline's known
// prefix, so a traced decision links to its critical path.
func (e *Engine) AttachStages(t *instrument.StageTimeline) { e.stages = t }

// LastOfferJournalNs returns the journal-append duration of the most recent
// Offer and the fsync share within it — both zero unless attribution was
// active during the call. The serving layer uses the pair to split a
// decision's journal stage from its fsync stage.
func (e *Engine) LastOfferJournalNs() (journalNs, syncNs int64) {
	return e.lastJournalNs, e.lastSyncNs
}

// LastOfferLookupNs returns the duration of the most recent Offer's table
// lookup fence — zero unless attribution was active (or the engine runs
// the slow path, which has no tables to fence).
func (e *Engine) LastOfferLookupNs() int64 { return e.lastLookupNs }

// planSlow is the original planning loop — a full scan over the compute
// nodes through the delay model, per demand. It is kept verbatim as the
// fast path's oracle: the equivalence and byte-identity tests run both
// paths over identical streams and require identical decisions.
func (e *Engine) planSlow(qid workload.QueryID) (bool, []placement.Assignment) {
	q := &e.p.Queries[qid]
	tentative := make(map[graph.NodeID]float64)
	tentOpen := make(map[workload.DatasetID]map[graph.NodeID]bool)
	var as []placement.Assignment
	for _, dm := range q.Demands {
		v, ok := e.pickNode(qid, dm, tentative, tentOpen)
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
// instantaneous dual prices.
func (e *Engine) pickNode(q workload.QueryID, dm workload.Demand,
	tentative map[graph.NodeID]float64, tentOpen map[workload.DatasetID]map[graph.NodeID]bool) (graph.NodeID, bool) {

	need := e.p.ComputeNeed(q, dm.Dataset)
	size := e.p.Datasets[dm.Dataset].SizeGB
	deadline := e.p.Queries[q].DeadlineSec
	openCount := e.sol.ReplicaCount(dm.Dataset) + len(tentOpen[dm.Dataset])
	maxU := e.opt.maxUtil()

	var best graph.NodeID = -1
	bestCost := math.Inf(1)
	for _, v := range e.p.Cloud.ComputeNodes() {
		if e.live != nil && e.live.IsDown(v) {
			continue
		}
		delay, ok := e.p.EvalDelay(q, dm.Dataset, v)
		if !ok || delay > deadline {
			continue
		}
		capGHz := e.p.Cloud.Capacity(v)
		if e.usedGHz(v)+tentative[v]+need > capGHz*maxU+1e-9 {
			continue
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
			best, bestCost = v, cost
		}
	}
	return best, best != -1
}

// drainReleases gives back every allocation whose hold expired by e.now.
func (e *Engine) drainReleases() {
	for len(e.releases) > 0 && e.releases[0].at <= e.now {
		r := heap.Pop(&e.releases).(release)
		if e.addUsed(r.node, -r.amt) < 0 {
			e.setUsed(r.node, 0)
		}
	}
}

// pushRelease schedules a capacity release.
func (e *Engine) pushRelease(r release) { heap.Push(&e.releases, r) }

// reheapReleases restores heap order after failover filtered the slice
// in place.
func (e *Engine) reheapReleases() { heap.Init(&e.releases) }

// Result returns the accumulated run summary.
func (e *Engine) Result() Result {
	r := e.res
	r.PeakUtilization = e.peak
	return r
}

// Solution returns the replica layout and admissions so far. With
// HoldSec > 0 arrivals the capacity constraint is temporal, so the offline
// validator's capacity check does not apply; replica and deadline
// constraints still hold.
func (e *Engine) Solution() *placement.Solution { return e.sol }
