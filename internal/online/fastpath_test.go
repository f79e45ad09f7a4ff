package online

import (
	"math/rand"
	"reflect"
	"testing"

	"edgerep/internal/graph"
	"edgerep/internal/workload"
)

// TestFastPathEquivalence is the oracle check behind the byte-identity
// contract. One engine takes a seeded arrival stream with crash/restore
// churn interleaved, and the reference scan (reference_test.go) judges
// every pricing decision it makes: before each Offer the reference plan
// must equal the decision Offer returns, each rejection's table
// classification must equal placement.ClassifyRejection on the same state,
// and after each crash the table picker and the reference picker must
// choose the same node and fresh-replica flag for every admitted (query,
// dataset) pair, with and without the capacity test repair skips for
// expired holds. Any divergence means the precomputed tables drifted from
// the pricing math they mirror.
func TestFastPathEquivalence(t *testing.T) {
	admits, rejects, repairs := 0, 0, 0
	for _, seed := range []int64{3, 7, 21, 42} {
		p, w := NewTestProblem(t, seed, 80)
		e := NewEngine(p, len(w.Queries), Options{})
		rng := rand.New(rand.NewSource(seed))
		compute := p.Cloud.ComputeNodes()
		var down []graph.NodeID
		at := 0.0
		for i := range w.Queries {
			at += rng.ExpFloat64()
			hold := rng.ExpFloat64() * 50
			if i%9 == 4 {
				// Liveness churn: alternate crashing a random node with
				// restoring the oldest crashed one.
				if len(down) > 0 && rng.Intn(2) == 0 {
					v := down[0]
					down = down[1:]
					if err := e.Restore(v); err != nil {
						t.Fatal(err)
					}
				} else {
					v := compute[rng.Intn(len(compute))]
					wasDown := e.Liveness().IsDown(v)
					rep, err := e.Crash(at, v)
					if err != nil {
						t.Fatalf("seed %d crash(%d): %v", seed, v, err)
					}
					repairs += rep.Repaired
					if !wasDown {
						down = append(down, v)
					}
					checkRepairPicks(t, e, seed, v)
				}
			}
			q := workload.QueryID(i)
			// Offer drains the releases due at its arrival time before
			// planning; drain them here so the reference sees that state.
			e.now = at
			e.drainReleases()
			wantOK, wantAs := e.planSlow(q)
			dec, err := e.Offer(Arrival{Query: q, AtSec: at, HoldSec: hold})
			if err != nil {
				t.Fatalf("seed %d offer %d: %v", seed, i, err)
			}
			if dec.Admitted != wantOK || !reflect.DeepEqual(dec.Assignments, wantAs) {
				t.Fatalf("seed %d offer %d diverges from the reference:\ntables    %v %+v\nreference %v %+v",
					seed, i, dec.Admitted, dec.Assignments, wantOK, wantAs)
			}
			if dec.Admitted {
				admits++
				continue
			}
			rejects++
			rF, dsF, nF := e.classifyFast(q)
			rS, dsS, nS := e.classifySlow(q)
			if rF != rS || dsF != dsS || nF != nS {
				t.Fatalf("seed %d offer %d classifications diverge: tables (%v, %d, %d) reference (%v, %d, %d)",
					seed, i, rF, dsF, nF, rS, dsS, nS)
			}
		}
	}
	if admits == 0 || rejects == 0 || repairs == 0 {
		t.Fatalf("streams too weak: %d admits, %d rejects, %d repairs", admits, rejects, repairs)
	}
}

// checkRepairPicks compares the table picker with the reference picker on
// every admitted (query, dataset) pair in the engine's current state, each
// priced alone, with and without the capacity test.
func checkRepairPicks(t *testing.T, e *Engine, seed int64, crashed graph.NodeID) {
	t.Helper()
	e.fast.refresh(e)
	var s fpScratch
	for _, a := range e.sol.Assignments {
		row := e.fast.perQuery[a.Query]
		for di := range row {
			if row[di].dataset != a.Dataset {
				continue
			}
			dm := e.p.Queries[a.Query].Demands[di]
			for _, needsCapacity := range []bool{true, false} {
				s.reset()
				v, fresh, ok := e.pickFast(&row[di], &s, needsCapacity)
				rv, rfresh, rok := e.pickNode(a.Query, dm, needsCapacity, nil, nil)
				if v != rv || fresh != rfresh || ok != rok {
					t.Fatalf("seed %d after crash(%d): query %d dataset %d (needsCapacity %v): tables (%d, %v, %v) reference (%d, %v, %v)",
						seed, crashed, a.Query, a.Dataset, needsCapacity, v, fresh, ok, rv, rfresh, rok)
				}
			}
		}
	}
}

// TestRepairPricesPreferredSitesLikeAdmission pins that failover repair
// prices forecast-preferred sites the way admission does: opening a replica
// there costs no replica-open price. It looks for a single-demand query
// whose repair the two rules would send to different nodes, crashes the
// node serving it, and requires the repair to land where the admission
// rule says. A twin engine that evicts instead of repairing holds the
// pre-repair state the reference prices against.
func TestRepairPricesPreferredSitesLikeAdmission(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		p, w := NewTestProblem(t, seed, 60)
		for qi := range w.Queries {
			q := workload.QueryID(qi)
			if len(p.Queries[q].Demands) != 1 {
				continue
			}
			dm := p.Queries[q].Demands[0]
			rep := NewEngine(p, len(w.Queries), Options{Forecast: w.Queries})
			ev := NewEngine(p, len(w.Queries), Options{Forecast: w.Queries, NoRepair: true})
			arr := Arrival{Query: q, HoldSec: 10}
			dec, err := rep.Offer(arr)
			if err != nil {
				t.Fatal(err)
			}
			if !dec.Admitted {
				continue
			}
			if _, err := ev.Offer(arr); err != nil {
				t.Fatal(err)
			}
			crashed := dec.Assignments[0].Node
			if _, err := ev.Crash(1, crashed); err != nil {
				t.Fatal(err)
			}
			want, wantFresh, ok := ev.pickNode(q, dm, true, nil, nil)
			if !ok {
				continue
			}
			// The rule repair used to follow: charge the replica-open price
			// at preferred sites too.
			ev.preferredSites = nil
			old, _, _ := ev.pickNode(q, dm, true, nil, nil)
			if old == want {
				continue
			}
			cr, err := rep.Crash(1, crashed)
			if err != nil {
				t.Fatal(err)
			}
			got := rep.Solution().Assignments
			if cr.Repaired != 1 || len(got) != 1 || got[0].Node != want {
				t.Fatalf("seed %d query %d: repair after crash(%d) gave %+v (report %+v), want node %d (old rule: %d)",
					seed, q, crashed, got, cr, want, old)
			}
			if wantFresh != (cr.NewReplicas == 1) {
				t.Fatalf("seed %d query %d: repair opened %d replicas, reference fresh=%v", seed, q, cr.NewReplicas, wantFresh)
			}
			return
		}
	}
	t.Fatal("no single-demand repair separates the two pricing rules; scenario too weak")
}

// TestFastPathZeroAlloc pins the fast path's allocation contract: pricing a
// rejected offer and classifying the rejection allocate nothing, and an
// admitted offer allocates exactly the assignment slice the decision keeps.
// ci.sh runs this as a hard gate — a regression here is the GC pressure the
// precomputed tables exist to eliminate.
func TestFastPathZeroAlloc(t *testing.T) {
	p, w := NewTestProblem(t, 5, 120)
	e := NewEngine(p, len(w.Queries), Options{})

	// Admitted path, measured before any state accumulates: planFast does
	// not commit, so repeated calls are idempotent.
	var admitQ workload.QueryID = -1
	for i := range w.Queries {
		if ok, as := e.planFast(workload.QueryID(i)); ok && len(as) > 0 {
			admitQ = workload.QueryID(i)
			break
		}
	}
	if admitQ == -1 {
		t.Fatal("no admittable query on a fresh engine; scenario too weak")
	}
	if allocs := testing.AllocsPerRun(200, func() {
		e.planFast(admitQ)
	}); allocs != 1 {
		t.Errorf("admitted planFast allocates %.1f objects/op, want exactly 1 (the returned assignments)", allocs)
	}

	// Saturate with hold-forever offers until rejections exist.
	var rejQ workload.QueryID = -1
	for i := range w.Queries {
		dec, err := e.Offer(Arrival{Query: workload.QueryID(i), AtSec: float64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Admitted {
			rejQ = workload.QueryID(i)
		}
	}
	if rejQ == -1 {
		t.Fatal("hold-forever stream saturated nothing; scenario too weak")
	}
	if ok, _ := e.planFast(rejQ); ok {
		t.Fatalf("query %d re-plans as admittable on the saturated engine", rejQ)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		e.planFast(rejQ)
		e.classifyFast(rejQ)
	}); allocs != 0 {
		t.Errorf("rejection fast path allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkFastPathPlan prices one saturated-engine offer per op, table scan
// against the full per-offer search it replaced. The fast side is the
// ci.sh-gated zero-alloc path; the slow side is the reference scan the
// equivalence test compares against.
func BenchmarkFastPathPlan(b *testing.B) {
	for _, mode := range []struct {
		name string
		slow bool
	}{{"fast", false}, {"slow", true}} {
		b.Run(mode.name, func(b *testing.B) {
			p, w := NewTestProblem(b, 5, 120)
			e := NewEngine(p, len(w.Queries), Options{})
			var rejQ workload.QueryID = -1
			for i := range w.Queries {
				dec, err := e.Offer(Arrival{Query: workload.QueryID(i), AtSec: float64(i)})
				if err != nil {
					b.Fatal(err)
				}
				if !dec.Admitted {
					rejQ = workload.QueryID(i)
				}
			}
			if rejQ == -1 {
				b.Fatal("hold-forever stream saturated nothing")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode.slow {
					e.planSlow(rejQ)
				} else {
					e.planFast(rejQ)
				}
			}
		})
	}
}

// TestFastPathStats covers the /state payload source: an engine reports its
// table sizes, its moving counters, and its capacity shards.
func TestFastPathStats(t *testing.T) {
	p, w := NewTestProblem(t, 6, 30)
	e := NewEngine(p, len(w.Queries), Options{})
	st := e.FastPathStats()
	if st.Tables == 0 || st.Candidates == 0 {
		t.Fatalf("engine stats %+v, want non-empty tables", st)
	}
	if len(st.Shards) == 0 {
		t.Fatal("no capacity shards reported")
	}
	for i := 0; i < 5; i++ {
		if _, err := e.Offer(Arrival{Query: workload.QueryID(i), AtSec: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.FastPathStats().Offers; got != 5 {
		t.Fatalf("fast path priced %d offers, want 5", got)
	}
	if _, err := e.Crash(100, p.Cloud.ComputeNodes()[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Offer(Arrival{Query: 5, AtSec: 101}); err != nil {
		t.Fatal(err)
	}
	st = e.FastPathStats()
	if st.LiveGen == 0 || st.Refreshes == 0 {
		t.Fatalf("crash did not move the fence: %+v", st)
	}
}
