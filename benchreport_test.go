// Perf-trajectory artifact: TestWriteBenchReport regenerates BENCH_pr10.json,
// the machine-readable record of how fast the hot paths are at this PR and
// how they compare to the seed tree (BENCH_pr1.json, BENCH_pr5.json,
// BENCH_pr6.json, BENCH_pr7.json, BENCH_pr8.json, and BENCH_pr9.json are
// the committed earlier snapshots and stay untouched). The workloads mirror
// the named benchmarks in bench_test.go plus the edgerepd load driver — with
// and without latency attribution, with the fast-path admission drive under
// chaos crash/restore cycles, and with the multi-region kill-the-leader
// federation drill; timing runs with instrumentation disabled (its
// disabled-mode cost is zero-alloc, see internal/instrument), then one
// instrumented pass captures the counters behind the numbers.
//
// Regenerate with:
//
//	go test -run TestWriteBenchReport -benchreport .
//
// See EXPERIMENTS.md, "Reproducing the numbers".
package edgerep

import (
	"flag"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"edgerep/internal/core"
	"edgerep/internal/experiments"
	"edgerep/internal/federation"
	"edgerep/internal/instrument"
	"edgerep/internal/lint"
	"edgerep/internal/online"
	"edgerep/internal/server"
)

var benchReportFlag = flag.Bool("benchreport", false, "regenerate BENCH_pr10.json")

// Seed-tree reference numbers for the workloads below, measured with
// `go test -bench -benchmem` at the growth seed (commit 7f6be61) on the same
// class of machine the report is regenerated on. They give Speedup a fixed
// denominator: current PR vs the tree before the distance cache, the pooled
// ascent, and problem sharing existed.
const (
	seedFig2NsPerOp     = 153153575.0
	seedFig2AllocsPerOp = 563575.0

	seedApproGNsPerOp     = 1289390.0
	seedApproGAllocsPerOp = 2493.0
)

// measure times fn as a Go benchmark with instrumentation off, then runs it
// once more instrumented and returns the per-op counter snapshot.
func measure(t *testing.T, fn func(b *testing.B)) (testing.BenchmarkResult, map[string]int64) {
	t.Helper()
	instrument.Disable()
	r := testing.Benchmark(fn)
	instrument.Enable()
	instrument.Reset()
	single := testing.Benchmark(func(b *testing.B) {
		if b.N > 1 {
			b.Skip()
		}
		fn(b)
	})
	_ = single
	snap := instrument.Snapshot()
	instrument.Disable()
	instrument.Reset()
	return r, snap
}

func counters(snap map[string]int64, names ...string) map[string]float64 {
	out := make(map[string]float64, len(names))
	for _, n := range names {
		out[n] = float64(snap[n])
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func TestWriteBenchReport(t *testing.T) {
	if !*benchReportFlag {
		t.Skip("pass -benchreport to regenerate BENCH_pr10.json")
	}

	report := &instrument.BenchReport{
		PR:          "pr10",
		GoVersion:   runtime.Version(),
		Host:        fmt.Sprintf("%s/%s, GOMAXPROCS=%d", runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0)),
		GeneratedBy: "go test -run TestWriteBenchReport -benchreport .",
	}

	// Fig 2 quick sweep — the workload of BenchmarkFig2NetworkSizeSpecial:
	// 3 seeds × 3 network sizes × 3 algorithms, special case.
	fig2 := func(b *testing.B) {
		cfg := benchSimConfig()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := experiments.Fig2(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	r, snap := measure(t, fig2)
	e := instrument.BenchEntry{
		Name:        "Fig2QuickSweep",
		Iterations:  r.N,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: float64(r.AllocsPerOp()),
		BytesPerOp:  float64(r.AllocedBytesPerOp()),
		Counters: counters(snap,
			"experiments.instances_built", "experiments.algorithm_runs",
			"experiments.topo_builds", "experiments.topo_cache_hits",
			"graph.dijkstra_calls", "core.ascent_rounds", "core.bundles_priced"),
		Derived: map[string]float64{
			// Fraction of algorithm runs served by an already-built problem
			// (the seed tree rebuilt topology+APSP for every run).
			"problem_share_rate": 1 - ratio(float64(snap["experiments.instances_built"]),
				float64(snap["experiments.algorithm_runs"])),
		},
		BaselineNsPerOp:     seedFig2NsPerOp,
		BaselineAllocsPerOp: seedFig2AllocsPerOp,
	}
	report.Entries = append(report.Entries, e)
	fig2UnjournaledNs := e.NsPerOp

	// Durability overhead: the identical Fig-2 quick sweep with every
	// finished cell journaled to an fsynced WAL. The ratio folds in both the
	// per-cell fsync and the serialized seed loop journaled sweeps use to
	// keep commit order canonical, so it is the honest end-to-end price of
	// -journal, not just the disk syncs.
	fig2Journaled := func(b *testing.B) {
		cfg := benchSimConfig()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sj, err := experiments.OpenSweepJournal(b.TempDir(), false)
			if err != nil {
				b.Fatal(err)
			}
			experiments.SetSweepJournal(sj)
			b.StartTimer()
			if _, _, err := experiments.Fig2(cfg); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			experiments.SetSweepJournal(nil)
			if err := sj.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
	r, _ = measure(t, fig2Journaled)
	e = instrument.BenchEntry{
		Name:        "JournalOverhead",
		Iterations:  r.N,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: float64(r.AllocsPerOp()),
		BytesPerOp:  float64(r.AllocedBytesPerOp()),
		Derived: map[string]float64{
			"journal_overhead_ratio": ratio(float64(r.NsPerOp()), fig2UnjournaledNs),
		},
	}
	report.Entries = append(report.Entries, e)

	// Fig 5 quick sweep: the replica-bound sweep holds |V| fixed, so the
	// per-driver topology cache serves every x beyond the first.
	fig5 := func(b *testing.B) {
		cfg := benchSimConfig()
		cfg.KValues = []int{1, 3, 5, 7}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := experiments.Fig5(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	r, snap = measure(t, fig5)
	hits := float64(snap["experiments.topo_cache_hits"])
	builds := float64(snap["experiments.topo_builds"])
	e = instrument.BenchEntry{
		Name:        "Fig5QuickSweep",
		Iterations:  r.N,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: float64(r.AllocsPerOp()),
		BytesPerOp:  float64(r.AllocedBytesPerOp()),
		Counters: counters(snap,
			"experiments.instances_built", "experiments.algorithm_runs",
			"experiments.topo_builds", "experiments.topo_cache_hits",
			"graph.dijkstra_calls"),
		Derived: map[string]float64{
			"topo_cache_hit_rate": instrument.Ratio(int64(hits), int64(builds)),
		},
	}
	report.Entries = append(report.Entries, e)

	// Single Appro-G run on the default-scale instance — the workload of
	// BenchmarkAlgorithmsHeadToHead/ApproG; isolates the pooled ascent from
	// the driver-level caching.
	approG := func(b *testing.B) {
		p := benchProblem(b, 1, 3)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.ApproG(p, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	r, snap = measure(t, approG)
	e = instrument.BenchEntry{
		Name:        "ApproGDefaultInstance",
		Iterations:  r.N,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: float64(r.AllocsPerOp()),
		BytesPerOp:  float64(r.AllocedBytesPerOp()),
		Counters: counters(snap,
			"core.ascent_rounds", "core.bundles_priced",
			"core.admitted_queries", "core.rejected_queries",
			"core.scratch_allocs", "core.scratch_reuses"),
		BaselineNsPerOp:     seedApproGNsPerOp,
		BaselineAllocsPerOp: seedApproGAllocsPerOp,
	}
	report.Entries = append(report.Entries, e)
	approGUntracedNs := e.NsPerOp

	// Observability overhead: the same Appro-G instance with a JSONL trace
	// sink attached (discarding its output), against the no-sink run above.
	// The seed tree had no tracing, so there is no Baseline denominator; the
	// overhead ratio lands in Derived instead — >1 means tracing costs time,
	// and the zero-alloc gates in ci.sh bound the no-sink side at zero.
	approGTraced := func(b *testing.B) {
		p := benchProblem(b, 1, 3)
		instrument.ResetTrace()
		instrument.SetTraceSink(instrument.NewJSONLSink(io.Discard))
		defer instrument.ResetTrace()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.ApproG(p, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	r, _ = measure(t, approGTraced)
	e = instrument.BenchEntry{
		Name:        "ObsOverhead",
		Iterations:  r.N,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: float64(r.AllocsPerOp()),
		BytesPerOp:  float64(r.AllocedBytesPerOp()),
		Derived: map[string]float64{
			"trace_overhead_ratio": ratio(float64(r.NsPerOp()), approGUntracedNs),
		},
	}
	report.Entries = append(report.Entries, e)

	// The streaming-admission daemon under its in-repo load driver: 100k
	// offers of the seeded stream through the full micro-epoch pipeline
	// (enqueue → epoch collector → incremental dual pricing → response) on
	// the quick-sweep instance, unjournaled. One op = one whole drive, so
	// the Derived block — not ns/op — carries the headline numbers:
	// sustained decisions/s and the enqueue-to-decision percentiles.
	const driveCount = 100000
	var lastRep server.DriveReport
	daemon := func(b *testing.B) {
		p, err := server.BuildInstance(server.DefaultInstance())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			eng := online.NewEngine(p, driveCount, online.Options{})
			s := server.New(p, eng, server.Config{Clock: func() float64 { return 0 }})
			b.StartTimer()
			rep, err := server.Drive(s, server.DriveConfig{Count: driveCount, Seed: 7})
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := s.Drain(); err != nil {
				b.Fatal(err)
			}
			lastRep = rep
			b.StartTimer()
		}
	}
	instrument.DisableAttribution()
	r, snap = measure(t, daemon)
	e = instrument.BenchEntry{
		Name:        "DaemonThroughput",
		Iterations:  r.N,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: float64(r.AllocsPerOp()),
		BytesPerOp:  float64(r.AllocedBytesPerOp()),
		Counters: counters(snap,
			"server.offers", "server.admitted", "server.rejected", "server.epochs"),
		Derived: map[string]float64{
			"admissions_per_sec": lastRep.DecisionsPerSec,
			"p50_latency_ns":     float64(lastRep.P50),
			"p95_latency_ns":     float64(lastRep.P95),
			"p99_latency_ns":     float64(lastRep.P99),
			"mean_epoch_queries": lastRep.MeanEpochQueries,
			"epoch_occupancy":    lastRep.Occupancy,
		},
	}
	report.Entries = append(report.Entries, e)
	daemonPlainNs := float64(r.NsPerOp())

	// Attribution overhead: the identical drive with latency attribution on
	// and the full observability chain attached (stage histograms + exemplar
	// stamping, SLO tracker, flight recorder) — the edgerepd default
	// configuration. Two acceptance checks ride on this entry. First, the
	// absolute attribution cost — (attributed − plain mean drive wall time)
	// ÷ offers, measured on ns/op over the full benchmark, not one drive's
	// decisions/s snapshot (a single 100k-offer drive swings ±20% on a
	// one-vCPU box) — stays under 1.25µs per decision. Absolute, not
	// relative: the fast path made the unattributed drive ~2.8× faster, so
	// the same per-decision stamping cost that read as 1.1× at pr8 now
	// reads as ~1.5× of a much smaller base; a ratio bound would punish
	// exactly the speedup this PR exists to deliver (a loose 1.75× guard
	// stays as a sanity backstop). Second, the attributed
	// stage-sum p95 lands in [0.5, 1.1]× of the measured end-to-end p95. The
	// seven stages cover the enqueue→delivery interval; the two-phase epoch
	// loop stamps ack at the delivery write, so the residual gap is the
	// response sitting in its channel behind the driver's in-order
	// collection at a 512-deep pipeline — real latency, but client-side and
	// unattributable from the server. A ratio below the band still means
	// server-side latency is escaping attribution.
	daemonAttr := func(b *testing.B) {
		instrument.EnableAttribution()
		instrument.SetSLOTracker(instrument.NewSLOTracker(instrument.SLOConfig{}))
		instrument.SetFlightRecorder(instrument.NewFlightRecorder(512, nil))
		defer func() {
			instrument.DisableAttribution()
			instrument.SetSLOTracker(nil)
			instrument.SetFlightRecorder(nil)
		}()
		daemon(b)
	}
	r, _ = measure(t, daemonAttr)
	attrRatio := ratio(float64(r.NsPerOp()), daemonPlainNs)
	attrCostNs := (float64(r.NsPerOp()) - daemonPlainNs) / driveCount
	stageSumVsP95 := ratio(float64(lastRep.StageSumP95), float64(lastRep.P95))
	if attrCostNs >= 1250 {
		t.Errorf("attribution costs %.0fns per decision, want < 1250ns over the attribution-off drive", attrCostNs)
	}
	if attrRatio > 1.75 {
		t.Errorf("attribution overhead %.3fx, want <= 1.75x of the attribution-off drive", attrRatio)
	}
	if stageSumVsP95 < 0.5 || stageSumVsP95 > 1.1 {
		t.Errorf("stage-sum p95 is %.3fx the end-to-end p95; want in [0.5, 1.1] (latency escaping attribution)", stageSumVsP95)
	}
	derived := map[string]float64{
		"attribution_overhead_ratio":       attrRatio,
		"attribution_cost_ns_per_decision": attrCostNs,
		"admissions_per_sec":               lastRep.DecisionsPerSec,
		"p95_latency_ns":                   float64(lastRep.P95),
		"stage_sum_p95_ns":                 float64(lastRep.StageSumP95),
		"stage_sum_vs_e2e_p95":             stageSumVsP95,
	}
	for _, st := range lastRep.Stages {
		derived["stage_"+st.Stage+"_p95_ns"] = float64(st.P95)
	}
	e = instrument.BenchEntry{
		Name:        "AttributionOverhead",
		Iterations:  r.N,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: float64(r.AllocsPerOp()),
		BytesPerOp:  float64(r.AllocedBytesPerOp()),
		Derived:     derived,
	}
	report.Entries = append(report.Entries, e)

	// Fast-path admission under chaos — the headline number of this PR. The
	// same seeded stream at a pipeline depth of 128 with 64-query epochs.
	// Meanwhile a chaos goroutine crash/restore-cycles compute nodes through
	// the server's epoch lock the whole drive. Every liveness flip bumps the engine's
	// fence generation and forces the fast path to re-mirror the down set, so
	// the recorded throughput and p95 include the invalidation cost the
	// tables were designed to bound. The cadence is one cycle per ~30ms —
	// each Crash holds the epoch lock for failover repair (re-serving every
	// query stranded on the node), which is real recovery work, not pricing;
	// a cadence much hotter than real node churn turns the bench into a
	// measurement of repair throughput and buries the admission path it is
	// supposed to gate. Acceptance floors (enforced by
	// TestBenchReportCommitted): p95 < 1ms and ≥ 250k decisions/s with the
	// chaos loop running. A fast-path-off drive of the same stream (no
	// chaos) gives the speedup denominator for the precomputed tables alone.
	var fpRep server.DriveReport
	var fpCrashes float64
	fastChaos := func(b *testing.B) {
		p, err := server.BuildInstance(server.DefaultInstance())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			eng := online.NewEngine(p, driveCount, online.Options{})
			s := server.New(p, eng, server.Config{
				Clock:           func() float64 { return 0 },
				EpochMaxQueries: 64,
			})
			stop := make(chan struct{})
			done := make(chan struct{})
			crashes := 0
			go func() {
				defer close(done)
				nodes := p.Cloud.ComputeNodes()
				for k := 0; ; k++ {
					select {
					case <-stop:
						return
					default:
					}
					v := nodes[k%len(nodes)]
					if _, err := s.Crash(v); err == nil {
						crashes++
					}
					time.Sleep(15 * time.Millisecond)
					_ = s.Restore(v)
					time.Sleep(15 * time.Millisecond)
				}
			}()
			b.StartTimer()
			rep, err := server.Drive(s, server.DriveConfig{Count: driveCount, Seed: 7, Pipeline: 128})
			b.StopTimer()
			close(stop)
			<-done
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Drain(); err != nil {
				b.Fatal(err)
			}
			fpRep = rep
			fpCrashes = float64(crashes)
			b.StartTimer()
		}
	}
	r, snap = measure(t, fastChaos)
	if fpCrashes == 0 {
		t.Error("FastPathAdmission drive finished before the chaos loop crashed a single node")
	}
	if fpRep.P95 >= time.Millisecond {
		t.Errorf("FastPathAdmission p95 %v with chaos running, want < 1ms", fpRep.P95)
	}
	if fpRep.DecisionsPerSec < 250000 {
		t.Errorf("FastPathAdmission %.0f decisions/s with chaos running, want >= 250000", fpRep.DecisionsPerSec)
	}

	// The oracle drive: identical stream, -fastpath=false, no chaos. Its p95
	// is the denominator for the table speedup, and its decisions must be
	// byte-identical to the fast path's (the equivalence and byte-identity
	// tests in internal/server enforce that; here we only record the cost).
	var slowRep server.DriveReport
	slowDrive := func(b *testing.B) {
		p, err := server.BuildInstance(server.DefaultInstance())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			eng := online.NewEngine(p, driveCount, online.Options{NoFastPath: true})
			s := server.New(p, eng, server.Config{
				Clock:           func() float64 { return 0 },
				EpochMaxQueries: 64,
			})
			b.StartTimer()
			rep, err := server.Drive(s, server.DriveConfig{Count: driveCount, Seed: 7, Pipeline: 128})
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := s.Drain(); err != nil {
				b.Fatal(err)
			}
			slowRep = rep
			b.StartTimer()
		}
	}
	rSlow, _ := measure(t, slowDrive)
	_ = rSlow
	e = instrument.BenchEntry{
		Name:        "FastPathAdmission",
		Iterations:  r.N,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: float64(r.AllocsPerOp()),
		BytesPerOp:  float64(r.AllocedBytesPerOp()),
		Counters: counters(snap,
			"server.offers", "server.admitted", "server.rejected", "server.epochs",
			"online.fastpath_table_builds", "online.fastpath_offers",
			"online.fastpath_refreshes"),
		Derived: map[string]float64{
			"admissions_per_sec":      fpRep.DecisionsPerSec,
			"p50_latency_ns":          float64(fpRep.P50),
			"p95_latency_ns":          float64(fpRep.P95),
			"p99_latency_ns":          float64(fpRep.P99),
			"chaos_crashes":           fpCrashes,
			"slow_path_p95_ns":        float64(slowRep.P95),
			"slow_path_decisions_sec": slowRep.DecisionsPerSec,
			"fastpath_p95_speedup":    ratio(float64(slowRep.P95), float64(fpRep.P95)),
		},
	}
	report.Entries = append(report.Entries, e)

	// The federation failover drill — the headline number of this PR. One op
	// = one full 3-region kill-the-leader chaos drill (federation.RunDrill):
	// three journaling leaders behind real HTTP listeners, a warm standby
	// shipping the shard-0 leader's sealed WAL, the leader killed (torn tail)
	// at offer 300 of 600, the standby promoted at the bumped term, every
	// pending offer re-offered, and the exactly-once + CheckFailover +
	// CheckTrace audits run on the result. The Derived block carries the
	// operational numbers the issue floors: wall-clock time from the kill to
	// the first ack at the new term, the model-time ack gap on the killed
	// shard (budget: < 2s), and the steady-state replication lag in records
	// observed on the last pre-kill sync.
	var fedRep *federation.DrillReport
	fedDrill := func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := federation.RunDrill(federation.DrillConfig{
				Regions: 3,
				Count:   600,
				Seed:    17,
				BaseDir: b.TempDir(),
			})
			if err != nil {
				b.Fatal(err)
			}
			fedRep = rep
		}
	}
	r, snap = measure(t, fedDrill)
	if fedRep.Acked != fedRep.Offers || fedRep.JournalOffers != fedRep.Acked {
		t.Errorf("FederationFailover lost decisions: %d offers, %d acked, %d journaled",
			fedRep.Offers, fedRep.Acked, fedRep.JournalOffers)
	}
	if fedRep.FailoverWallNs <= 0 || fedRep.FailoverWallNs >= 5e9 {
		t.Errorf("FederationFailover took %dns of wall time from kill to first new-term ack, want (0, 5s)", fedRep.FailoverWallNs)
	}
	if fedRep.PromotionGapModelSec <= 0 || fedRep.PromotionGapModelSec >= 2 {
		t.Errorf("FederationFailover promotion gap %.4fs of model time, want (0, 2)", fedRep.PromotionGapModelSec)
	}
	e = instrument.BenchEntry{
		Name:        "FederationFailover",
		Iterations:  r.N,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: float64(r.AllocsPerOp()),
		BytesPerOp:  float64(r.AllocedBytesPerOp()),
		Counters: counters(snap,
			"federation.ship_segments", "federation.ship_retries",
			"federation.failovers", "federation.heartbeat_misses",
			"server.term_fenced", "server.forwarded"),
		Derived: map[string]float64{
			"offers":                  float64(fedRep.Offers),
			"acked":                   float64(fedRep.Acked),
			"journal_offers":          float64(fedRep.JournalOffers),
			"reoffered":               float64(fedRep.Reoffered),
			"fenced":                  float64(fedRep.Fenced),
			"failover_wall_ns":        float64(fedRep.FailoverWallNs),
			"promotion_gap_model_sec": fedRep.PromotionGapModelSec,
			"steady_lag_records":      float64(fedRep.SteadyLagRecords),
			"shipped_segments":        float64(fedRep.ShippedSegments),
		},
	}
	report.Entries = append(report.Entries, e)

	// The static-analysis gate: parse the whole tree, resolve it with
	// go/types (one op = parse + full type-check + all thirteen analyzers — the
	// type-aware pass this PR introduced), and run every analyzer. Besides
	// timing, this records the analyzer/finding/type-error counts in the
	// report and refuses to regenerate it from a tree that fails the gate or
	// blows the <30s ci.sh scan budget.
	var lastTyped int
	vet := func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			repo, err := lint.Load(".")
			if err != nil {
				b.Fatal(err)
			}
			if findings := repo.Run(lint.Analyzers()); len(findings) > 0 {
				b.Fatalf("repo fails its own lint gate: %v", findings[0])
			}
			if len(repo.TypeErrors) > 0 {
				b.Fatalf("repo does not type-check: %s", repo.TypeErrors[0])
			}
			lastTyped = len(repo.Info.Uses)
		}
	}
	r, snap = measure(t, vet)
	if float64(r.NsPerOp()) >= 30e9 {
		t.Fatalf("EdgerepvetRepoScan %.1fs/op; the ci.sh budget is <30s", float64(r.NsPerOp())/1e9)
	}
	e = instrument.BenchEntry{
		Name:        "EdgerepvetRepoScan",
		Iterations:  r.N,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: float64(r.AllocsPerOp()),
		BytesPerOp:  float64(r.AllocedBytesPerOp()),
		Counters: counters(snap,
			"lint.analyzers_run", "lint.files_scanned", "lint.findings",
			"lint.type_errors"),
		Derived: map[string]float64{
			"resolved_uses": float64(lastTyped),
		},
	}
	report.Entries = append(report.Entries, e)

	if err := report.WriteFile("BENCH_pr10.json"); err != nil {
		t.Fatal(err)
	}
	for _, e := range report.Entries {
		t.Logf("%s: %.0f ns/op, %.0f allocs/op (seed baseline %.0f ns/op → speedup %.2fx)",
			e.Name, e.NsPerOp, e.AllocsPerOp, e.BaselineNsPerOp,
			ratio(e.BaselineNsPerOp, e.NsPerOp))
	}
}

// TestBenchReportCommitted guards the committed artifacts: each must parse,
// name its PR, and record the baselined entries at or above seed
// performance. BENCH_pr5.json onward must additionally carry the
// JournalOverhead entry with a sane journaled-vs-unjournaled sweep ratio,
// BENCH_pr6.json onward the DaemonThroughput entry at the issue's ≥50k
// admission-decisions/s floor with full latency percentiles,
// BENCH_pr7.json onward the type-checked EdgerepvetRepoScan inside the <30s
// ci.sh budget, BENCH_pr8.json onward the AttributionOverhead entry (the
// drive with attribution on at ≤1.1× the attribution-off drive, with a
// per-stage p95 breakdown whose stage-sum p95 tracks the measured end-to-end
// p95 — pr8 recorded six stages, pr9 adds the lookup stage),
// BENCH_pr9.json onward the FastPathAdmission entry (the issue's
// sub-millisecond floor — p95 < 1ms at ≥ 250k decisions/s with the chaos
// crash/restore loop running against the precomputed feasibility tables),
// and BENCH_pr10.json the FederationFailover entry: the 3-region
// kill-the-leader drill with zero acked decisions lost, a promotion gap
// under the issue's 2s model-time budget, and the steady-state replication
// lag on record.
func TestBenchReportCommitted(t *testing.T) {
	for _, pr := range []string{"pr1", "pr5", "pr6", "pr7", "pr8", "pr9", "pr10"} {
		path := "BENCH_" + pr + ".json"
		r, err := instrument.ReadReport(path)
		if err != nil {
			t.Fatalf("%s missing or unreadable (regenerate: go test -run TestWriteBenchReport -benchreport .): %v", path, err)
		}
		if r.PR != pr {
			t.Fatalf("%s: report PR = %q, want %s", path, r.PR, pr)
		}
		if len(r.Entries) == 0 {
			t.Fatalf("%s: report has no entries", path)
		}
		for _, e := range r.Entries {
			if e.NsPerOp <= 0 {
				t.Errorf("%s %s: non-positive ns/op %v", path, e.Name, e.NsPerOp)
			}
			if e.BaselineNsPerOp > 0 && e.Speedup < 1 {
				t.Errorf("%s %s: slower than the seed tree (speedup %.2f)", path, e.Name, e.Speedup)
			}
		}
		if pr == "pr5" || pr == "pr6" || pr == "pr7" || pr == "pr8" || pr == "pr9" || pr == "pr10" {
			found := false
			for _, e := range r.Entries {
				if e.Name == "JournalOverhead" {
					found = true
					if ratio := e.Derived["journal_overhead_ratio"]; ratio <= 0 {
						t.Errorf("%s: JournalOverhead ratio %v, want > 0", path, ratio)
					}
				}
			}
			if !found {
				t.Errorf("%s lacks the JournalOverhead entry", path)
			}
		}
		if pr == "pr6" || pr == "pr7" || pr == "pr8" || pr == "pr9" || pr == "pr10" {
			found := false
			for _, e := range r.Entries {
				if e.Name != "DaemonThroughput" {
					continue
				}
				found = true
				if dps := e.Derived["admissions_per_sec"]; dps < 50000 {
					t.Errorf("DaemonThroughput %v decisions/s, want >= 50000", dps)
				}
				for _, q := range []string{"p50_latency_ns", "p95_latency_ns", "p99_latency_ns"} {
					if e.Derived[q] <= 0 {
						t.Errorf("DaemonThroughput lacks %s", q)
					}
				}
				if occ := e.Derived["epoch_occupancy"]; occ <= 0 || occ > 1 {
					t.Errorf("DaemonThroughput epoch_occupancy %v out of (0,1]", occ)
				}
			}
			if !found {
				t.Errorf("%s lacks the DaemonThroughput entry", path)
			}
		}
		if pr == "pr7" || pr == "pr8" || pr == "pr9" || pr == "pr10" {
			found := false
			for _, e := range r.Entries {
				if e.Name != "EdgerepvetRepoScan" {
					continue
				}
				found = true
				if e.NsPerOp >= 30e9 {
					t.Errorf("EdgerepvetRepoScan %v ns/op; the ci.sh budget is <30s", e.NsPerOp)
				}
				if e.Counters["lint.findings"] != 0 {
					t.Errorf("EdgerepvetRepoScan recorded %v findings; the repo gate must be clean", e.Counters["lint.findings"])
				}
				if e.Counters["lint.type_errors"] != 0 {
					t.Errorf("EdgerepvetRepoScan recorded %v type errors; analyzers fell back to name heuristics", e.Counters["lint.type_errors"])
				}
				if e.Derived["resolved_uses"] < 10000 {
					t.Errorf("EdgerepvetRepoScan resolved only %v uses; go/types resolution looks broken", e.Derived["resolved_uses"])
				}
			}
			if !found {
				t.Errorf("%s lacks the EdgerepvetRepoScan entry", path)
			}
		}
		if pr == "pr8" || pr == "pr9" || pr == "pr10" {
			// pr8 predates the lookup stage; its committed snapshot carries the
			// original six stages and the tight pre-fast-path ratio band. pr9
			// onward must record every current stage and bounds attribution by
			// its absolute per-decision cost (<1.25µs) rather than a ratio —
			// the same stamping cost reads as a much larger ratio against the
			// ~2.8× faster fast-path drive, and a ratio bound would punish the
			// speedup (a loose 1.75× guard remains). The stage-sum band widens
			// to [0.5, 1.1] for the residual of responses queueing behind the
			// driver's in-order collection after the delivery-stamped ack.
			stages := instrument.StageNames[:]
			lo, hiRatio := 0.5, 1.75
			if pr == "pr8" {
				stages = []string{"queue", "coalesce", "pricing", "journal", "fsync", "ack"}
				lo, hiRatio = 0.9, 1.1
			}
			found := false
			for _, e := range r.Entries {
				if e.Name != "AttributionOverhead" {
					continue
				}
				found = true
				if ratio := e.Derived["attribution_overhead_ratio"]; ratio <= 0 || ratio > hiRatio {
					t.Errorf("AttributionOverhead ratio %v, want in (0, %v]", ratio, hiRatio)
				}
				if pr == "pr9" || pr == "pr10" {
					if cost := e.Derived["attribution_cost_ns_per_decision"]; cost <= 0 || cost >= 1250 {
						t.Errorf("AttributionOverhead costs %vns per decision, want in (0, 1250)", cost)
					}
				}
				if sum := e.Derived["stage_sum_vs_e2e_p95"]; sum < lo || sum > 1.1 {
					t.Errorf("AttributionOverhead stage-sum p95 is %vx the end-to-end p95; want in [%v, 1.1]", sum, lo)
				}
				for _, stage := range stages {
					if v, ok := e.Derived["stage_"+stage+"_p95_ns"]; !ok || v < 0 {
						t.Errorf("AttributionOverhead lacks the %s stage p95", stage)
					}
				}
			}
			if !found {
				t.Errorf("%s lacks the AttributionOverhead entry", path)
			}
		}
		if pr == "pr9" || pr == "pr10" {
			found := false
			for _, e := range r.Entries {
				if e.Name != "FastPathAdmission" {
					continue
				}
				found = true
				if p95 := e.Derived["p95_latency_ns"]; p95 <= 0 || p95 >= 1e6 {
					t.Errorf("FastPathAdmission p95 %v ns with chaos running; the issue floor is < 1ms", p95)
				}
				if dps := e.Derived["admissions_per_sec"]; dps < 250000 {
					t.Errorf("FastPathAdmission %v decisions/s with chaos running; the issue floor is >= 250000", dps)
				}
				if e.Derived["chaos_crashes"] < 1 {
					t.Error("FastPathAdmission recorded no chaos crashes; the drive ran without liveness churn")
				}
				if e.Counters["online.fastpath_offers"] <= 0 {
					t.Error("FastPathAdmission priced no offers through the precomputed tables")
				}
				if e.Derived["slow_path_p95_ns"] <= 0 {
					t.Error("FastPathAdmission lacks the fast-path-off oracle drive")
				}
			}
			if !found {
				t.Errorf("%s lacks the FastPathAdmission entry", path)
			}
		}
		if pr == "pr10" {
			found := false
			for _, e := range r.Entries {
				if e.Name != "FederationFailover" {
					continue
				}
				found = true
				if gap := e.Derived["promotion_gap_model_sec"]; gap <= 0 || gap >= 2 {
					t.Errorf("FederationFailover promotion gap %vs model time, want in (0, 2)", gap)
				}
				if wall := e.Derived["failover_wall_ns"]; wall <= 0 || wall >= 5e9 {
					t.Errorf("FederationFailover failover wall time %v ns, want in (0, 5e9)", wall)
				}
				if lag := e.Derived["steady_lag_records"]; lag < 0 {
					t.Errorf("FederationFailover steady-state replication lag %v records, want >= 0", lag)
				}
				offers, acked := e.Derived["offers"], e.Derived["acked"]
				if offers <= 0 || acked != offers {
					t.Errorf("FederationFailover acked %v of %v offers; the drill must ack every offer exactly once", acked, offers)
				}
				if jo := e.Derived["journal_offers"]; jo != offers {
					t.Errorf("FederationFailover journaled %v offers for %v acked; decisions leaked past the WALs", jo, offers)
				}
				if e.Derived["shipped_segments"] <= 0 {
					t.Error("FederationFailover shipped no sealed segments; the standby promoted cold")
				}
				if e.Derived["fenced"] < 1 {
					t.Error("FederationFailover fenced no stale-term offers; the kill produced no term race to fence")
				}
			}
			if !found {
				t.Errorf("%s lacks the FederationFailover entry", path)
			}
		}
	}
}
