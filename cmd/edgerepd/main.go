// Command edgerepd is the always-on replication-admission daemon: it owns
// one deterministic cluster instance (topology + workload derived from
// -seed/-nodes/-datasets/-queries/-f/-k), coalesces queries arriving on
// POST /admit into micro-epochs, prices them against the online engine's
// incrementally maintained dual state, and answers admit/reject + placement
// + typed rejection reason. /metrics, /progress, and /debug/pprof/* share
// the same port (internal/ops); -journal makes every decision durable and
// -resume replays the WAL through online.Recover before serving resumes.
// SIGTERM (or SIGINT) drains gracefully: the in-flight micro-epoch finishes,
// the engine state is snapshotted, and the process exits 0.
//
// Usage:
//
//	edgerepd -http localhost:8080                      # serve admission
//	edgerepd -http localhost:8080 -journal wal/        # ... durably
//	edgerepd -http localhost:8080 -journal wal/ -resume  # restart without loss
//	edgerepd -selfdrive -count 200000                  # in-process load driver
//	edgerepd -selfdrive -count 200000 -journal wal/ -proc-crash-after 120000
//	edgerepd -drive http://localhost:8080 -count 5000  # HTTP load driver
//
// See OPERATIONS.md for the runbook (endpoint map, journal layout, crash
// drills) and examples/streaming-admission for an end-to-end walkthrough.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"edgerep/internal/instrument"
	"edgerep/internal/journal"
	"edgerep/internal/online"
	"edgerep/internal/ops"
	"edgerep/internal/server"
	"edgerep/internal/workload"
)

func main() {
	var (
		httpAddr = flag.String("http", "", "serve admission + ops on this address (e.g. localhost:8080; :0 picks a free port)")

		seed     = flag.Int("seed", 1, "instance seed: topology and workload are a pure function of it")
		nodes    = flag.Int("nodes", 30, "network size |V| of the two-tier topology")
		datasets = flag.Int("datasets", 12, "number of datasets")
		queries  = flag.Int("queries", 60, "number of distinct queries in the instance (arrivals re-offer them)")
		fBound   = flag.Int("f", 5, "max demanded datasets per query")
		kBound   = flag.Int("k", 3, "replica bound K per dataset")
		expected = flag.Int("expected", 0, "expected total arrivals for the capacity price base (0: 1e6, or -count in selfdrive)")
		maxUtil  = flag.Float64("max-util", 0, "reject admissions pushing a node above this utilization (0 = 1.0)")
		fastPath = flag.Bool("fastpath", true, "price offers against precomputed feasibility tables (byte-identical decisions; false falls back to the full per-offer scan)")

		epochMax = flag.Int("epoch-max", 256, "micro-epoch size bound (queries); an epoch closes sooner whenever intake is empty")

		jdir      = flag.String("journal", "", "journal every admission decision to a WAL in this directory")
		resume    = flag.Bool("resume", false, "recover state from -journal before serving (online.Recover; refuses divergent journals)")
		snapEvery = flag.Int("snapshot-every", 20000, "snapshot engine state after every Nth journaled record (0 = WAL-only)")
		noSync    = flag.Bool("nosync", false, "skip the per-epoch group-commit fsync (load tests; crash durability is reduced to the page cache)")

		traceOut = flag.String("trace", "", "write the admission trace (deterministic JSONL) to this file")
		stats    = flag.Bool("stats", false, "print runtime counters to stderr on exit")

		attribution = flag.Bool("attribution", true, "stamp every decision with a per-stage latency timeline (queue/coalesce/lookup/pricing/journal/fsync/ack)")
		slo         = flag.Bool("slo", true, "track rolling 1m/5m/1h SLO attainment and burn rate, served on /slo")
		sloP95      = flag.Duration("slo-p95", 5*time.Millisecond, "admission-latency objective: 95% of decisions within this")
		sloP99      = flag.Duration("slo-p99", 25*time.Millisecond, "admission-latency objective: 99% of decisions within this")
		sloAttain   = flag.Float64("slo-attainment", 0.5, "deadline-attainment objective: fraction of offers that must be admitted")
		flightN     = flag.Int("flight", 512, "flight recorder depth: keep the last N decision timelines + lifecycle events on /debug/flight (0 disables)")

		selfdrive = flag.Bool("selfdrive", false, "replay a seeded workload through the in-process admission pipeline and report throughput")
		count     = flag.Int("count", 200000, "selfdrive/drive: total offers to submit")
		rate      = flag.Float64("rate", 0, "selfdrive: target offered load in queries/s of wall time (0 = as fast as possible)")
		pipeline  = flag.Int("pipeline", 512, "selfdrive/drive: max outstanding requests")
		driveSeed = flag.Int64("drive-seed", 7, "selfdrive: arrival-stream seed (query mix, model inter-arrivals, holds)")
		modelRate = flag.Float64("model-rate", 1000, "selfdrive: model-time arrival rate encoded in AtSec stamps")
		meanHold  = flag.Float64("hold", 30, "selfdrive: mean model hold time in seconds")
		crashN    = flag.Int("proc-crash-after", 0, "selfdrive fault injection: tear the WAL tail and kill -9 this process after the Nth decision (requires -journal)")

		driveURL = flag.String("drive", "", "drive a remote daemon: POST /admit batches against this base URL, then verify /metrics serves")
		batch    = flag.Int("batch", 64, "drive: queries per HTTP batch")

		region       = flag.String("region", "", "federation: region name; serves /ship + /federation next to /admit (leader mode)")
		shards       = flag.Int("shards", 1, "federation: number of regions; >1 masks foreign cloudlets and forwards cross-shard admissions")
		shard        = flag.Int("shard", 0, "federation: this region's shard index in [0, -shards)")
		peers        = flag.String("peers", "", "federation: comma list of shard=baseURL forwarding targets (e.g. 0=http://a:8080,1=http://b:8080)")
		term         = flag.Int64("term", 1, "federation: leadership term to serve under (must not regress the persisted term)")
		segmentBytes = flag.Int64("segment-bytes", 0, "federation: WAL segment rotation size in bytes (0 = 1MiB); smaller segments ship sooner")
		follow       = flag.String("follow", "", "federation: run as a warm standby of the leader at this base URL (requires -journal for the promoted WAL and -takeover)")
		takeover     = flag.String("takeover", "", "federation: the leader's journal directory to finish replay from at promotion")
		heartbeat    = flag.Duration("heartbeat", 500*time.Millisecond, "federation: follower manifest-poll (heartbeat) interval")
		failAfter    = flag.Int("failover-after", 3, "federation: consecutive missed heartbeats before the follower promotes itself")
		regions      = flag.Int("regions", 1, "selfdrive: >1 runs the in-process multi-region kill-the-leader drill instead of a single-engine drive")
		killAfter    = flag.Int("kill-leader-after", 0, "selfdrive drill: SIGKILL the shard-0 leader after this many offers (0 = half of -count)")
	)
	flag.Parse()
	if err := run(runConfig{
		httpAddr: *httpAddr,
		instance: server.InstanceConfig{Seed: int64(*seed), Nodes: *nodes, Datasets: *datasets, Queries: *queries, F: *fBound, K: *kBound},
		expected: *expected, maxUtil: *maxUtil, fastPath: *fastPath, epochMax: *epochMax,
		jdir: *jdir, resume: *resume, snapEvery: *snapEvery, noSync: *noSync,
		traceOut: *traceOut, stats: *stats,
		attribution: *attribution, slo: *slo, sloP95: *sloP95, sloP99: *sloP99,
		sloAttain: *sloAttain, flightN: *flightN,
		selfdrive: *selfdrive, count: *count, rate: *rate, pipeline: *pipeline,
		driveSeed: *driveSeed, modelRate: *modelRate, meanHold: *meanHold, crashN: *crashN,
		driveURL: *driveURL, batch: *batch,
		region: *region, shards: *shards, shard: *shard, peers: *peers, term: *term,
		segmentBytes: *segmentBytes, follow: *follow, takeover: *takeover,
		heartbeat: *heartbeat, failAfter: *failAfter, regions: *regions, killAfter: *killAfter,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "edgerepd: %v\n", err)
		os.Exit(1)
	}
}

type runConfig struct {
	httpAddr    string
	instance    server.InstanceConfig
	expected    int
	maxUtil     float64
	fastPath    bool
	epochMax    int
	jdir        string
	resume      bool
	snapEvery   int
	noSync      bool
	traceOut    string
	stats       bool
	attribution bool
	slo         bool
	sloP95      time.Duration
	sloP99      time.Duration
	sloAttain   float64
	flightN     int
	selfdrive   bool
	count       int
	rate        float64
	pipeline    int
	driveSeed   int64
	modelRate   float64
	meanHold    float64
	crashN      int
	driveURL    string
	batch       int

	region       string
	shards       int
	shard        int
	peers        string
	term         int64
	segmentBytes int64
	follow       string
	takeover     string
	heartbeat    time.Duration
	failAfter    int
	regions      int
	killAfter    int
}

func (c runConfig) expectedArrivals() int {
	if c.expected > 0 {
		return c.expected
	}
	if c.selfdrive {
		return c.count
	}
	return 1_000_000
}

func run(cfg runConfig) error {
	if cfg.driveURL != "" {
		return driveRemote(cfg)
	}
	if cfg.regions > 1 || cfg.follow != "" || cfg.region != "" || cfg.shards > 1 {
		return runFederation(cfg)
	}
	if !cfg.selfdrive && cfg.httpAddr == "" {
		return fmt.Errorf("nothing to do: pass -http to serve, -selfdrive to load-test in process, or -drive to load-test a remote daemon")
	}
	if (cfg.resume || cfg.crashN > 0) && cfg.jdir == "" {
		return fmt.Errorf("-resume and -proc-crash-after need -journal")
	}
	if cfg.stats {
		instrument.Enable()
		defer func() {
			fmt.Fprint(os.Stderr, instrument.FormatSnapshot(instrument.Snapshot()))
		}()
	}
	if cfg.attribution {
		// Stage histograms live in the instrument registry, so attribution
		// implies collection.
		instrument.Enable()
		instrument.EnableAttribution()
	}
	if cfg.slo {
		instrument.Enable()
		instrument.SetSLOTracker(instrument.NewSLOTracker(instrument.SLOConfig{
			LatencyP95Target: cfg.sloP95.Seconds(),
			LatencyP99Target: cfg.sloP99.Seconds(),
			AttainmentTarget: cfg.sloAttain,
		}))
	}
	if cfg.flightN > 0 {
		instrument.SetFlightRecorder(instrument.NewFlightRecorder(cfg.flightN, nil))
	}
	// Best-effort post-mortem evidence: a panic on this goroutine dumps the
	// flight recorder next to the journal before the process dies (SIGTERM
	// drain does the same below).
	defer func() {
		if r := recover(); r != nil {
			dumpFlight(cfg.jdir)
			panic(r)
		}
	}()
	if cfg.traceOut != "" {
		closeTrace, err := instrument.OpenTraceFile(cfg.traceOut)
		if err != nil {
			return err
		}
		defer func() {
			if err := closeTrace(); err != nil {
				fmt.Fprintf(os.Stderr, "edgerepd: close trace: %v\n", err)
			}
		}()
	}

	p, err := server.BuildInstance(cfg.instance)
	if err != nil {
		return err
	}

	opt := online.Options{MaxUtilization: cfg.maxUtil, SnapshotEvery: cfg.snapEvery, NoFastPath: !cfg.fastPath}
	var jn *journal.Journal
	var eng *online.Engine
	if cfg.jdir != "" {
		// Load first (tolerating a torn tail), then Open (which truncates
		// it), so the engine recovers exactly the acknowledged prefix and
		// appends from there.
		var st *journal.State
		if cfg.resume {
			if st, err = journal.Load(cfg.jdir); err != nil {
				return err
			}
			if st.Torn {
				fmt.Fprintf(os.Stderr, "edgerepd: journal had a torn tail; the unacknowledged record was dropped\n")
			}
		}
		// Group commit: the server fsyncs once per epoch, before it answers.
		if jn, err = journal.Open(cfg.jdir, journal.Options{NoSync: cfg.noSync, DeferSync: true}); err != nil {
			return err
		}
		defer func() {
			if err := jn.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "edgerepd: close journal: %v\n", err)
			}
		}()
		opt.Journal = jn
		if cfg.resume {
			// The trace sink is already attached, so the replayed offers
			// re-emit their events: a resumed daemon's trace is byte-
			// identical to one that never crashed.
			if eng, err = online.Recover(p, cfg.expectedArrivals(), opt, st); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "edgerepd: recovered %d decisions from %s (LSN %d)\n",
				len(eng.Result().Decisions), cfg.jdir, jn.LSN())
		}
	}
	if eng == nil {
		eng = online.NewEngine(p, cfg.expectedArrivals(), opt)
	}

	scfg := server.Config{EpochMaxQueries: cfg.epochMax}
	if cfg.selfdrive {
		// Deterministic mode: model time comes entirely from the arrival
		// stream's AtSec stamps, never the wall clock.
		scfg.Clock = func() float64 { return 0 }
	}
	s := server.New(p, eng, scfg)
	if cfg.crashN > 0 {
		s.CrashAfter(int64(cfg.crashN), func() {
			// Die "mid-write": tear the WAL tail the way a power cut would,
			// then kill -9 ourselves — no defers, no flushes.
			if err := jn.TearTail([]byte("edgerepd-proc-crash")); err != nil {
				fmt.Fprintf(os.Stderr, "edgerepd: tear tail: %v\n", err)
			}
			proc, err := os.FindProcess(os.Getpid())
			if err == nil {
				if err := proc.Kill(); err != nil {
					fmt.Fprintf(os.Stderr, "edgerepd: self-kill: %v\n", err)
				}
			}
			select {}
		})
	}

	if cfg.httpAddr != "" {
		addr, shutdown, err := server.Serve(cfg.httpAddr, s.Handler(ops.Handler()))
		if err != nil {
			return err
		}
		defer func() {
			if err := shutdown(); err != nil {
				fmt.Fprintf(os.Stderr, "edgerepd: shutdown listener: %v\n", err)
			}
		}()
		fmt.Printf("edgerepd: serving on http://%s\n", addr)
	}

	if cfg.selfdrive {
		start := len(eng.Result().Decisions)
		if start >= cfg.count {
			return fmt.Errorf("journal already holds %d decisions, nothing left of -count %d", start, cfg.count)
		}
		rep, err := server.Drive(s, server.DriveConfig{
			Count: cfg.count, Seed: cfg.driveSeed, RatePerSec: cfg.rate,
			Pipeline: cfg.pipeline, ModelRatePerSec: cfg.modelRate,
			MeanHoldSec: cfg.meanHold, StartIndex: start,
		})
		if err != nil {
			return err
		}
		fmt.Printf("edgerepd: selfdrive %s\n", rep)
		if err := s.Drain(); err != nil {
			return err
		}
		res := s.Result()
		fmt.Printf("edgerepd: final admitted=%d rejected=%d volume=%.1fGB peak-util=%.3f\n",
			res.Admitted, res.Rejected, res.VolumeAdmitted, res.PeakUtilization)
		return nil
	}

	// Serve until SIGTERM/SIGINT, then drain: finish the in-flight
	// micro-epoch, snapshot, exit.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	got := <-sig
	fmt.Fprintf(os.Stderr, "edgerepd: %v: draining\n", got)
	if err := s.Drain(); err != nil {
		return err
	}
	dumpFlight(cfg.jdir)
	res := s.Result()
	fmt.Fprintf(os.Stderr, "edgerepd: drained: admitted=%d rejected=%d volume=%.1fGB\n",
		res.Admitted, res.Rejected, res.VolumeAdmitted)
	return nil
}

// dumpFlight snapshots the flight recorder to <dir>/flight-snapshot.json —
// the automatic post-mortem artifact on SIGTERM drain or panic. No-op
// without an attached recorder or a journal directory to land it in.
func dumpFlight(dir string) {
	fr := instrument.CurrentFlightRecorder()
	if fr == nil || dir == "" {
		return
	}
	data, err := fr.DumpJSON()
	if err != nil {
		fmt.Fprintf(os.Stderr, "edgerepd: flight snapshot: %v\n", err)
		return
	}
	path := filepath.Join(dir, "flight-snapshot.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "edgerepd: flight snapshot: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "edgerepd: flight snapshot written to %s\n", path)
}

// driveRemote is the HTTP load driver: it POSTs -count queries in -batch
// sized /admit batches, reports the decision mix, and then asserts that
// /metrics serves the daemon's counters — the probe ci.sh's daemon gate
// relies on.
func driveRemote(cfg runConfig) error {
	base := cfg.driveURL
	client := &http.Client{Timeout: 30 * time.Second}
	if err := cfg.instance.Validate(); err != nil {
		return err
	}
	nq := cfg.instance.Queries
	admitted, rejected := 0, 0
	reasons := make(map[string]int)
	start := time.Now()
	for sent := 0; sent < cfg.count; {
		n := cfg.batch
		if rest := cfg.count - sent; n > rest {
			n = rest
		}
		reqs := make([]server.AdmitRequest, n)
		for i := range reqs {
			reqs[i] = server.AdmitRequest{Query: workload.QueryID((sent + i) % nq), HoldSec: 5}
		}
		body, err := json.Marshal(reqs)
		if err != nil {
			return err
		}
		resp, err := client.Post(base+"/admit", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("POST /admit: %w", err)
		}
		data, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); cerr != nil {
			return cerr
		}
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST /admit: %s: %s", resp.Status, bytes.TrimSpace(data))
		}
		var decs []server.AdmitResponse
		if err := json.Unmarshal(data, &decs); err != nil {
			return fmt.Errorf("decode /admit response: %w", err)
		}
		for _, d := range decs {
			if d.Admitted {
				admitted++
			} else {
				rejected++
				reasons[string(d.Reason)]++
			}
		}
		sent += n
	}
	elapsed := time.Since(start)
	fmt.Printf("edgerepd: drive %d offers in %s (%.0f decisions/s): admitted=%d rejected=%d",
		admitted+rejected, elapsed.Round(time.Millisecond),
		float64(admitted+rejected)/elapsed.Seconds(), admitted, rejected)
	names := make([]string, 0, len(reasons))
	for r := range reasons {
		names = append(names, r)
	}
	sort.Strings(names)
	for _, r := range names {
		fmt.Printf(" %s=%d", r, reasons[r])
	}
	fmt.Println()

	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return fmt.Errorf("GET /metrics: %w", err)
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil {
		return cerr
	}
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || !bytes.Contains(data, []byte("edgerep_server_offers")) {
		return fmt.Errorf("/metrics does not serve the daemon counters (status %s)", resp.Status)
	}
	fmt.Println("edgerepd: drive ok: /metrics serves the daemon counters")

	// The observability endpoints: live SLO windows and the flight recorder.
	// A 503 means the daemon was started with them off — noted, not fatal;
	// any other non-200, or a payload without the expected fields, is.
	for _, probe := range []struct{ path, want string }{
		{"/slo", "burn_rate"},
		{"/debug/flight", "entries"},
	} {
		resp, err := client.Get(base + probe.path)
		if err != nil {
			return fmt.Errorf("GET %s: %w", probe.path, err)
		}
		data, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); cerr != nil {
			return cerr
		}
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			fmt.Printf("edgerepd: drive: %s disabled on the daemon, skipping probe\n", probe.path)
			continue
		}
		if resp.StatusCode != http.StatusOK || !bytes.Contains(data, []byte(probe.want)) {
			return fmt.Errorf("%s does not serve live data (status %s)", probe.path, resp.Status)
		}
		fmt.Printf("edgerepd: drive ok: %s serves live data\n", probe.path)
	}
	return nil
}
