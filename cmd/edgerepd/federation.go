// Federation modes of edgerepd: regional leader (serves /admit with term
// fencing plus /ship and /federation), warm follower (-follow: ships the
// leader's sealed WAL segments, promotes itself on missed heartbeats), and
// the in-process multi-region chaos drill (-selfdrive -regions N). See
// OPERATIONS.md, "Multi-region failover drill".

package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"edgerep/internal/federation"
	"edgerep/internal/instrument"
	"edgerep/internal/ops"
	"edgerep/internal/server"
)

func (c runConfig) fedConfig() federation.Config {
	name := c.region
	if name == "" {
		name = fmt.Sprintf("r%d", c.shard)
	}
	return federation.Config{
		Region:             name,
		Instance:           c.instance,
		Shards:             c.shards,
		Shard:              c.shard,
		ExpectedArrivals:   c.expectedArrivals(),
		MaxUtilization:     c.maxUtil,
		SnapshotEvery:      c.snapEvery,
		SegmentBytes:       c.segmentBytes,
		NoSync:             c.noSync,
		EpochMaxQueries:    c.epochMax,
		DeterministicClock: c.selfdrive,
		NoFastPath:         !c.fastPath,
	}
}

// parsePeers decodes "0=http://a:8080,1=http://b:8080" into a shard→URL map.
func parsePeers(spec string) (map[int]string, error) {
	peers := make(map[int]string)
	if spec == "" {
		return peers, nil
	}
	for _, part := range strings.Split(spec, ",") {
		shard, url, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("-peers entry %q is not shard=baseURL", part)
		}
		idx, err := strconv.Atoi(shard)
		if err != nil {
			return nil, fmt.Errorf("-peers entry %q: %w", part, err)
		}
		peers[idx] = strings.TrimRight(url, "/")
	}
	return peers, nil
}

// runFederation dispatches the three federation modes.
func runFederation(cfg runConfig) error {
	switch {
	case cfg.regions > 1:
		if !cfg.selfdrive {
			return fmt.Errorf("-regions > 1 needs -selfdrive (the multi-region drill is an in-process load run)")
		}
		return runFederationDrill(cfg)
	case cfg.follow != "":
		return runFollower(cfg)
	default:
		return runFederatedLeader(cfg)
	}
}

// runFederationDrill is -selfdrive -regions N: the full kill-the-leader
// chaos drill (federation.RunDrill) with the exactly-once audit, printed as
// one JSON report line the CI gate parses.
func runFederationDrill(cfg runConfig) error {
	if cfg.jdir == "" {
		return fmt.Errorf("-regions drill needs -journal as the base directory for the per-region WALs")
	}
	if cfg.stats {
		instrument.Enable()
		defer func() {
			fmt.Fprint(os.Stderr, instrument.FormatSnapshot(instrument.Snapshot()))
		}()
	}
	rep, err := federation.RunDrill(federation.DrillConfig{
		Regions:         cfg.regions,
		Instance:        cfg.instance,
		Count:           cfg.count,
		Seed:            cfg.driveSeed,
		BaseDir:         cfg.jdir,
		KillAfter:       cfg.killAfter,
		SegmentBytes:    cfg.segmentBytes,
		ModelRatePerSec: cfg.modelRate,
		MeanHoldSec:     cfg.meanHold,
		TraceOut:        cfg.traceOut,
		NoFastPath:      !cfg.fastPath,
	})
	if err != nil {
		return err
	}
	data, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Printf("edgerepd: drill %s\n", data)
	fmt.Printf("edgerepd: drill ok: %d/%d acked exactly-once across the failover, term %d -> %d, promotion gap %.4fs model time\n",
		rep.Acked, rep.Offers, rep.OldTerm, rep.NewTerm, rep.PromotionGapModelSec)
	return nil
}

// runFederatedLeader serves one region: a term-fenced admission server over
// a journaling (and shard-masked, when -shards > 1) engine, with /ship and
// /federation mounted behind /admit so followers replicate off the same
// port.
func runFederatedLeader(cfg runConfig) error {
	if cfg.jdir == "" {
		return fmt.Errorf("a federated leader needs -journal (followers ship its sealed segments)")
	}
	if cfg.httpAddr == "" {
		return fmt.Errorf("a federated leader needs -http")
	}
	if cfg.stats {
		instrument.Enable()
		defer func() {
			fmt.Fprint(os.Stderr, instrument.FormatSnapshot(instrument.Snapshot()))
		}()
	}
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
	fed := cfg.fedConfig()
	l, err := federation.StartLeader(fed, cfg.jdir, cfg.term)
	if err != nil {
		return err
	}
	peers, err := parsePeers(cfg.peers)
	if err != nil {
		return err
	}
	if len(peers) > 0 {
		l.Server().SetRouter(&server.Router{
			Self:  cfg.shard,
			Owner: federation.OwnerFunc(l.Problem(), cfg.shards),
			Peers: peers,
		})
	}
	addr, shutdown, err := server.Serve(cfg.httpAddr, l.Server().Handler(l.Handler(ops.Handler())))
	if err != nil {
		return err
	}
	defer func() {
		if err := shutdown(); err != nil {
			fmt.Fprintf(os.Stderr, "edgerepd: shutdown listener: %v\n", err)
		}
	}()
	fmt.Printf("edgerepd: leading region %s shard %d/%d term %d (LSN %d)\n",
		l.Region(), l.Shard(), cfg.shards, l.Term(), l.Journal().LSN())
	fmt.Printf("edgerepd: serving on http://%s\n", addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	got := <-sig
	fmt.Fprintf(os.Stderr, "edgerepd: %v: draining\n", got)
	if err := l.Drain(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "edgerepd: drained at term %d (LSN %d)\n", l.Term(), l.Journal().LSN())
	return nil
}

// swapHandler atomically swaps its delegate — promotion turns the follower's
// 503-ing /admit into the new leader's fenced admission handler without
// rebinding the listener.
type swapHandler struct {
	h atomic.Pointer[http.Handler]
}

func (s *swapHandler) set(h http.Handler) { s.h.Store(&h) }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

// runFollower ships the leader's WAL into a warm standby, serving
// /federation and a replication-aware /healthz. When the leader misses
// -failover-after consecutive heartbeats, the follower finishes replay from
// -takeover, bumps the term, and starts serving admissions itself.
func runFollower(cfg runConfig) error {
	if cfg.jdir == "" || cfg.takeover == "" {
		return fmt.Errorf("-follow needs -journal (the promoted WAL directory) and -takeover (the leader's journal directory)")
	}
	if cfg.httpAddr == "" {
		return fmt.Errorf("a follower needs -http")
	}
	fed := cfg.fedConfig()
	standby, err := federation.NewStandby(fed, federation.NewHTTPTransport(strings.TrimRight(cfg.follow, "/"), 2*time.Second))
	if err != nil {
		return err
	}
	var handler swapHandler
	handler.set(standby.FollowerHandler())
	addr, shutdown, err := server.Serve(cfg.httpAddr, &handler)
	if err != nil {
		return err
	}
	defer func() {
		if err := shutdown(); err != nil {
			fmt.Fprintf(os.Stderr, "edgerepd: shutdown listener: %v\n", err)
		}
	}()
	fmt.Printf("edgerepd: following %s (region %s shard %d/%d, heartbeat %s, failover after %d misses)\n",
		cfg.follow, fed.Region, fed.Shard, cfg.shards, cfg.heartbeat, cfg.failAfter)
	fmt.Printf("edgerepd: serving on http://%s\n", addr)

	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	// The signal relay lives for the process; Follow returning ends the
	// daemon either way.
	go func() {
		<-sig
		close(stop)
	}()

	err = standby.Follow(cfg.heartbeat, cfg.failAfter, stop)
	if err == nil {
		fmt.Fprintf(os.Stderr, "edgerepd: follower stopped at LSN %d (leader term %d)\n", standby.LSN(), standby.LeaderTerm())
		return nil
	}
	if !errors.Is(err, federation.ErrLeaderLost) {
		return err
	}
	fmt.Fprintf(os.Stderr, "edgerepd: %v\n", err)
	l, err := standby.Promote(cfg.takeover, cfg.jdir)
	if err != nil {
		return err
	}
	peers, err := parsePeers(cfg.peers)
	if err != nil {
		return err
	}
	if len(peers) > 0 {
		l.Server().SetRouter(&server.Router{
			Self:  cfg.shard,
			Owner: federation.OwnerFunc(l.Problem(), cfg.shards),
			Peers: peers,
		})
	}
	handler.set(l.Server().Handler(l.Handler(ops.Handler())))
	fmt.Printf("edgerepd: promoted to term %d (LSN %d), serving admissions\n", l.Term(), l.Journal().LSN())

	// The relay goroutine owns the signal channel; promotion just waits on
	// the same stop it closes.
	<-stop
	fmt.Fprintf(os.Stderr, "edgerepd: signal: draining\n")
	if err := l.Drain(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "edgerepd: drained at term %d (LSN %d)\n", l.Term(), l.Journal().LSN())
	return nil
}
