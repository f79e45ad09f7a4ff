// The follower half of the control plane: a Standby pulls sealed segments
// from its leader on a heartbeat cadence, replays them into a warm engine,
// and — when the leader stops answering — finishes replay from the dead
// leader's journal directory, bumps the term, and comes up as the new
// leader. The manifest poll IS the heartbeat: a leader that can describe its
// WAL is alive, and one that can't for FailAfter consecutive polls is not.

package federation

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"edgerep/internal/instrument"
	"edgerep/internal/journal"
	"edgerep/internal/online"
	"edgerep/internal/placement"
	"edgerep/internal/server"
)

// ErrLeaderLost is wrapped by Follow when the leader has missed enough
// consecutive heartbeats that the standby should promote.
var ErrLeaderLost = errors.New("federation: leader lost")

// Standby is a warm replica of one shard's leader: a Rehydrator fed shipped
// WAL segments. Safe for concurrent use — the sync loop and the status/
// health endpoints serialize on one mutex.
type Standby struct {
	cfg Config
	p   *placement.Problem

	mu         sync.Mutex
	tr         Transport
	reh        *online.Rehydrator
	lastSeg    int   // highest sealed segment applied
	leaderTerm int64 // from the last good manifest
	leaderLSN  int64
	misses     int  // consecutive failed manifest polls
	stalled    bool // last sync exhausted its retries
	promoted   bool
}

// NewStandby builds a follower for cfg's shard, replicating via tr. The
// standby starts empty (LSN 0) and catches up from the first manifest.
func NewStandby(cfg Config, tr Transport) (*Standby, error) {
	p, err := server.BuildInstance(cfg.Instance)
	if err != nil {
		return nil, err
	}
	reh, err := online.NewRehydrator(p, cfg.ExpectedArrivals, engineOptions(cfg), &journal.State{})
	if err != nil {
		return nil, err
	}
	return &Standby{cfg: cfg, p: p, tr: tr, reh: reh}, nil
}

// SetTransport repoints the standby at a different leader endpoint (an
// operator moving a follower after a network change).
func (s *Standby) SetTransport(tr Transport) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tr = tr
}

// SyncOnce performs one heartbeat: poll the manifest, pull and replay every
// newly sealed segment in order, update the replication-lag gauge. A
// transport error (retries already exhausted inside the transport) counts a
// missed heartbeat and flips the stalled flag; any successful poll clears
// both.
func (s *Standby) SyncOnce() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoted {
		return fmt.Errorf("federation: standby already promoted")
	}
	m, err := s.tr.Manifest()
	if err != nil {
		s.misses++
		s.stalled = true
		statHeartbeatMisses.Inc()
		return fmt.Errorf("federation: heartbeat %d missed: %w", s.misses, err)
	}
	s.misses = 0
	s.stalled = false
	s.leaderTerm = m.Term
	s.leaderLSN = m.LSN
	for _, seal := range m.Segments {
		if seal.Segment <= s.lastSeg {
			continue
		}
		if seal.Segment != s.lastSeg+1 {
			return fmt.Errorf("federation: manifest skips from segment %d to %d", s.lastSeg, seal.Segment)
		}
		start := time.Now()
		data, err := s.tr.Segment(seal)
		if err != nil {
			s.stalled = true
			return fmt.Errorf("federation: ship segment %d: %w", seal.Segment, err)
		}
		recs, consumed, err := journal.DecodeSegment(data)
		if err != nil || consumed != len(data) {
			return fmt.Errorf("federation: sealed segment %d undecodable (consumed %d of %d): %w",
				seal.Segment, consumed, len(data), err)
		}
		for _, rec := range recs {
			if err := s.reh.Apply(rec); err != nil {
				return fmt.Errorf("federation: replay segment %d: %w", seal.Segment, err)
			}
		}
		s.lastSeg = seal.Segment
		statShipSegments.Inc()
		timerShip.Observe(time.Since(start))
	}
	gaugeReplicationLag.Set(float64(s.leaderLSN - s.reh.LSN()))
	return nil
}

// Follow polls on the given cadence until stop closes or the leader misses
// failAfter consecutive heartbeats, in which case it returns an error
// wrapping ErrLeaderLost — the daemon's cue to Promote. Replay errors
// (divergence, corruption) abort immediately: promoting a bad replica is
// worse than not promoting.
func (s *Standby) Follow(interval time.Duration, failAfter int, stop <-chan struct{}) error {
	if failAfter <= 0 {
		failAfter = 3
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return nil
		case <-tick.C:
		}
		if err := s.SyncOnce(); err != nil {
			if s.Misses() >= failAfter {
				return fmt.Errorf("%w: %d consecutive heartbeats missed: %w", ErrLeaderLost, s.Misses(), err)
			}
			if s.Misses() == 0 {
				// Not a heartbeat miss: the manifest answered but replay or
				// verification failed. Divergent or corrupt history must
				// never be promoted.
				return err
			}
		}
	}
}

// Misses returns the consecutive missed-heartbeat count.
func (s *Standby) Misses() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.misses
}

// Stalled reports whether the last sync exhausted its retries.
func (s *Standby) Stalled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stalled
}

// LSN returns the standby's replication position.
func (s *Standby) LSN() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reh.LSN()
}

// LeaderTerm returns the term from the last good manifest.
func (s *Standby) LeaderTerm() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.leaderTerm
}

// Lag returns the last observed leader LSN minus the applied LSN.
func (s *Standby) Lag() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.leaderLSN - s.reh.LSN()
}

// Promote turns the standby into the shard's new leader. takeoverDir is the
// dead leader's journal directory (a shared/replicated mount in production,
// the literal directory in drills): the standby replays every durable record
// past its replication position — the shipped stream stops at the last
// sealed segment, the takeover read continues through the active segment's
// durable prefix, and a torn tail (the mid-write death) is dropped by
// journal.Load exactly as crash recovery would drop it. Every record that
// was acked is therefore replayed exactly once; the only thing lost is work
// that was never acknowledged.
//
// The new leader journals to newDir: a fresh WAL opened with a full
// snapshot at LSN 0, so the handoff state is self-contained and auditable
// (invariant.CheckFailover re-derives it from the old journal and compares).
// Its term is max(last manifest term, dead leader's persisted term) + 1.
func (s *Standby) Promote(takeoverDir, newDir string) (*Leader, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoted {
		return nil, fmt.Errorf("federation: standby already promoted")
	}
	st, err := journal.Load(takeoverDir)
	if err != nil {
		return nil, fmt.Errorf("federation: load takeover journal: %w", err)
	}
	if int64(len(st.Records)) < s.reh.LSN() {
		return nil, fmt.Errorf("federation: takeover journal has %d records, standby replayed %d",
			len(st.Records), s.reh.LSN())
	}
	for i := s.reh.LSN(); i < int64(len(st.Records)); i++ {
		if err := s.reh.Apply(st.Records[i]); err != nil {
			return nil, fmt.Errorf("federation: finish replay at LSN %d: %w", i+1, err)
		}
	}
	term := s.leaderTerm
	if persisted, err := ReadTerm(takeoverDir); err != nil {
		return nil, err
	} else if persisted > term {
		term = persisted
	}
	term++
	jn, err := journal.Open(newDir, journal.Options{SegmentBytes: s.cfg.SegmentBytes, NoSync: s.cfg.NoSync, DeferSync: true})
	if err != nil {
		return nil, fmt.Errorf("federation: open promoted journal: %w", err)
	}
	opt := engineOptions(s.cfg)
	opt.Journal = jn
	eng := s.reh.Promote(opt)
	// The handoff snapshot (LSN 0 of the new WAL) makes the promoted journal
	// self-contained: recovery and audit never need the old directory.
	if err := eng.SnapshotNow(); err != nil {
		return nil, fmt.Errorf("federation: handoff snapshot: %w", err)
	}
	if err := WriteTerm(newDir, term); err != nil {
		return nil, err
	}
	srv := server.New(s.p, eng, serverConfig(s.cfg))
	srv.SetTerm(term)
	s.promoted = true
	statFailovers.Inc()
	return &Leader{cfg: s.cfg, p: s.p, jn: jn, srv: srv, dir: newDir, dead: make(chan struct{})}, nil
}

// Status is the follower's /federation payload.
type Status struct {
	Role       string `json:"role"`
	Region     string `json:"region"`
	Shard      int    `json:"shard"`
	LeaderTerm int64  `json:"leader_term"`
	LSN        int64  `json:"lsn"`
	LagRecords int64  `json:"lag_records"`
	SyncedSegs int    `json:"synced_segments"`
	Misses     int    `json:"heartbeat_misses"`
	Stalled    bool   `json:"stalled"`
}

// Status snapshots the follower's replication state.
func (s *Standby) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Status{
		Role:       "follower",
		Region:     s.cfg.Region,
		Shard:      s.cfg.Shard,
		LeaderTerm: s.leaderTerm,
		LSN:        s.reh.LSN(),
		LagRecords: s.leaderLSN - s.reh.LSN(),
		SyncedSegs: s.lastSeg,
		Misses:     s.misses,
		Stalled:    s.stalled,
	}
}

// HealthzHandler is the follower's /healthz: 200 while replication is
// keeping up, 503 "replication-stalled" once ship retries have been
// exhausted — load balancers must not promote-by-accident a follower that
// cannot even reach its leader's history.
func (s *Standby) HealthzHandler(w http.ResponseWriter, _ *http.Request) {
	if s.Stalled() {
		http.Error(w, string(instrument.ReasonReplicationStalled), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if _, err := w.Write([]byte("ok\n")); err != nil {
		return
	}
}
