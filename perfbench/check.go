package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"edgerep/internal/instrument"
	"edgerep/internal/journal"
	"edgerep/internal/online"
	"edgerep/internal/placement"
	"edgerep/internal/server"
)

// onlineReasons are the rejection reasons an unfederated daemon may give.
var onlineReasons = map[instrument.Reason]bool{
	instrument.ReasonDeadline:         true,
	instrument.ReasonCapacity:         true,
	instrument.ReasonKBound:           true,
	instrument.ReasonDisconnected:     true,
	instrument.ReasonBundleInfeasible: true,
	instrument.ReasonNodeCrashed:      true,
}

// verification is the correctness gate's outcome plus what it measured on
// the way: the problem it rebuilt and the timed journal.Load and
// online.Recover over the journal the kill left behind.
type verification struct {
	violations []string
	p          *placement.Problem
	load       time.Duration
	replay     time.Duration
	records    int // journal records replayed past the snapshot
	walBytes   int64
	decisions  int
}

// verify runs the correctness gate once the daemon is gone. Every answered
// offer must carry a decision for the offered query: an admit with one
// assignment per demanded dataset, or a reject with a typed reason. The
// journal the SIGKILL left must load and recover (online.Recover with the
// daemon's instance and options; ErrDivergent is a violation), and hold
// every decision acked before the kill exactly once with the same outcome.
func verify(r *run) (*verification, error) {
	p, err := server.BuildInstance(r.w.instance())
	if err != nil {
		return nil, err
	}
	v := &verification{p: p}
	for _, ph := range r.allPhases() {
		for i, o := range ph.out {
			if o.ok {
				v.checkDecision(ph.offers[i], o.resp)
			}
		}
	}
	if err := v.checkRecovery(filepath.Join(r.dir, "wal-killed"), r.ackedBeforeKill()); err != nil {
		return nil, err
	}
	return v, nil
}

func (v *verification) violate(format string, args ...any) {
	if len(v.violations) < 20 {
		v.violations = append(v.violations, fmt.Sprintf(format, args...))
	}
}

func (v *verification) checkDecision(of offer, resp server.AdmitResponse) {
	if int(resp.Query) != of.query {
		v.violate("offer of query %d answered for query %d", of.query, resp.Query)
		return
	}
	q := v.p.Queries[of.query]
	if !resp.Admitted {
		if !onlineReasons[resp.Reason] || len(resp.Assignments) > 0 {
			v.violate("query %d rejected with reason %q and %d assignments", of.query, resp.Reason, len(resp.Assignments))
		}
		return
	}
	want := make([]int, 0, len(q.Demands))
	for _, d := range q.Demands {
		want = append(want, int(d.Dataset))
	}
	got := make([]int, 0, len(resp.Assignments))
	n := v.p.Cloud.Topology().Graph.NumNodes()
	for _, a := range resp.Assignments {
		got = append(got, int(a.Dataset))
		if int(a.Node) < 0 || int(a.Node) >= n {
			v.violate("query %d assigned to node %d outside [0,%d)", of.query, a.Node, n)
		}
	}
	sort.Ints(want)
	sort.Ints(got)
	if fmt.Sprint(want) != fmt.Sprint(got) {
		v.violate("query %d admitted with datasets %v, demands %v", of.query, got, want)
	}
}

type ackKey struct {
	query int64
	at    uint64
}

// checkRecovery loads and recovers the killed journal and matches acked
// decisions to records by (query, effective arrival time): each acked
// decision must match exactly one record, with the same outcome both in
// the record and in the recovered engine's decision at that position.
// Nothing was in flight at the kill, so every record must be acked.
func (v *verification) checkRecovery(dir string, acked []*phase) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".seg") {
			info, err := e.Info()
			if err != nil {
				return err
			}
			v.walBytes += info.Size()
		}
	}
	t0 := time.Now()
	st, err := journal.Load(dir)
	v.load = time.Since(t0)
	if err != nil {
		v.violate("journal.Load after SIGKILL: %v", err)
		return nil
	}
	v.decisions = len(st.Records)
	v.records = len(st.Records) - int(st.SnapshotLSN)
	t0 = time.Now()
	eng, err := online.Recover(v.p, expectedArrivals, online.Options{SnapshotEvery: snapshotEvery}, st)
	v.replay = time.Since(t0)
	if err != nil {
		if errors.Is(err, online.ErrDivergent) {
			v.violate("online.Recover diverged from the journal: %v", err)
		} else {
			v.violate("online.Recover: %v", err)
		}
		return nil
	}
	decs := eng.Result().Decisions
	if len(decs) != len(st.Records) {
		v.violate("recovered %d decisions from %d journal records", len(decs), len(st.Records))
		return nil
	}
	recs := make([]online.JournalRecord, len(st.Records))
	index := make(map[ackKey]int, len(recs))
	for i, raw := range st.Records {
		if err := json.Unmarshal(raw, &recs[i]); err != nil {
			v.violate("journal record %d: %v", i+1, err)
			return nil
		}
		if recs[i].Kind != "offer" || recs[i].Outcome == nil {
			v.violate("journal record %d is %q, want an offer with its outcome", i+1, recs[i].Kind)
			return nil
		}
		k := ackKey{recs[i].Query, math.Float64bits(recs[i].At)}
		if _, dup := index[k]; dup {
			v.violate("journal records two offers of query %d at %v", recs[i].Query, recs[i].At)
		}
		index[k] = i
	}
	seen := make([]bool, len(recs))
	nAcked := 0
	for _, ph := range acked {
		for _, o := range ph.out {
			if !o.ok {
				continue
			}
			nAcked++
			i, found := index[ackKey{int64(o.resp.Query), math.Float64bits(o.resp.AtSec)}]
			if !found {
				v.violate("acked decision (query %d at %v) is not in the journal", o.resp.Query, o.resp.AtSec)
				continue
			}
			if seen[i] {
				v.violate("journal record %d answers two acked offers", i+1)
				continue
			}
			seen[i] = true
			rec, dec := recs[i], decs[i]
			if (rec.Outcome.Event == instrument.EventAdmit) != o.resp.Admitted || dec.Admitted != o.resp.Admitted {
				v.violate("record %d: acked admitted=%v, journal %s, recovered admitted=%v",
					i+1, o.resp.Admitted, rec.Outcome.Event, dec.Admitted)
				continue
			}
			if !o.resp.Admitted {
				continue
			}
			if len(rec.Outcome.Datasets) != len(o.resp.Assignments) || len(dec.Assignments) != len(o.resp.Assignments) {
				v.violate("record %d: assignment counts differ (acked %d, journal %d, recovered %d)",
					i+1, len(o.resp.Assignments), len(rec.Outcome.Datasets), len(dec.Assignments))
				continue
			}
			for j, a := range o.resp.Assignments {
				if rec.Outcome.Datasets[j] != int64(a.Dataset) || rec.Outcome.Nodes[j] != int64(a.Node) ||
					dec.Assignments[j].Dataset != a.Dataset || dec.Assignments[j].Node != a.Node {
					v.violate("record %d demand %d: acked (%d,%d) differs from journal or recovery", i+1, j, a.Dataset, a.Node)
				}
			}
		}
	}
	if nAcked != len(recs) {
		v.violate("%d decisions acked before the kill, %d in the journal", nAcked, len(recs))
	}
	return nil
}
