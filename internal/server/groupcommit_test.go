package server

import (
	"encoding/json"
	"testing"

	"edgerep/internal/instrument"
	"edgerep/internal/journal"
	"edgerep/internal/online"
	"edgerep/internal/workload"
)

// lastRecord loads dir and decodes its final WAL record.
func lastRecord(t *testing.T, dir string) (online.JournalRecord, int) {
	t.Helper()
	st, err := journal.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	var rec online.JournalRecord
	if len(st.Records) == 0 {
		return rec, 0
	}
	if err := json.Unmarshal(st.Records[len(st.Records)-1], &rec); err != nil {
		t.Fatal(err)
	}
	return rec, len(st.Records)
}

// TestGroupCommitOneFsyncPerEpoch holds the epoch loop (the server is built
// without it), queues 64 offers against a synced deferred-sync journal, and
// then starts the loop: the whole backlog is one epoch, made durable by one
// commit before the first ack. No timing is involved — the queue is full
// before the loop takes anything, and each ack is a rendezvous. Crash and
// Restore between epochs commit their own records before they return.
func TestGroupCommitOneFsyncPerEpoch(t *testing.T) {
	if !instrument.Enabled() {
		instrument.Enable()
		t.Cleanup(instrument.Disable)
	}
	syncs := instrument.NewCounter("journal.syncs")

	p := testInstance(t)
	dir := t.TempDir()
	jn, err := journal.Open(dir, journal.Options{DeferSync: true})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(p, online.NewEngine(p, 10000, online.Options{Journal: jn}), Config{Clock: zeroClock})

	// Unbuffered reply channels make every delivery a rendezvous: while
	// the test inspects ack i, the loop is parked on that very send, so
	// whatever the loop did before delivering it has happened and nothing
	// after it has.
	const offers = 64
	chans := make([]chan result, offers)
	for i := range chans {
		chans[i] = make(chan result)
		req := AdmitRequest{Query: workload.QueryID(i % len(p.Queries)), AtSec: 0.001 * float64(i+1), HoldSec: 0.5}
		s.reqs <- &pending{req: req, resp: chans[i]}
	}
	before := syncs.Value()
	go s.run()

	for i, ch := range chans {
		res := <-ch
		if res.err != nil {
			t.Fatal(res.err)
		}
		// The ack must follow the epoch's commit: the fsync has run and
		// the decision's record is in the journal.
		if syncs.Value() == before {
			t.Fatalf("ack %d arrived before any fsync", i)
		}
		st, err := journal.Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Records) < i+1 {
			t.Fatalf("ack %d received with only %d records journaled", i, len(st.Records))
		}
		var rec online.JournalRecord
		if err := json.Unmarshal(st.Records[i], &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Kind != "offer" || rec.Query != int64(res.resp.Query) ||
			(rec.Outcome.Event == instrument.EventAdmit) != res.resp.Admitted {
			t.Fatalf("record %d = %+v does not match ack %+v", i+1, rec, res.resp)
		}
	}
	if got := syncs.Value() - before; got > 2 {
		t.Fatalf("%d decisions cost %d fsyncs, want at most 2", offers, got)
	}
	if got := s.Epochs(); got != 1 {
		t.Fatalf("a queued backlog of %d offers took %d epochs, want 1", offers, got)
	}

	v := p.Cloud.ComputeNodes()[0]
	before = syncs.Value()
	if _, err := s.Crash(v); err != nil {
		t.Fatal(err)
	}
	if syncs.Value() == before {
		t.Fatal("Crash returned without an fsync")
	}
	if rec, n := lastRecord(t, dir); rec.Kind != "crash" || rec.Node != int64(v) || n != offers+1 {
		t.Fatalf("after Crash the journal ends with %+v (%d records)", rec, n)
	}
	before = syncs.Value()
	if err := s.Restore(v); err != nil {
		t.Fatal(err)
	}
	if syncs.Value() == before {
		t.Fatal("Restore returned without an fsync")
	}
	if rec, n := lastRecord(t, dir); rec.Kind != "restore" || rec.Node != int64(v) || n != offers+2 {
		t.Fatalf("after Restore the journal ends with %+v (%d records)", rec, n)
	}

	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}
}
