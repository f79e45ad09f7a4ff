package server

import (
	"bytes"
	"testing"
	"time"

	"edgerep/internal/instrument"
	"edgerep/internal/journal"
	"edgerep/internal/online"
)

// attributionOn enables latency attribution plus an SLO tracker and flight
// recorder for one test, restoring the inactive defaults afterwards.
func attributionOn(t *testing.T, flightN int) (*instrument.SLOTracker, *instrument.FlightRecorder) {
	t.Helper()
	tr := instrument.NewSLOTracker(instrument.SLOConfig{})
	fr := instrument.NewFlightRecorder(flightN, nil)
	instrument.EnableAttribution()
	instrument.SetSLOTracker(tr)
	instrument.SetFlightRecorder(fr)
	t.Cleanup(func() {
		instrument.DisableAttribution()
		instrument.SetSLOTracker(nil)
		instrument.SetFlightRecorder(nil)
	})
	return tr, fr
}

// TestAttributionStageTimelines drives decisions with attribution on and
// checks the full observability chain: every response carries a complete
// non-negative stage timeline, the SLO tracker saw every offer, the flight
// recorder holds decision entries with the same timeline shape, and the
// drive report's stage table covers all six stages with sane sums. Against
// a synced deferred-sync journal the fsync stage is the epoch's group
// commit, and the seven stages still fit inside the latency the caller saw.
func TestAttributionStageTimelines(t *testing.T) {
	t.Run("unjournaled", func(t *testing.T) {
		_, s := newTestServer(t, Config{})
		checkStageTimelines(t, s, false)
	})
	t.Run("synced journal", func(t *testing.T) {
		p := testInstance(t)
		jn, err := journal.Open(t.TempDir(), journal.Options{DeferSync: true})
		if err != nil {
			t.Fatal(err)
		}
		s := New(p, online.NewEngine(p, 10000, online.Options{Journal: jn}), Config{Clock: zeroClock})
		checkStageTimelines(t, s, true)
		if err := jn.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

func checkStageTimelines(t *testing.T, s *Server, synced bool) {
	tr, fr := attributionOn(t, 128)
	at := 0.0
	const offers = 64
	for i := 0; i < offers; i++ {
		at += 0.001
		start := time.Now()
		resp, err := s.Admit(AdmitRequest{Query: 0, AtSec: at, HoldSec: 0.01})
		e2e := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.StageNs) != int(instrument.NumStages) {
			t.Fatalf("response %d carries %d stage entries, want %d", i, len(resp.StageNs), instrument.NumStages)
		}
		var total int64
		for st, ns := range resp.StageNs {
			if ns < 0 {
				t.Fatalf("response %d stage %s negative: %d", i, instrument.StageNames[st], ns)
			}
			total += ns
		}
		if total <= 0 {
			t.Fatalf("response %d attributed zero total latency", i)
		}
		if total > int64(e2e) {
			t.Fatalf("response %d stages sum to %dns, more than the %v the caller waited", i, total, e2e)
		}
		if fsync := resp.StageNs[instrument.StageFsync]; (fsync > 0) != synced {
			t.Fatalf("response %d fsync stage %dns with synced=%v", i, fsync, synced)
		}
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}

	win := tr.Report().Windows[0]
	if win.Offers != offers {
		t.Fatalf("SLO 1m window saw %d offers, want %d", win.Offers, offers)
	}
	if win.Admitted+win.Rejected != offers {
		t.Fatalf("SLO window admits+rejects = %d, want %d", win.Admitted+win.Rejected, offers)
	}

	entries := fr.Entries()
	decisions, drains := 0, 0
	for _, e := range entries {
		switch e.Kind {
		case instrument.EventAdmit, instrument.EventReject:
			decisions++
			if len(e.Stages) != int(instrument.NumStages) || e.TotalNs <= 0 {
				t.Fatalf("flight decision entry malformed: %+v", e)
			}
		case instrument.EventDrain:
			drains++
		}
	}
	if decisions != offers {
		t.Fatalf("flight recorder holds %d decisions, want %d", decisions, offers)
	}
	if drains != 1 {
		t.Fatalf("flight recorder holds %d drain events, want 1", drains)
	}
}

// TestDriveReportStageTable exercises the load driver's attribution columns:
// six per-stage percentile rows, a stage-sum percentile no larger than the
// end-to-end percentile it partitions (the sum excludes only the response
// hand-off), and the rendered report naming every stage.
func TestDriveReportStageTable(t *testing.T) {
	attributionOn(t, 32)
	_, s := newTestServer(t, Config{})
	rep, err := Drive(s, DriveConfig{Count: 600, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Stages) != int(instrument.NumStages) {
		t.Fatalf("report has %d stage rows, want %d", len(rep.Stages), instrument.NumStages)
	}
	for i, st := range rep.Stages {
		if st.Stage != instrument.StageNames[i] {
			t.Fatalf("stage row %d is %q, want %q", i, st.Stage, instrument.StageNames[i])
		}
		if st.P50 > st.P95 || st.P95 > st.P99 {
			t.Fatalf("stage %s percentiles not monotone: %+v", st.Stage, st)
		}
	}
	if rep.StageSumP50 <= 0 {
		t.Fatalf("stage-sum p50 = %v, want > 0", rep.StageSumP50)
	}
	rendered := rep.String()
	for _, name := range instrument.StageNames {
		if !bytes.Contains([]byte(rendered), []byte("stage "+name)) &&
			!bytes.Contains([]byte(rendered), []byte(name)) {
			t.Fatalf("rendered report misses stage %q:\n%s", name, rendered)
		}
	}
}

// TestAttributionTraceBytesIdentical is the determinism half of the
// attribution contract: the JSONL trace of a seeded drive is byte-identical
// with attribution on and off, because the deterministic sink drops StageNs
// with the other timing fields.
func TestAttributionTraceBytesIdentical(t *testing.T) {
	runTraced := func(attr bool) []byte {
		p := testInstance(t)
		instrument.ResetTrace()
		var buf bytes.Buffer
		sink := instrument.NewJSONLSink(&buf)
		instrument.SetTraceSink(sink)
		defer instrument.ResetTrace()
		if attr {
			attributionOn(t, 128)
		}
		s := New(p, online.NewEngine(p, 1500, online.Options{}), Config{Clock: zeroClock})
		if _, err := Drive(s, DriveConfig{Count: 1500, Seed: 29}); err != nil {
			t.Fatal(err)
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		instrument.ResetTrace()
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		if attr {
			instrument.DisableAttribution()
			instrument.SetSLOTracker(nil)
			instrument.SetFlightRecorder(nil)
		}
		return buf.Bytes()
	}

	plain := runTraced(false)
	attributed := runTraced(true)
	if len(plain) == 0 {
		t.Fatal("drive emitted no trace")
	}
	if !bytes.Equal(plain, attributed) {
		t.Fatalf("attribution changed the deterministic trace bytes (%d vs %d bytes)",
			len(plain), len(attributed))
	}
}

// TestAttributionOffNoStageNs confirms the off path: responses carry no
// timeline, and the drive report has no stage table.
func TestAttributionOffNoStageNs(t *testing.T) {
	instrument.DisableAttribution()
	_, s := newTestServer(t, Config{})
	resp, err := s.Admit(AdmitRequest{Query: 0, AtSec: 0.001, HoldSec: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if resp.StageNs != nil {
		t.Fatalf("attribution off but response carries StageNs %v", resp.StageNs)
	}
	rep, err := Drive(s, DriveConfig{Count: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Stages) != 0 || rep.StageSumP95 != 0 {
		t.Fatalf("attribution off but report has stage table: %+v", rep.Stages)
	}
}
