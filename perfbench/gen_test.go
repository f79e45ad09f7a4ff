package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edgerep/internal/instrument"
	"edgerep/internal/server"
)

// stub is an in-process /admit stand-in: one request at a time (like the
// daemon's single epoch loop) with a fixed service delay, and one stall of
// stallFor while serving the offer of stallQuery.
type stub struct {
	service, stallFor time.Duration
	stallQuery        int

	mu                   sync.Mutex
	conns, active, peak  atomic.Int64
	sawBatch, sawSingles atomic.Bool
}

func (s *stub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if n := s.active.Add(1); n > s.peak.Load() {
		s.peak.Store(n)
	}
	defer s.active.Add(-1)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var reqs []server.AdmitRequest
	single := len(body) > 0 && body[0] == '{'
	if single {
		var one server.AdmitRequest
		err = json.Unmarshal(body, &one)
		reqs = []server.AdmitRequest{one}
		s.sawSingles.Store(true)
	} else {
		err = json.Unmarshal(body, &reqs)
		s.sawBatch.Store(true)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	time.Sleep(s.service)
	for _, q := range reqs {
		if int(q.Query) == s.stallQuery {
			time.Sleep(s.stallFor)
		}
	}
	s.mu.Unlock()
	resps := make([]server.AdmitResponse, len(reqs))
	for i, q := range reqs {
		resps[i] = server.AdmitResponse{Query: q.Query, Reason: instrument.ReasonCapacity, Dataset: -1, Node: -1}
	}
	var out any = resps
	if single {
		out = resps[0]
	}
	if err := json.NewEncoder(w).Encode(out); err != nil {
		return
	}
}

// TestGeneratorSelfTest drives the stub with offers every 5 ms and one
// 150 ms stall. Offers due during the stall must carry it (latency counts
// from the intended send time, not from when a connection freed up), the
// generator must stay within two connections and nproc running threads,
// and it must report its own lateness.
func TestGeneratorSelfTest(t *testing.T) {
	const (
		n          = 200
		gap        = 5 * time.Millisecond
		stallIndex = 60
	)
	st := &stub{service: time.Millisecond, stallFor: 150 * time.Millisecond, stallQuery: stallIndex}
	ts := httptest.NewUnstartedServer(st)
	ts.Config.ConnState = func(_ net.Conn, cs http.ConnState) {
		if cs == http.StateNew {
			st.conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	offers := make([]offer, n)
	for i := range offers {
		offers[i] = offer{due: time.Duration(i+1) * gap, query: i, hold: 1}
	}
	g := newGenerator(ts.URL)
	defer g.close()
	ph := g.run(offers)

	for i, o := range ph.out {
		if !o.ok || int(o.resp.Query) != i {
			t.Fatalf("offer %d: ok=%v err=%q query=%d", i, o.ok, o.err, o.resp.Query)
		}
	}
	stallEnd := offers[stallIndex].due + st.stallFor
	carried := 0
	for i := stallIndex + 1; offers[i].due < stallEnd-10*time.Millisecond; i++ {
		want := stallEnd - offers[i].due
		if got := ph.out[i].lat; got < want {
			t.Errorf("offer %d due %v into the stall: latency %v, want at least %v", i, offers[i].due-offers[stallIndex].due, got, want)
		}
		carried++
	}
	if carried < 20 {
		t.Fatalf("only %d offers fell due during the stall", carried)
	}
	// The offers that waited went out together once a connection freed.
	maxB := 0
	for _, b := range ph.batches {
		if b > maxB {
			maxB = b
		}
	}
	if maxB < 2 || maxB > maxBatch {
		t.Errorf("largest request carried %d offers, want coalescing within [2,%d]", maxB, maxBatch)
	}
	if !st.sawBatch.Load() || !st.sawSingles.Load() {
		t.Errorf("want both single-object and array requests (single=%v array=%v)", st.sawSingles.Load(), st.sawBatch.Load())
	}

	if d := g.dials.Load(); d > maxConns {
		t.Errorf("generator dialed %d connections, limit %d", d, maxConns)
	}
	if c := st.conns.Load(); c > maxConns {
		t.Errorf("stub accepted %d connections, limit %d", c, maxConns)
	}
	if ph.inFlight > maxConns || st.peak.Load() > maxConns {
		t.Errorf("requests outstanding at once: generator %d, stub %d; limit %d", ph.inFlight, st.peak.Load(), maxConns)
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		t.Errorf("GOMAXPROCS %d exceeds nproc %d", runtime.GOMAXPROCS(0), runtime.NumCPU())
	}

	if len(ph.lags) != len(ph.batches) {
		t.Fatalf("%d lateness samples for %d requests", len(ph.lags), len(ph.batches))
	}
	lags := make([]float64, len(ph.lags))
	for i, l := range ph.lags {
		lags[i] = ms(l)
	}
	if p99 := quantile(lags, 0.99); p99 < 0 || p99 > 20 {
		t.Errorf("generator lateness p99 %.3f ms; a stall on the server side must not show up as generator lateness", p99)
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	a := schedule(newRand(7), 1000, time.Second, 60, 30)
	b := schedule(newRand(7), 1000, time.Second, 60, 30)
	if len(a) != len(b) || len(a) < 900 || len(a) > 1100 {
		t.Fatalf("schedule lengths %d and %d at 1000/s over 1s", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("offer %d differs between runs with one seed", i)
		}
		if a[i].query < 0 || a[i].query >= 60 {
			t.Fatalf("offer %d query %d outside the instance", i, a[i].query)
		}
	}
}
