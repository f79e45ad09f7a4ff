// Streaming-admission scenario: the full life cycle of the always-on
// daemon (cmd/edgerepd), driven end to end from one process — start a
// journaled admission server over HTTP, offer a batch of queries, read the
// typed decisions off the wire, scrape the Prometheus metrics, then pull
// the power mid-write (a torn WAL tail, exactly what SIGKILL leaves
// behind), recover, and keep serving with nothing lost. The README in this
// directory walks the same drill against a real edgerepd with curl.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"

	"edgerep/internal/journal"
	"edgerep/internal/online"
	"edgerep/internal/ops"
	"edgerep/internal/server"
	"edgerep/internal/workload"
)

func main() {
	// The daemon's cluster state is a pure function of (seed, scale): a
	// restarted process rebuilds the identical problem, which is what lets
	// journal replay cross-check every recovered decision.
	inst := server.DefaultInstance()
	p, err := server.BuildInstance(inst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instance: %d nodes, %d datasets, %d queries (seed %d)\n",
		inst.Nodes, inst.Datasets, inst.Queries, inst.Seed)

	dir, err := os.MkdirTemp("", "streaming-admission")
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := os.RemoveAll(dir); err != nil {
			log.Print(err)
		}
	}()

	// Life 1: serve admission with a write-ahead journal. DeferSync is group
	// commit, as in edgerepd: the server fsyncs once per micro-epoch, before
	// it answers any of the epoch's offers.
	jn, err := journal.Open(dir, journal.Options{DeferSync: true})
	if err != nil {
		log.Fatal(err)
	}
	const expected = 10000 // arrivals the capacity price base plans for
	s := server.New(p, online.NewEngine(p, expected, online.Options{Journal: jn}), server.Config{})
	addr, shutdown, err := server.Serve("127.0.0.1:0", s.Handler(ops.Handler()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlife 1: serving on http://%s\n", addr)

	// Offer a batch: one POST, many queries, decided in enqueue order.
	batch := make([]server.AdmitRequest, 12)
	for i := range batch {
		batch[i] = server.AdmitRequest{Query: workload.QueryID(i * 4), HoldSec: 30}
	}
	decisions := admit(addr, batch)
	acked := len(decisions)
	for _, d := range decisions[:4] {
		if d.Admitted {
			fmt.Printf("  query %2d admitted  epoch %d, %d demands placed\n",
				d.Query, d.Epoch, len(d.Assignments))
		} else {
			fmt.Printf("  query %2d rejected  epoch %d, reason %q (dataset %d, node %d)\n",
				d.Query, d.Epoch, d.Reason, d.Dataset, d.Node)
		}
	}
	fmt.Printf("  ... %d decisions acknowledged and journaled\n", acked)

	// The same port serves the ops surface.
	metrics := get(addr, "/metrics")
	for _, line := range bytes.Split(metrics, []byte("\n")) {
		if bytes.HasPrefix(line, []byte("edgerep_server_offers")) ||
			bytes.HasPrefix(line, []byte("edgerep_server_epochs")) {
			fmt.Printf("  /metrics: %s\n", line)
		}
	}

	// Power cut: a half-written record at the WAL tail, no drain, no
	// snapshot. (With a real daemon: kill -9.)
	if err := jn.TearTail([]byte("power-cut-mid-append")); err != nil {
		log.Fatal(err)
	}
	if err := shutdown(); err != nil {
		log.Fatal(err)
	}
	if err := jn.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\npower cut: WAL tail torn mid-append, process gone")

	// Life 2: recover. Load tolerates the torn tail (the lost record was
	// never acknowledged to any client), Open truncates it, Recover replays
	// every decision through the ordinary admission path and cross-checks
	// the outcome — a divergent journal is refused, never half-applied.
	st, err := journal.Load(dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlife 2: journal loaded: %d records, torn tail dropped: %v\n", len(st.Records), st.Torn)
	jn2, err := journal.Open(dir, journal.Options{DeferSync: true})
	if err != nil {
		log.Fatal(err)
	}
	eng, err := online.Recover(p, expected, online.Options{Journal: jn2}, st)
	if err != nil {
		log.Fatal(err)
	}
	recovered := len(eng.Result().Decisions)
	if recovered != acked {
		log.Fatalf("recovered %d decisions, acknowledged %d", recovered, acked)
	}
	fmt.Printf("recovered %d decisions — every acknowledged answer, exactly once\n", recovered)

	s2 := server.New(p, eng, server.Config{})
	addr2, shutdown2, err := server.Serve("127.0.0.1:0", s2.Handler(ops.Handler()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving again on http://%s\n", addr2)
	more := admit(addr2, []server.AdmitRequest{{Query: 7, HoldSec: 30}})
	fmt.Printf("  query %d decided in epoch %d: admitted=%v\n", more[0].Query, more[0].Epoch, more[0].Admitted)

	// Graceful exit this time: drain finishes the in-flight micro-epoch and
	// snapshots, so the NEXT restart replays zero WAL records.
	if err := s2.Drain(); err != nil {
		log.Fatal(err)
	}
	if err := shutdown2(); err != nil {
		log.Fatal(err)
	}
	if err := jn2.Close(); err != nil {
		log.Fatal(err)
	}
	res := s2.Result()
	fmt.Printf("\ndrained: admitted=%d rejected=%d volume=%.1fGB peak-util=%.3f\n",
		res.Admitted, res.Rejected, res.VolumeAdmitted, res.PeakUtilization)
}

// admit POSTs a batch to /admit and decodes the decisions.
func admit(addr string, reqs []server.AdmitRequest) []server.AdmitResponse {
	body, err := json.Marshal(reqs)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+"/admit", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil {
		log.Fatal(cerr)
	}
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("POST /admit: %s: %s", resp.Status, data)
	}
	var out []server.AdmitResponse
	if err := json.Unmarshal(data, &out); err != nil {
		log.Fatal(err)
	}
	return out
}

// get fetches one ops endpoint.
func get(addr, path string) []byte {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		log.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil {
		log.Fatal(cerr)
	}
	if err != nil {
		log.Fatal(err)
	}
	return data
}
